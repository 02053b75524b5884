"""Mobility-based environmental hazard exposure analytics."""

from .model import (
    HAZARD_TYPES,
    HazardLayer,
    MeiTable,
)

__all__ = [
    "HAZARD_TYPES",
    "HazardLayer",
    "MeiTable",
]

__version__ = "0.1.0"
