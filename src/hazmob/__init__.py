"""Mobility-based environmental hazard exposure analytics."""

from .model import (
    HAZARD_TYPES,
    CensusTract,
    HazardLayer,
    MeiTable,
    StopRecord,
    validate,
)

__all__ = [
    "HAZARD_TYPES",
    "CensusTract",
    "HazardLayer",
    "MeiTable",
    "StopRecord",
    "validate",
]

__version__ = "0.1.0"
