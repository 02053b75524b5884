"""Run one command and report its wall time and resource use as JSON.

Usage: python3 launcher.py STDOUT_FILE STDERR_FILE -- COMMAND...

The benchmark starts every measured child through this small process.
On Linux a child's ru_maxrss starts from the resident size of the
process that spawned it, so spawning straight from the benchmark (which
holds numpy, scipy and the oracle) would put the benchmark's own memory
into the child's peak. This launcher imports nothing heavy, so it adds
only its own few MB, which every hazmob child exceeds.

The clock starts just before the spawn and stops when wait4 returns. The
spawn time is also passed to the child as PERFBENCH_T0 (CLOCK_MONOTONIC,
shared by all processes) for the traced run's start-up measurement.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    stdout_path, stderr_path, command = argv[0], argv[1], argv[3:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    env = dict(os.environ)
    t0 = time.monotonic()
    env["PERFBENCH_T0"] = repr(t0)
    pid = os.posix_spawnp(command[0], command, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - t0
    print(json.dumps({
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
