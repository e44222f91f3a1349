"""Times one set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py WORKLOAD SEED WORKDIR.  Prints the seconds from
before the imports to after the workload's Density construction.
"""

import sys
import time
from pathlib import Path

t_start = time.perf_counter()

from run import bootstrap, setup  # noqa: E402  (timed with the imports)

if __name__ == "__main__":
    bootstrap()
    setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(time.perf_counter() - t_start)
