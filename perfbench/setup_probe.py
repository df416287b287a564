"""One set-up, timed from outside by run.py: start, import blocksets, build inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name].build(seed)
