"""One set-up measurement in a fresh interpreter: `import anop` plus building
the inputs of a workload. Prints the seconds taken.

    python3 bench/probe.py WORKLOAD SEED
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

if __name__ == "__main__":
    start = time.perf_counter()
    import anop  # noqa: F401  (the import is part of what is measured)
    import workloads
    workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - start)
