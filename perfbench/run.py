"""Run the scenex benchmark from the repository root.

    python3 perfbench/run.py --workload enum-follow --seed 1 --seconds 40 --trace 0

`--workload all` runs every workload in turn. The last line of standard
output is the result as JSON; the exit code is non-zero, with no result,
when an output check fails.
"""
import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.bench import main

    sys.exit(main())
