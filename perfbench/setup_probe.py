"""Time one set-up of a workload in a fresh interpreter; print it as JSON.

    python3 perfbench/setup_probe.py WORKLOAD

run.py starts this several times, one after another, to sample setup_s.
"""

import json
import sys

import workloads

if __name__ == "__main__":
    print(json.dumps(workloads.set_up(sys.argv[1]).timings))
