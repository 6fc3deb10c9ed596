"""Set-up probe, run in a fresh interpreter: import ``secrelay.cli``, then make
the workload's fixed first call.  Prints one JSON line with both times.

    python3 perfbench/setup_probe.py <repo root> <workload> <tiny 0|1>
"""

import json
import sys
import time

t0 = time.perf_counter()
root, workload, tiny = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
sys.path.insert(0, f"{root}/src")
import secrelay.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402  (the directory of this file is on sys.path)

workloads.WORKLOADS[workload].warmup(tiny).run()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1}))
