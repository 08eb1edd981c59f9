"""Set-up probe: import spinorlab in a fresh interpreter and run one op of each kind.

Usage: python3 perfbench/setup_probe.py OPS.json

Prints one JSON line: the seconds from before the import to the end of the
last operation, and the exact-output digest of each operation.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    with open(sys.argv[1], encoding="utf-8") as fh:
        ops = json.load(fh)
    reports = [workloads.attempt(op)[0] for op in ops]
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed,
                      "digests": [workloads.digest(r) for r in reports]}))
