"""Record the output digests that ``run.py`` checks, in ``digests.json``.

For each seed from 1 to 10, one pass over the workload's diagrams gives
the SHA-256 of every operation's output and the operations that failed.
Run it from the repository root at the commit whose outputs are the
reference, for the workloads whose inputs changed::

    python3 perfbench/record_digests.py ladder canon
"""

import json
import os
import shutil
import signal
import sys
import tempfile

import run

SEEDS = range(1, 11)


def record(workload, seed):
    os.makedirs(run.OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=run.OUT)
    try:
        items = run.build_items(workload, seed, work)
        res = run.run_pass(items, run.KINDS[workload],
                           run.OP_LIMIT_S[workload], work, True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if res.wrong_ops:
        raise SystemExit(f"{workload} seed {seed}: {res.problems}")
    return {"digest": run.digest(res, set(res.failed_ops)),
            "failed": res.failed_ops}


def main(workloads):
    signal.signal(signal.SIGALRM, run._alarm)
    path = os.path.join(run.HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        digests = json.load(fh)
    for workload in workloads:
        digests[workload] = {str(s): record(workload, s) for s in SEEDS}
        print(workload, {s: len(d["failed"])
                         for s, d in digests[workload].items()})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(run.KINDS))
