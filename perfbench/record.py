"""Pin the expected output of every benchmark command.

    python3 perfbench/record.py

Runs each command of every workload (and of the smoke lists) once, from the
root of a checkout of the commit whose behaviour is the reference, and
writes ``expected.json``: exit code, sha256 of stdout, sha256 of the file
written (or null) and the peak resident memory, which the memory pre-flight
of ``run.py`` reads.  A command whose exact counts disagree with the closed
forms is not pinned.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    pinned = {}
    try:
        for table in (workloads.WORKLOADS, workloads.SMOKE):
            for cmds in table.values():
                forms = run.closed_forms(cmds)
                for argv in cmds:
                    result = run.run_command(argv, traced=False)
                    closed = run.closed_counts(argv, forms)
                    reported = run.stdout_counts(argv, result["stdout"])
                    wrong = {k: v for k, v in reported.items() if k in closed and v != closed[k]}
                    if wrong:
                        print(f"not pinned, counts differ from closed forms: "
                              f"{workloads.key(argv)} {wrong}", file=sys.stderr)
                        return 1
                    pinned[workloads.key(argv)] = {
                        "exit": result["exit"],
                        "stdout_sha256": hashlib.sha256(result["stdout"]).hexdigest(),
                        "file_sha256": result["file_sha256"],
                        "peak_mb": round(result["rss_mb"], 1),
                    }
                    print(f"{result['wall']:7.3f}s {result['rss_mb']:7.1f}MB "
                          f"exit {result['exit']}  {workloads.key(argv)}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
