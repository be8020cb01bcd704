"""Record the reference SHA-256 of every request's output into digests.json.

    python3 perfbench/record_digests.py

Run it once on the commit whose outputs are the reference; the benchmark
then fails any request whose output bytes differ.  It refuses to record
a request that exits nonzero or whose repeated output differs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import worker
import workloads


def main() -> int:
    (worker.STATE / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(worker.STATE / "tmp")
    sys.path.insert(0, str(worker.SRC))
    from cyclojones import cli

    digests: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        run_dir = tempfile.mkdtemp(prefix="digests-")
        try:
            table = digests[workload] = {}
            for key, argv, _ in workloads.requests(workload, 0, f"{run_dir}/cache"):
                code, output, err = worker.call(cli.main, argv)
                if code != 0:
                    print(f"{key}: exit code {code}: {err}", file=sys.stderr)
                    return 1
                if table.setdefault(key, worker.digest(output)) != worker.digest(output):
                    print(f"{key}: repeated output differs", file=sys.stderr)
                    return 1
                print(f"{workload}: {key}", file=sys.stderr)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    worker.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
