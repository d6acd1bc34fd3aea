"""Record ``digests.json``: the results of every exact subcommand on the default seed.

    python3 perfbench/record_digests.py

The README promises byte-identical output for identical invocations, so
the benchmark compares the ``results`` of ``check``, ``syzygy``,
``member``, ``singular``, ``localgens`` and ``dims`` on the default seed
against these digests.  Each answer must pass the other checks before
its digest is recorded; re-record only when a change is meant to alter
exact output, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import checks
import corpus
import run


def main() -> int:
    digests = {}
    for workload in corpus.WORKLOADS:
        with run.Bench(run.HERE.parent, workload, run.DEFAULT_SEED) as bench:
            bench.digests = None
            digests[workload] = {}
            for req in bench.corpus.requests:
                if req.cmd not in checks.EXACT_COMMANDS:
                    continue
                proc = bench.request(req)
                reason = bench.check(req, proc)
                if reason:
                    print(f"{req.id} {' '.join(req.argv)[:120]}: {reason}", file=sys.stderr)
                    return 1
                digests[workload][req.id] = checks.results_digest(json.loads(proc.stdout)["results"])
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, digests.values()))} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
