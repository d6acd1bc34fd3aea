"""Hashes of what ``fol`` writes on every request of the benchmark corpora.

    python tests/corpus_outputs.py [--workloads algebra,scan,walk,longflow] [--seeds 1,2,3]

builds the corpora of ``perfbench/corpus.py`` for each workload and seed
(default: all four workloads, seeds 1-3) and runs every request as a fresh
``python -c "from foliations.cli import main; main()"`` process, with this
tree's ``src`` on ``PYTHONPATH``, the caller's other ``PYTHON*`` variables
dropped, and a temporary directory holding the corpus files as its working
directory.  It prints one line per request:

    WORKLOAD SEED REQUEST-ID EXIT-CODE SHA256(STDOUT) SHA256(STDERR)

Two trees write the same bytes on every request exactly when the outputs of
their copies of this script diff to nothing.  ``tests/corpus_outputs_seeds1-3.txt``
is the output for ``--seeds 1,2,3``, all 504 requests, and
``tests/corpus_outputs_seeds100-101.txt`` the output for ``--seeds 100,101``
(336 requests, the first two seeds of the benchmark's pairs); CI diffs this
script's output against each.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOL = "from foliations.cli import main; main()"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="algebra,scan,walk,longflow")
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for workload in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            c = corpus.build(workload, seed)
            with tempfile.TemporaryDirectory() as tmp:
                for name, text in c.files().items():
                    path = Path(tmp) / name
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)
                for req in c.requests:
                    proc = subprocess.run(
                        [sys.executable, "-c", FOL, *req.argv], cwd=tmp, env=env, capture_output=True
                    )
                    out, err = (hashlib.sha256(b).hexdigest() for b in (proc.stdout, proc.stderr))
                    print(workload, seed, req.id, proc.returncode, out, err, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
