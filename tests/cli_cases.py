"""One table of ``fol`` requests, each with its exit code and one check.

    python tests/cli_cases.py [FOL]

runs every case through the installed ``fol`` script (or the command FOL)
and exits 1 if any fails; ``tests/test_cli.py`` runs the same cases through
``cli.run``.  Each case writes ``FILES`` to a directory and passes the
names in its argv as paths there.  Every report must be one JSON document,
without NaN or infinities, that the report schema accepts, with nothing on
stderr, and the case's check must hold:

* ``("error", text)``: ``diagnostics.error`` is ``text``;
* ``("dumps", None)``: the report is byte for byte what ``json.dumps(report,
  indent=2, sort_keys=True)`` writes, and a newline (the CLI writes the
  large arrays of ``dims`` and ``leaf`` itself);
* ``("results", (key, value))``: ``results[key]`` is ``value``;
* ``None``: no more than the above.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = {
    "sl2.fol": "vars: x y\ngenerators:\n  x*dx - y*dy\n  y*dx\n  x*dy\n",
    # generic rank 2, below k = n = 3
    "so3.fol": "vars: x y z\ngenerators:\n  -y*dx + x*dy\n  -z*dy + y*dz\n  z*dx - x*dz\n",
    "xk2.fol": "vars: x\ngenerators:\n  x^2*dx\n",
    # a fixed point at x = 10^11, outside the domain box
    "far.fol": "vars: x y\ngenerators:\n  (x - 100000000000)*dx + y*dy\n",
    "wide.fol": "vars: " + " ".join(f"x{i}" for i in range(20)) + "\ngenerators:\n  x0*dx0\n",
    "repeated.fol": "vars: x x\ngenerators:\n  x*dx\n",
    "invalid.fol": "vars: x 1y\ngenerators:\n  x*dx\n",
    # one byte over the file cap of 1 MiB: a valid spec after a long comment
    "long.fol": "#" * ((1 << 20) - 27) + "\nvars: x\ngenerators:\n  x*dx\n",
}

CASES = [
    ("check", ["check", "sl2.fol"], 0, None),
    # a bad 'vars:' line is reported with its number
    ("check-repeated-var", ["check", "repeated.fol"], 2, ("error", "variable names must be distinct (line 1)")),
    ("check-invalid-var", ["check", "invalid.fol"], 2, ("error", "invalid variable name '1y' (line 1)")),
    # refused after reading one byte past the cap, before any line is parsed
    ("check-over-the-file-cap", ["check", "long.fol"], 3, ("error", "file is longer than 1048576 bytes")),
    ("dims", ["dims", "sl2.fol", "--point", "1/2,0", "--grid", "-1:1:1/3"], 0, ("dumps", None)),
    # values that start with '-'
    ("dims-negative", ["dims", "sl2.fol", "--point", "-1,0", "--grid", "-1:1:1/2"], 0, ("dumps", None)),
    ("dims-so3", ["dims", "so3.fol", "--grid", "-1:1:1/2"], 0, ("dumps", None)),
    # 961 grid rows: a report past the 64 KiB a pipe holds, flushed before the script exits
    ("dims-grid-large", ["dims", "sl2.fol", "--grid", "-1:1:1/15"], 0, ("dumps", None)),
    ("leaf", ["leaf", "sl2.fol", "--point", "1,0", "--steps", "50", "--seed", "3"], 0, ("dumps", None)),
    # 50,001 samples of 20 coordinates: under the point cap, over the draw cap
    (
        "chart-rank-draws",
        ["chart-rank", "wide.fol", "--point", ",".join(["1"] * 20), "--samples", "50001", "--seed", "1"],
        3,
        ("error", "--samples needs 1000020 random numbers, more than 1000000"),
    ),
    # the lowest-index generators
    ("localgens-regular", ["localgens", "sl2.fol", "--point", "1,0"], 0, ("results", ("indices", [1, 3]))),
    ("localgens-origin", ["localgens", "sl2.fol", "--point", "0,0"], 0, ("results", ("indices", [1, 2, 3]))),
    # a coordinate too long to print
    ("dims-long", ["dims", "sl2.fol", "--point", "1e5000,0"], 2, None),
    # an abbreviated flag is unknown, and the report names the arguments as given
    ("dims-abbreviated", ["dims", "sl2.fol", "--poi", "1,0"], 2, ("error", "unrecognized arguments: --poi 1,0")),
    # each flag is checked under every subcommand
    ("check-h-nan", ["check", "sl2.fol", "--h", "nan"], 2, ("error", "--h must be finite, got nan")),
    (
        "jet-exact-tol-inf",
        ["jet-exact", "sl2.fol", "--word", "1,0,0@1", "--tol", "inf"],
        2,
        ("error", "--tol must be finite, got inf"),
    ),
    # exp(1e300 H) overflows in the first of 1,000 steps, where the product stops
    (
        "jet-exact-overflow-long",
        ["jet-exact", "sl2.fol", "--word", "; ".join(["1,0,0@1e300"] * 1000)],
        3,
        ("error", "result is not finite"),
    ),
    # through the RK4 kernels
    (
        "flow-blowup",
        ["flow", "xk2.fol", "--point", "2", "--word", "1@1"],
        3,
        ("error", "trajectory left the domain box in segment 1 (t = 0.501)"),
    ),
    ("jet", ["jet", "so3.fol", "--point", "0,0,0", "--word", "1/2,1/4,-1/8@0.3; -1/3,1/5,1/7@0.25"], 0, None),
    # a fixed point outside the box leaves it in the first step
    (
        "jet-outside-the-box",
        ["jet", "far.fol", "--point", "100000000000,0", "--word", "1@1"],
        3,
        ("error", "trajectory left the domain box in segment 1 (t = 0.001)"),
    ),
]

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text())


def write_files(root: Path) -> None:
    for name, text in FILES.items():
        (root / name).write_text(text)


def argv_in(root: Path, argv: list[str]) -> list[str]:
    return [str(root / a) if a in FILES else a for a in argv]


def _no_constant(name):
    raise ValueError(f"report holds {name}")


def failures(case, code: int, out: str, err: str) -> list[str]:
    """What is wrong with a run of ``case`` that exited ``code``."""
    import jsonschema

    name, _, want_code, check = case
    found = [] if code == want_code else [f"exit code {code}, not {want_code}"]
    if err:
        found.append(f"stderr: {err!r}")
    try:
        report = json.loads(out, parse_constant=_no_constant)
        jsonschema.validate(report, SCHEMA)
    except (ValueError, jsonschema.ValidationError) as e:
        found.append(f"not a valid report: {e}")
        check = None
    kind, value = check or (None, None)
    if kind == "error" and report["diagnostics"].get("error") != value:
        found.append(f"error {report['diagnostics'].get('error')!r}, not {value!r}")
    if kind == "dumps" and out != json.dumps(report, indent=2, sort_keys=True) + "\n":
        found.append("the report is not what json.dumps writes")
    if kind == "results" and report["results"].get(value[0]) != value[1]:
        found.append(f"results[{value[0]!r}] is {report['results'].get(value[0])!r}, not {value[1]!r}")
    return [f"{name}: {f}" for f in found]


def main(argv: list[str]) -> int:
    fol = argv[0] if argv else shutil.which("fol")
    if fol is None:
        print("no fol script on PATH", file=sys.stderr)
        return 1
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_files(root)
        for case in CASES:
            proc = subprocess.run([fol, *argv_in(root, case[1])], capture_output=True, text=True)
            found += failures(case, proc.returncode, proc.stdout, proc.stderr)
    print("\n".join(found) or f"{len(CASES)} cases passed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
