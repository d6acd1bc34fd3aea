"""End-to-end benchmark of ``fol`` processes on a seeded corpus.

    python3 perfbench/run.py --workload {algebra,scan,walk,longflow,all} \\
        --seed N --seconds S --trace {0,1} [--out results.jsonl] [--root DIR]

One client, closed loop: the requests of the workload's corpus (see
``corpus.py``) run one after another, each as a fresh interpreter that
calls ``foliations.cli:main`` with ``src`` on ``PYTHONPATH`` (what the
``fol`` script does), in ``S // 30`` passes (at least one).  Every answer
is checked (``checks.py``); a repeated request whose output is not
byte-identical to its first run fails too.

The benchmark and every process it starts run on one CPU.  On a 2-CPU
virtual machine, processes free to use both CPUs ran 20-50% slower at
some times than at others, far more than the reference probe below
slowed, so their scaled times moved by more than the bounds; pinned to
one CPU they held still.  The cost: ``--jobs 2`` workers share the one
CPU, so a run cannot show what running them in parallel gains or costs,
and numpy starts one BLAS thread, not one per CPU, so ``cpu_s`` misses
the CPU time that more threads would burn.

After each request the run starts a probe, in turn the set-up probe (a
fresh interpreter importing ``foliations.cli``) and a reference process that
imports numpy and a few stdlib modules and runs fixed integer, Fraction
and float loops and a few compiles.  The reference never touches the
package, so it measures only how fast the machine is at that moment; on
a shared host that speed drifts by a third within minutes.  Each
request's wall and CPU time and each set-up sample is scaled by
``REFERENCE_NOMINAL_S`` over the median of the ``REFERENCE_WINDOW``
reference probes nearest to it in time: the reported times are seconds
on a machine where the reference takes ``REFERENCE_NOMINAL_S``.  The
unscaled values are printed on a ``# raw`` line and kept in the ``--out``
record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
under ``tracer.py`` and the same pass untraced, and prints the per-layer
metrics (``spans.py``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
appends the full record (environment, per-request times) as a JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import corpus
import spans

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1  # the seed whose exact results digests.json records
WARMUP_RUNS = 3
REFERENCE = (  # imports, integer, Fraction and float loops, compile/exec: the requests' mix
    "import numpy, json, fractions, argparse, dataclasses\n"
    "from fractions import Fraction\n"
    "x, acc = 1, {}\n"
    "for _ in range(12000):\n"
    "    x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF\n"
    "    acc[x & 1023] = acc.get(x & 1023, 0) + (x >> 60)\n"
    "q = Fraction(0)\n"
    "for i in range(1, 300):\n"
    "    q += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i, 3)\n"
    "y = 0.5\n"
    "for _ in range(30000):\n"
    "    y = y * 0.9999999 + 1e-9\n"
    "for i in range(60):\n"
    "    exec(compile(f'def f(a, b):\\n    return a * {i}.5 + b * a * {i + 1}.25\\n', '<probe>', 'exec'), {})\n"
)
REFERENCE_NOMINAL_S = 0.15
REFERENCE_WINDOW = 5  # reference probes nearest in time that scale one sample
PASS_SECONDS = 30  # a pass over a corpus with its probes takes 20-30 s on a 2-CPU host
REQUEST_TIMEOUT = 150.0
FOL = "from foliations.cli import main; main()"
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Proc:
    """Outcome of one child process: wall and CPU seconds, max RSS, exit code."""

    def __init__(self, wall: float, cpu: float, rss_kb: int, code: int, stdout: str, stderr: str):
        self.wall, self.cpu, self.rss_kb, self.code = wall, cpu, rss_kb, code
        self.stdout, self.stderr = stdout, stderr


def environment(root: Path, workload: str, args) -> dict:
    sha = "unknown"  # a checkout exported without .git has no commit id
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_digests(workload: str, seed: int) -> dict | None:
    path = HERE / "digests.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.corpus = corpus.build(workload, seed)
        self.schema = json.loads((root / "docs" / "report.schema.json").read_text())
        self.digests = load_digests(workload, seed)
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        # the caller's PYTHON* settings (bytecode writing, hash seed, ...) do not
        # reach the measured processes: they run as an installed ``fol`` would
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(root / "src")

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        for name, text in self.corpus.files().items():
            path = self.work / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        (self.work / "spans").mkdir()
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(REQUEST_TIMEOUT)],
            cwd=self.work, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:  # stop the request in flight too
            self.launcher.terminate()
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=REQUEST_TIMEOUT + 10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / ".bench_work").rmdir()
        except OSError:
            pass

    def run(self, argv) -> Proc:
        """Run ``python3 argv`` to completion through the launcher."""
        out, err = self.work / "stdout", self.work / "stderr"
        job = {"cmd": [sys.executable, *argv], "stdout": str(out), "stderr": str(err)}
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended early")
        r = json.loads(line)
        return Proc(r["wall"], r["cpu"], r["rss_kb"], r["code"],
                    out.read_text(errors="replace"), err.read_text(errors="replace"))

    def request(self, req) -> Proc:
        return self.run(["-c", FOL, *req.argv])

    def traced(self, req) -> tuple[Proc, dict]:
        path = self.work / "spans" / f"{req.id}.json"
        proc = self.run([str(HERE / "tracer.py"), str(path), req.id, "--", *req.argv])
        trace = json.loads(path.read_text()) if path.is_file() else None
        return proc, trace

    def check(self, req, proc: Proc, first: Proc | None = None) -> str | None:
        """Failure reason, or None; reruns byte-identical to ``first`` reuse its verdict."""
        if first is not None:
            if (proc.code, proc.stdout) != (first.code, first.stdout):
                return "output differs from the first run of the same request"
            return None
        reason = checks.check_output(
            req, self.corpus.specs[req.spec], proc.code, proc.stdout, self.schema, self.digests
        )
        if reason and proc.stderr.strip():
            reason += " | stderr: " + proc.stderr.strip().splitlines()[-1][:200]
        return reason


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest sample with ten samples beyond it."""
    return max(0, n - 11)


def end_to_end(bench: Bench, passes: int):
    setup_probe, reference_probe = ["-c", "import foliations.cli"], ["-c", REFERENCE]
    for _ in range(WARMUP_RUNS):  # warm the file and bytecode caches: users run warm
        bench.run(setup_probe)
    # one timeline of requests and probes: after each request a probe, the
    # set-up probe and the reference in turn
    timeline: list[tuple[str, object, Proc]] = []
    for _ in range(passes):
        for j, req in enumerate(bench.corpus.requests):
            timeline.append(("request", req, bench.request(req)))
            if j % 2 == 0:
                timeline.append(("setup", None, bench.run(setup_probe)))
            else:
                timeline.append(("reference", None, bench.run(reference_probe)))
    refs = [(i, p.wall) for i, (kind, _, p) in enumerate(timeline) if kind == "reference"]

    def scale_at(i: int) -> float:
        nearest = sorted(refs, key=lambda r: abs(r[0] - i))[:REFERENCE_WINDOW]
        return REFERENCE_NOMINAL_S / statistics.median(w for _, w in nearest)

    runs, walls, cpus, setup = [], [], [], []
    for i, (kind, req, proc) in enumerate(timeline):
        if kind == "request":
            runs.append((req, proc))
            walls.append(proc.wall * scale_at(i))
            cpus.append(proc.cpu * scale_at(i))
        elif kind == "setup":
            setup.append(proc.wall * scale_at(i))
    first: dict[str, Proc] = {}
    failures = []
    for req, proc in runs:
        reason = bench.check(req, proc, first.get(req.id))
        first.setdefault(req.id, proc)
        if reason:
            failures.append((req, reason))
    n = len(runs)
    ordered = sorted(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (n / sum(walls), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (ordered[tail_index(n)], "s"),
        "cpu_s": (sum(cpus) / passes, "s"),
        "peak_rss_mb": (max(p.rss_kb for _, p in runs) / 1024.0, "MB"),
    }
    raw = sorted(p.wall for _, p in runs)
    notes = {
        "requests": n,
        "passes": passes,
        "tail_percentile": round(100.0 * (tail_index(n) + 1) / n, 1),
        "fail_ratio": len(failures) / n,
        "raw": {
            "requests_per_s": n / sum(raw),
            "latency_p50_s": statistics.median(raw),
            "latency_tail_s": raw[tail_index(n)],
            "cpu_s": sum(p.cpu for _, p in runs) / passes,
            "setup_s": statistics.median(p.wall for kind, _, p in timeline if kind == "setup"),
        },
        "reference_runs": [w for _, w in refs],
    }
    per_request = [{"id": req.id, "wall": p.wall, "cpu": p.cpu, "code": p.code} for req, p in runs]
    return metrics, n, failures, notes, per_request


def traced_pass(bench: Bench):
    summaries, work, traced_wall, untraced_wall = [], [], [], []
    failures = []
    attempted = 0
    for req in bench.corpus.requests:
        proc, trace = bench.traced(req)
        attempted += 1
        reason = bench.check(req, proc)
        if trace is None:
            reason = reason or "tracer wrote no spans"
        if reason:
            failures.append((req, reason))
            continue
        summaries.append(spans.summarize(trace))  # drop the spans themselves
        work.append(req.work)
        traced_wall.append(proc.wall)
        plain = bench.request(req)
        attempted += 1
        reason = bench.check(req, plain, proc)
        if reason:
            failures.append((req, reason))
        untraced_wall.append(plain.wall)
    if not summaries:
        return {}, attempted, failures, {}, []
    metrics = spans.layer_metrics(summaries, work, traced_wall, untraced_wall)
    per_request = [{"traced_wall": w, "untraced_wall": u} for w, u in zip(traced_wall, untraced_wall)]
    return metrics, attempted, failures, {"requests": len(summaries)}, per_request


def measure(root: Path, workload: str, args) -> dict:
    """Run one workload, print its table, return the result object."""
    env = environment(root, workload, args)
    with Bench(root, workload, args.seed) as bench:
        if args.trace:
            metrics, attempted, failures, notes, per_request = traced_pass(bench)
        else:
            passes = max(1, args.seconds // PASS_SECONDS)
            metrics, attempted, failures, notes, per_request = end_to_end(bench, passes)

    print("# " + json.dumps(env, sort_keys=True))
    for key, value in notes.items():
        if key not in ("raw", "reference_runs"):
            print(f"# {key}: {value}")
    if "raw" in notes:
        print("# raw " + json.dumps(notes["raw"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    for req, reason in failures[:10]:
        print(f"FAILED {req.id} {' '.join(req.argv)[:160]}: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = dict(result, env=env, notes=notes, requests=per_request,
                      failures=[[r.id, why] for r, why in failures])
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=PASS_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    ap.add_argument("--root", help="checkout whose src/ and docs/ to measure (default: this one)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = Path(args.root).resolve() if args.root else HERE.parent
    missing = [p for p in ("src/foliations/cli.py", "docs/report.schema.json") if not (root / p).is_file()]
    if missing:
        print(f"perfbench: {root} has no {', '.join(missing)}; nothing to measure", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up on termination
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: measure(root, w, args) for w in workloads}
    if len(results) == 1:
        final = results[args.workload]
    else:  # metrics named <workload>.<metric>
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
