"""Compare the benchmark results of two checkouts, run in alternating pairs.

    python3 perfbench/compare.py run --a DIR_A --b DIR_B --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

``run`` measures both checkouts on every workload of ``BENCHMARK.json``
with this checkout's benchmark code (``run.py --root``, ``--seconds``
from ``BENCHMARK.json``), in ``PAIRS`` pairs: pair i uses seed
``SEED0 + i`` on both sides, and even pairs run A first, odd pairs B
first.  Each result is appended to the JSON-lines file with its side,
pair, seed, environment and the run's unscaled (``# raw``) values.

``report`` prints, per workload and end-to-end metric, each side's median
and quartiles, the pair wins, and a verdict for B against A and for A
against B, by these rules (bounds from ``BENCHMARK.json``):

* improved - the side wins at least nine tenths of all pairs (ties count
  for neither) and the medians differ by more than the other side's
  interquartile distance;
* unresolved - the other side's spread (IQR / median) exceeds the bound,
  unless every run of this side beats every run of the other;
* no worse - the median is not worse than the other's by more than the bound;
* worse - otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10  # the fewest pairs a gain may be claimed on
SEED0 = 100  # pair seeds start here, away from the digest seed 1


def run_pairs(args) -> int:
    sides = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    for i in range(PAIRS):
        seed = SEED0 + i
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            for side in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--root", str(sides[side]),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"pair {i} {workload} {side}: run failed\n{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                env = json.loads(lines[0][2:]) if lines[0].startswith("# {") else {}
                raw = next((json.loads(ln[6:]) for ln in lines if ln.startswith("# raw ")), {})
                record = {"pair": i, "side": side, "first": order[0], "workload": workload,
                          "seed": seed, "env": env, "raw": raw, "result": json.loads(lines[-1])}
                with open(args.out, "a") as f:
                    f.write(json.dumps(record, sort_keys=True) + "\n")
                res = record["result"]
                print(f"pair {i} {workload:8s} {side}: failed {res['failed']}/{res['attempted']}", flush=True)
    return 0


def spread(values: list) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def _better(x: float, y: float, lower: bool) -> bool:
    return x < y if lower else x > y


def verdict(mine: list, other: list, wins: int, pairs: int, lower: bool, bound: float) -> str:
    """Verdict for ``mine`` against ``other`` (values in the same pair order)."""
    m_med, o_med = statistics.median(mine), statistics.median(other)
    o_q = statistics.quantiles(other, n=4)
    if wins >= 0.9 * pairs and _better(m_med, o_med, lower) and abs(m_med - o_med) > o_q[2] - o_q[0]:
        return "improved"
    if (o_q[2] - o_q[0]) / o_med > bound:
        beats_all = all(_better(x, y, lower) for x in mine for y in other)
        return "no worse" if beats_all else "unresolved"
    worse_by = (m_med - o_med) / o_med if lower else (o_med - m_med) / o_med
    return "no worse" if worse_by <= bound else "worse"


def report(path: str) -> int:
    metrics = BENCHMARK["end_to_end"]
    records = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    by_key: dict[tuple, dict] = {}
    for r in records:
        by_key.setdefault((r["workload"], r["pair"]), {})[r["side"]] = r
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    shas = {s: sorted({r["env"].get("git_sha", "?")[:12] for r in records if r["side"] == s}) for s in "ab"}
    print(f"A = {shas['a']}  B = {shas['b']}")
    print(f"{'workload':9s} {'metric':15s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s}"
          f" {'wins A/B/tie':>12s}  {'B vs A':10s} {'A vs B':10s}")
    status = 0
    for workload in workloads:
        pairs = [v for (w, _), v in sorted(by_key.items()) if w == workload and len(v) == 2]
        failed = sum(p[s]["result"]["failed"] for p in pairs for s in "ab")
        for m in metrics:
            name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
            a = [p["a"]["result"]["metrics"][name]["value"] for p in pairs]
            b = [p["b"]["result"]["metrics"][name]["value"] for p in pairs]
            if len(a) < 2:
                print(f"{workload:9s} {name:15s} fewer than two complete pairs")
                status = 1
                continue
            a_wins = sum(_better(x, y, lower) for x, y in zip(a, b))
            b_wins = sum(_better(y, x, lower) for x, y in zip(a, b))
            ties = len(a) - a_wins - b_wins
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            v_ba = verdict(b, a, b_wins, len(a), lower, bound)
            v_ab = verdict(a, b, a_wins, len(a), lower, bound)
            a_s = f"{statistics.median(a):.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            b_s = f"{statistics.median(b):.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            print(f"{workload:9s} {name:15s} {a_s:>32s} {b_s:>32s} {f'{a_wins}/{b_wins}/{ties}':>12s}"
                  f"  {v_ba:10s} {v_ab:10s} spread A {spread(a):.3f} B {spread(b):.3f} (bound {bound})", end="")
            raw = [[p[s].get("raw", {}).get(name) for p in pairs] for s in "ab"]
            if None not in raw[0] + raw[1]:  # the same runs before scaling by the reference probes
                print(f"; unscaled A {spread(raw[0]):.3f} B {spread(raw[1]):.3f}", end="")
            print()
        print(f"{workload:9s} failed requests: {failed} over {2 * len(pairs)} runs")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs of two checkouts")
    r.add_argument("--a", required=True)
    r.add_argument("--b", required=True)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="medians, quartiles, pair wins and verdicts")
    p.add_argument("results")
    args = ap.parse_args(argv)
    return run_pairs(args) if args.cmd == "run" else report(args.results)


if __name__ == "__main__":
    sys.exit(main())
