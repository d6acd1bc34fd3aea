"""Tests of the benchmark itself: corpus determinism, answer checks, span
arithmetic and compare verdicts.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402
from oracle import word_matrix  # noqa: E402

SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


def _report(req, results, diagnostics=None, seed=None, nan=False) -> str:
    doc = {
        "command": req.cmd,
        "inputs": {"argv": req.argv, "file": req.argv[1]},
        "results": results,
        "diagnostics": diagnostics or {},
        "version": "0.1.0",
    }
    if seed is not None:
        doc["seed"] = seed
    return json.dumps(doc, allow_nan=nan)


def _one(cmd, spec_name, args, **kw):
    c = corpus.Corpus("t", 0)
    spec = corpus.NAMED[spec_name]
    c.add(cmd, spec, args, **kw)
    return c.requests[0], spec


def _verdict(req, spec, code, stdout):
    return checks.check_output(req, spec, code, stdout, SCHEMA)


# -- corpus -------------------------------------------------------------------


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_deterministic_for_a_seed(workload):
    assert corpus.build(workload, 7).serialize() == corpus.build(workload, 7).serialize()
    assert corpus.build(workload, 7).serialize() != corpus.build(workload, 8).serialize()


def test_generator_matches_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    from foliations.flow import XorShift64Star

    for seed in (0, 1, 12345, 2**63 + 5):
        ours, theirs = corpus.XorShift64Star(seed), XorShift64Star(seed)
        assert [ours.next_u64() for _ in range(50)] == [theirs.next_u64() for _ in range(50)]


# -- answer checks reject mutated outputs ---------------------------------------


def test_member_certificate_is_verified():
    # x * (x dx - y dy) is in the sl2 module with certificate (x, 0, 0)
    req, spec = _one("member", "sl2", ["--field", "(x^2)*dx + (-x*y)*dy"], expect={"member": True})
    good = {"member": True, "certificate": ["x", "0", "0"]}
    assert _verdict(req, spec, 0, _report(req, good)) is None
    bad = {"member": True, "certificate": ["2*x", "0", "0"]}
    assert "certificate" in _verdict(req, spec, 0, _report(req, bad))
    shifted = {"member": True, "certificate": ["x", "1/3", "0"]}
    assert "certificate" in _verdict(req, spec, 0, _report(req, shifted))


def test_bare_nan_is_rejected():
    req, spec = _one("flow", "so3", ["--word", "1,0,0@1/2", "--point", "1,0,0"],
                     expect={"word": [[["1", "0", "0"], "1/2"]], "point": "1,0,0", "h": 1e-3})
    out = _report(req, {"endpoint": [float("nan"), 0.0, 0.0]}, nan=True)
    assert "NaN" in out
    assert "NaN" in _verdict(req, spec, 0, out)
    # X1 = -y dx + x dy rotates (1, 0, 0) in the xy-plane
    good = [math.cos(0.5), math.sin(0.5), 0.0]
    assert _verdict(req, spec, 0, _report(req, {"endpoint": good})) is None
    assert "2 entries" in _verdict(req, spec, 0, _report(req, {"endpoint": good[:2]}))


def test_wrong_exit_code_is_rejected():
    req, spec = _one("check", "nonintegrable", [], exit=1, expect={"closed": False})
    # [dx, x dy] = dy
    res = {"closed": False, "witnesses": [{"i": 1, "j": 2, "bracket": "dy"}]}
    assert _verdict(req, spec, 1, _report(req, res)) is None
    assert "exit code" in _verdict(req, spec, 0, _report(req, res))
    wrong_bracket = {"closed": False, "witnesses": [{"i": 1, "j": 2, "bracket": "2*dy"}]}
    assert "bracket" in _verdict(req, spec, 1, _report(req, wrong_bracket))


def test_jet_off_by_more_than_the_tolerance_is_rejected():
    word = [[["1", "1/2", "0"], "3/4"], [["0", "-1", "1/4"], "1/2"]]
    req, spec = _one("jet", "so3", ["--word", "1,1/2,0@3/4; 0,-1,1/4@1/2", "--point", "0,0,0"],
                     expect={"word": word})
    exact = word_matrix(spec.matrices(), checks._word(word))

    def out(delta):
        jet = [list(row) for row in exact]
        jet[1][2] += delta
        return _report(req, {"jet": jet}, {"step_size": 1e-3, "tolerance_hint": 1e-6})

    assert _verdict(req, spec, 0, out(1e-8)) is None
    assert "jet off by" in _verdict(req, spec, 0, out(2e-6))


def test_schema_violation_is_rejected():
    req, spec = _one("syzygy", "cstar", [])
    doc = json.loads(_report(req, {"relations": []}))
    assert _verdict(req, spec, 0, json.dumps(doc)) is None
    doc["extra"] = 1
    assert "unexpected keys" in _verdict(req, spec, 0, json.dumps(doc))
    assert "one JSON document" in _verdict(req, spec, 0, _report(req, {"relations": []}) * 2)


# -- span arithmetic -------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        ("cli.run", 0.0, 10.0, None),  # 0: root
        ("modalg.fiber_dim", 1.0, 4.0, 0),  # 1
        ("modalg.rank_exact", 2.0, 3.0, 1),  # 2: grandchild of the root
        ("vfparse.format_poly", 5.0, 6.0, 0),  # 3
        ("modalg.tangent_dim", 6.5, 8.0, 0),  # 4: two worker threads overlap
        ("modalg.tangent_dim", 7.0, 9.0, 0),  # 5
    ]
    assert spans.self_times(spans_) == pytest.approx([3.5, 2.0, 1.0, 1.0, 1.5, 2.0])
    names = ["cli.run", "modalg.fiber_dim", "modalg.rank_exact", "vfparse.format_poly", "modalg.tangent_dim"]
    trace = {"names": names, "spans": [[names.index(n), s, e, p] for n, s, e, p in spans_]}
    r = spans.reduce_request(trace)
    assert r["root_s"] == pytest.approx(10.0)
    assert r["layers"]["modalg"] == pytest.approx(6.5)
    assert r["layers"]["cli"] == pytest.approx(3.5)
    assert r["names"]["modalg.tangent_dim"] == [pytest.approx(3.5), 2]


def test_covered_clips_to_the_parent_interval():
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 7.0)], 1.5, 6.0) == pytest.approx(2.5)
    assert spans.covered([], 0.0, 1.0) == 0.0


# -- compare verdicts ------------------------------------------------------------


def test_compare_verdicts():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [v * 0.8 for v in base]
    # lower is better: every pair won and the gap exceeds the base IQR
    assert compare.verdict(faster, base, 10, 10, lower=True, bound=0.1) == "improved"
    assert compare.verdict(base, base, 0, 10, lower=True, bound=0.1) == "no worse"
    assert compare.verdict([v * 1.05 for v in base], base, 0, 10, lower=True, bound=0.1) == "no worse"
    assert compare.verdict([v * 1.2 for v in base], base, 0, 10, lower=True, bound=0.1) == "worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict([v * 1.1 for v in base], noisy, 5, 10, lower=True, bound=0.1) == "unresolved"
    # higher is better
    assert compare.verdict(faster, base, 0, 10, lower=False, bound=0.1) == "worse"
