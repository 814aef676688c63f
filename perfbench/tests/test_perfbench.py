"""Self-tests of the benchmark's generators, checkers and tracer.

Run with `python -m pytest -q perfbench/tests` from the repository root.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import oracles, run  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

workloads = run._import_library()

from nillat import classify, commalg  # noqa: E402


def _failures(workload, records):
    bad, circle = {}, oracles.CircleOracle()
    run.check_cycle(workload, records, bad, circle)
    circle.resolve()
    return bad


def test_socle_rule_matches_radical_and_socle():
    rng = random.Random(11)
    for _ in range(60):
        size, nvars = rng.randint(1, 6), rng.choice((2, 3))
        ideal = workloads.random_order_ideal(rng, size, nvars)
        socle = commalg.radical_and_socle(commalg.monomial_quotient(ideal)).socle
        assert len(oracles.maximal_monomials(ideal)) == len(socle), ideal
    for _ in range(40):
        dim = rng.randint(1, 6)
        algebra, desc, expect = workloads.local_algebra(rng, dim)
        report = commalg.radical_and_socle(algebra)
        assert report.is_local
        assert expect == (dim % 2 == 0 and len(report.socle) <= 2), desc


def test_conjugated_filiform_pairs_keep_theta():
    rng = random.Random(12)
    for n in range(3, 9):
        for _ in range(3):
            g = workloads.random_filiform_rows(rng, n)
            h, phi = workloads.conjugate_by_known(rng, g)
            assert all(h[i][i] == 1 and not any(h[i][i + 1:]) for i in range(n))
            assert all(isinstance(x, int) for row in h for x in row)
            spec_g, spec_h = classify.FiliformLatticeSpec(n, g), classify.FiliformLatticeSpec(n, h)
            assert classify.theta_invariant(spec_g) == classify.theta_invariant(spec_h)
            assert workloads.witness_problem(h, g, phi) is None


def _light_cycle(name, seed=3):
    """Cycle 0 without its slowest requests, keeping companion pairs together."""
    limit = {"symplectic-h1": 9, "filiform-isom": 6}.get(name, 99)
    workload = workloads.get(name, str(ROOT))
    return workload, [r for r in workload.cycle(seed, 0) if r.dim <= limit]


def test_traced_and_untraced_outputs_match():
    for name in run.WORKLOADS:
        workload, reqs = _light_cycle(name)
        plain = run.execute(workload, [reqs], in_process=True)
        _, reqs = _light_cycle(name)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.execute(workload, [reqs], tracer=tracer, in_process=True)
        finally:
            tracer.uninstall()
        assert [workload.canon(r) for r in plain] == [workload.canon(r) for r in traced], name
        assert _failures(workload, traced) == {}, name
        assert sum(calls for calls, _ in tracer.stats.values()) > 0, name
    from nillat import cocycles, heisenberg, matrix

    assert not hasattr(matrix.Matrix.__init__, "__wrapped__")
    assert heisenberg.cocycle_space is cocycles.cocycle_space
    assert not hasattr(cocycles.cocycle_space, "__wrapped__")


def test_checkers_reject_wrong_outputs():
    workload, reqs = _light_cycle("filiform-isom")
    records = run.execute(workload, [reqs])
    yes = next(r for r in records if r.req.kind == "yes")
    ans, witness = yes.result
    yes.result = (ans, [[-x for x in row] if i == 0 else row for i, row in enumerate(witness)])
    assert yes.req.rid in _failures(workload, records)

    workload, reqs = _light_cycle("symplectic-h1")
    records = run.execute(workload, [reqs])
    decide = next(r for r in records if r.req.kind == "decide")
    decision, answer = decide.result
    decision.symplectic = not decision.symplectic
    assert decide.req.rid in _failures(workload, records)


def test_result_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, _, info = run.run_workload("exact-decisions", 5, 0.25, True)
    assert result["correct"] and result["attempted"] == info["samples"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert info["bypass_sanity"] == []

    cycles = [[0.001 * (i + 1) for i in range(10)], [0.002 * (i + 1) for i in range(10)]]
    metrics, above = run.end_to_end(cycles, [0.001] * 20, [0.1, 0.2, 0.3], 10.0)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert abs(metrics["latency_p50_ms"][0] - (5.5 + 11.0) / 2) < 1e-9      # per-cycle medians, averaged
    assert above == 2
