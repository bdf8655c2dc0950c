"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criteria with wall-clock budgets assert them; the library is far inside
each limit on commodity hardware.
"""

import math
import time

from bipart.graphs import GnpSpec, Graph, sample_gnp
from bipart.harness import (
    ExperimentConfig,
    emit_report,
    run_bounds_experiment,
    run_biclique_side_check,
    run_coverage_soundness,
    run_density_check,
    run_experiment,
)
from bipart.coverage import CoverageFamily, max_coverage_exact, replay_trace
from bipart.partition import (
    EXACT,
    INFINITY,
    partition_number_exact,
    strong_partition_number_exact,
)

from oracles import tau_brute


def _pass(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_complete_graph_partition_numbers():
    t0 = time.perf_counter()
    for n in range(2, 9):
        res = partition_number_exact(Graph.complete(n))
        assert res.status == EXACT and res.value == n - 1, (n, res.value)
        assert res.witness is not None and res.witness.is_valid()
        assert len(res.witness.parts) == n - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(1, f"partition number of K_n is n-1 for n=2..8, witnesses valid ({elapsed:.2f}s)")


def test_criterion_2_sandwich_on_100_trials():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="bounds", n=9, p=0.5, trials=100, seed=42)
    report = run_bounds_experiment(cfg)
    assert report.violations == 0
    assert len(report.records) == 100
    for rec in report.records:
        assert rec.tau_status == EXACT and rec.tau_exact is not None
        assert rec.gp_bound <= rec.tau_exact <= rec.tau_upper
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _pass(2, f"lower bound <= exact <= 9 - alpha on 100 seeded trials, 0 violations ({elapsed:.2f}s)")


def test_criterion_3_star_free_fixtures():
    t0 = time.perf_counter()
    cases = [
        (Graph.complete(2), 0),
        (Graph.complete_bipartite(2, 2), 1),
        (Graph.complete(4), INFINITY),
        (Graph.complete_bipartite(1, 3), INFINITY),
    ]
    for g, expected in cases:
        res = strong_partition_number_exact(g)
        assert res.status == EXACT, "search must complete for certification"
        assert res.value == expected, (g.n, g.m, res.value, expected)
        if res.witness is not None:
            assert res.witness.is_valid()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(3, f"star-free values 0/1/inf/inf certified by completed searches ({elapsed:.2f}s)")


def test_criterion_4_oracle_equivalence_200_graphs():
    t0 = time.perf_counter()
    mismatches = 0
    for s in range(200):
        n = 2 + s % 5  # n in 2..6
        g = sample_gnp(GnpSpec(n, 0.5, 200_000 + s))
        pruned = partition_number_exact(g)
        assert pruned.status == EXACT
        if pruned.value != tau_brute(g):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    _pass(4, f"pruned solver equals pruning-free search on 200 graphs with n <= 6 ({elapsed:.2f}s)")


def test_criterion_5_coverage_soundness_200_trials():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="coverage_soundness", n=7, p=0.5, trials=200, seed=31)
    report = run_coverage_soundness(cfg)
    assert report.violations == 0, [r.detail for r in report.records if r.violations]
    assert report.aggregates["counterexamples"] == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _pass(5, f"0 certificate counterexamples in 200 tiny-regime trials ({elapsed:.2f}s)")


def test_criterion_6_worked_coverage_value():
    star = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    fam = CoverageFamily.of(range(5), [(0, 1), (1, 2), (2, 3)])
    value, trace = max_coverage_exact(star, range(5), fam)
    assert value == 4
    assert replay_trace(star, range(5), fam, trace) == 4
    _pass(6, "coverage maximum 4 on the shared-center star instance, trace replays")


def test_criterion_7_balanced_biclique_desk_check():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="biclique_side", n=1000, p=0.5, trials=10, seed=77)
    report = run_biclique_side_check(cfg)
    threshold = 2 * math.log2(1000)
    assert report.aggregates["threshold"] == threshold
    assert report.violations == 0
    assert report.aggregates["max_side"] <= threshold
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass(
        7,
        f"max balanced side {report.aggregates['max_side']} never above "
        f"{threshold:.2f} in 10 trials at n=1000 ({elapsed:.2f}s)",
    )


def test_criterion_8_density_desk_check():
    t0 = time.perf_counter()
    # 10 graphs x 50 subsets = 500 sampled subsets; 3.0 is the calibrated
    # (non-theoretical) ceiling.
    cfg = ExperimentConfig(kind="density", n=2000, p=0.5, trials=10, seed=55, density_subsets=50)
    report = run_density_check(cfg)
    assert report.violations == 0
    assert report.aggregates["max_constant"] < 3.0
    elapsed = time.perf_counter() - t0
    _pass(
        8,
        f"max density-deviation constant {report.aggregates['max_constant']:.4f} < 3.0 "
        f"over 500 subsets at n=2000 ({elapsed:.2f}s)",
    )


def test_criterion_9_alpha_band_desk_check():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="bounds", n=2000, p=0.5, trials=20, seed=2024)
    report = run_bounds_experiment(cfg)
    assert report.violations == 0
    # The per-trial Graham-Pollak bounds pin the n = 2000 eigen-solve's counts.
    assert [r.gp_bound for r in report.records] == [
        1013, 1014, 1015, 1014, 1013, 1014, 1014, 1013, 1013, 1014,
        1015, 1014, 1013, 1013, 1014, 1013, 1013, 1014, 1014, 1014,
    ]
    target = 2 * math.log2(2000)
    mean_alpha = report.aggregates["mean_alpha"]
    assert 0.7 * target <= mean_alpha <= 1.3 * target, (mean_alpha, target)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass(
        9,
        f"mean independent-set estimate {mean_alpha:.2f} within 30% of "
        f"{target:.2f} over 20 trials at n=2000 ({elapsed:.2f}s)",
    )


def test_criterion_10_report_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        cfg = ExperimentConfig(kind="bounds", n=24, p=0.5, trials=6, seed=9)
        report = run_experiment(cfg)
        json_path = tmp_path / f"{tag}.json"
        csv_path = tmp_path / f"{tag}.csv"
        emit_report(report, "json", json_path)
        emit_report(report, "csv", csv_path)
        outputs.append((json_path.read_bytes(), csv_path.read_bytes()))
    assert outputs[0] == outputs[1]
    _pass(10, "identical config reruns emit byte-identical JSON and CSV reports")
