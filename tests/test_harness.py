import json
import threading
import time

import pytest

from bipart import harness, partition, spectral
from bipart.graphs import GnpSpec, Graph, independent_set_greedy, sample_gnp
from bipart.harness import (
    ExperimentConfig,
    derive_seed,
    emit_report,
    run_biclique_side_check,
    run_bounds_experiment,
    run_coverage_soundness,
    run_density_check,
    run_experiment,
)


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(kind="density", n=32, p=0.4, trials=2, seed=9)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"kind": "bounds", "n": 4, "bogus": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="bounds", n=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(p=0.0)

    def test_regime_flag(self):
        assert ExperimentConfig(p=0.5).in_regime
        assert not ExperimentConfig(p=0.7).in_regime


class TestSubSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(100)]
        assert seeds == [derive_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2**64 for s in seeds)


class TestBoundsExperiment:
    def test_small_run_has_zero_violations(self):
        cfg = ExperimentConfig(kind="bounds", n=8, p=0.5, trials=100, seed=42)
        report = run_bounds_experiment(cfg)
        assert report.violations == 0
        assert len(report.records) == 100
        assert report.aggregates["exact_trials"] == 100
        for rec in report.records:
            assert rec.gp_bound <= rec.tau_exact <= rec.tau_upper
            assert rec.alon_upper is None or rec.tau_exact <= rec.alon_upper

    def test_empty_configs_give_empty_reports(self):
        for cfg in (
            ExperimentConfig(kind="bounds", n=0, p=0.5, trials=0, seed=1),
            ExperimentConfig(kind="bounds", n=0, p=0.5, trials=3, seed=1),
        ):
            report = run_bounds_experiment(cfg)
            assert report.violations == 0
            assert len(report.records) == cfg.trials

    def test_large_n_uses_search_not_exact(self):
        cfg = ExperimentConfig(
            kind="bounds", n=80, p=0.5, trials=2, seed=7, search_rounds=1
        )
        report = run_bounds_experiment(cfg)
        assert report.violations == 0
        for rec in report.records:
            assert rec.alpha_exact is False
            assert rec.tau_exact is None  # beyond the exact-tau regime


class TestBoundsWorker:
    """The GP bound runs on one worker thread per bounds run, beside the alpha step."""

    def _raises_same(self, cfg, boom):
        before = threading.active_count()
        with pytest.raises(type(boom)) as caught:
            run_bounds_experiment(cfg)
        assert caught.value is boom
        assert threading.active_count() == before

    def test_search_failure_reraised_and_worker_joined(self, monkeypatch):
        boom = RuntimeError("search failed")

        def failing_search(*args, **kwargs):
            raise boom

        monkeypatch.setattr(harness, "independent_set_search", failing_search)
        self._raises_same(ExperimentConfig(kind="bounds", n=80, p=0.5, trials=2, seed=7), boom)

    def test_eigen_failure_reraised_and_worker_joined(self, monkeypatch):
        boom = ArithmeticError("eigenvalue computation failed to converge")

        def failing_eigenvalues(matrices):
            raise boom

        monkeypatch.setattr(spectral, "_eigenvalues", failing_eigenvalues)
        self._raises_same(
            ExperimentConfig(kind="bounds", n=80, p=0.5, trials=2, seed=7, search_rounds=1), boom
        )

    def test_one_worker_per_run(self, monkeypatch):
        cfg = ExperimentConfig(kind="bounds", n=80, p=0.5, trials=3, seed=7, search_rounds=1)
        assert cfg.n > cfg.alpha_exact_max_n
        plain = emit_report(run_bounds_experiment(cfg), "json")
        threads = []

        def recording_bound(g):
            # Thread objects, not idents: an exited thread's ident can be reused.
            threads.append(threading.current_thread())
            return spectral.graham_pollak_lower_bound(g)

        monkeypatch.setattr(harness, "graham_pollak_lower_bound", recording_bound)
        before = threading.active_count()
        report = run_bounds_experiment(cfg)
        assert threading.active_count() == before
        assert len(threads) == cfg.trials
        assert threading.current_thread() not in threads
        assert len(set(threads)) == 1
        assert not threads[0].is_alive()
        assert emit_report(report, "json") == plain


class TestDensityCheck:
    def test_needs_n_at_least_16(self):
        with pytest.raises(ValueError, match="n >= 16"):
            run_density_check(ExperimentConfig(kind="density", n=8, trials=1))

    def test_constants_stay_below_ceiling(self):
        cfg = ExperimentConfig(kind="density", n=64, p=0.5, trials=4, seed=5, density_subsets=25)
        report = run_density_check(cfg)
        assert report.violations == 0
        assert 0 < report.aggregates["max_constant"] < cfg.density_ceiling

    def test_degenerate_p_flagged_out_of_regime(self):
        cfg = ExperimentConfig(kind="density", n=20, p=1.0, trials=1, seed=2, density_subsets=10)
        report = run_density_check(cfg)
        assert report.aggregates["in_regime"] is False


class TestBicliqueSideCheck:
    def test_refused_at_p_one(self):
        report = run_biclique_side_check(
            ExperimentConfig(kind="biclique_side", n=10, p=1.0, trials=3, seed=1)
        )
        assert report.aggregates["refused"] and report.records == []

    def test_no_exceedance_small(self):
        cfg = ExperimentConfig(
            kind="biclique_side", n=50, p=0.5, trials=4, seed=3, biclique_budget=150
        )
        report = run_biclique_side_check(cfg)
        assert report.violations == 0
        assert report.aggregates["max_side"] >= 1


class TestTracedCallSites:
    """The traced benchmark wraps these calls by module attribute, so each
    caller must look the name up on its module at call time."""

    @staticmethod
    def _count(monkeypatch, owner, name: str) -> list:
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_normalize_validates_once(self, monkeypatch):
        calls = self._count(monkeypatch, partition, "validate_partition")
        g = sample_gnp(GnpSpec(30, 0.5, 4))
        partition.normalize_stars_first(g, partition.star_decomposition(g, independent_set_greedy(g, 4)))
        assert len(calls) == 1

    def test_density_check_calls_deviation_per_subset(self, monkeypatch):
        calls = self._count(monkeypatch, harness, "density_deviation")
        run_density_check(ExperimentConfig(kind="density", n=20, p=0.5, trials=3, seed=2, density_subsets=4))
        assert len(calls) == 3 * 4

    def test_side_check_calls_side_search_per_trial(self, monkeypatch):
        calls = self._count(monkeypatch, harness, "max_balanced_biclique_side")
        run_biclique_side_check(ExperimentConfig(kind="biclique_side", n=20, p=0.5, trials=3, seed=2))
        assert len(calls) == 3


class TestCoverageSoundness:
    def test_tiny_regime_enforced(self):
        with pytest.raises(ValueError, match="tiny"):
            run_coverage_soundness(ExperimentConfig(kind="coverage_soundness", n=9, trials=1))

    def test_no_counterexamples(self):
        cfg = ExperimentConfig(kind="coverage_soundness", n=6, p=0.5, trials=40, seed=13)
        report = run_coverage_soundness(cfg)
        assert report.violations == 0
        for rec in report.records:
            d = rec.detail
            assert d["certificate"] <= d["true_min_uncovered"]
            assert d["true_min_uncovered"] <= d["maximal_play_min_uncovered"]

    def test_degenerate_vertex_counts(self):
        for n in (0, 1, 2):
            cfg = ExperimentConfig(kind="coverage_soundness", n=n, p=0.5, trials=3, seed=1)
            report = run_coverage_soundness(cfg)
            assert report.violations == 0 and len(report.records) == 3


class TestTrialLoop:
    @pytest.mark.parametrize("config", [
        dict(kind="bounds", n=8, trials=2),
        dict(kind="density", n=20, trials=2),
        dict(kind="biclique_side", n=20, trials=2),
        dict(kind="coverage_soundness", n=5, trials=2),
    ], ids=lambda c: c["kind"])
    def test_elapsed_spans_sampling(self, monkeypatch, config):
        """``elapsed`` covers the sampling, not just the trial body; it never reaches the report."""
        cfg = ExperimentConfig(p=0.5, seed=4, **config)
        plain = emit_report(run_experiment(cfg), "json")

        def slow_sample(spec):
            time.sleep(0.02)
            return sample_gnp(spec)

        monkeypatch.setattr(harness, "sample_gnp", slow_sample)
        report = run_experiment(cfg)
        assert len(report.records) == cfg.trials
        assert all(rec.elapsed >= 0.02 for rec in report.records)
        assert emit_report(report, "json") == plain

    def test_runner_reports_its_own_kind(self):
        cfg = ExperimentConfig(kind="bounds", n=20, p=0.5, trials=1, seed=4)
        report = run_density_check(cfg)
        assert report.kind == "density"
        assert report.config["kind"] == "bounds"


class TestEmitReport:
    def test_json_structure_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(kind="bounds", n=10, p=0.5, trials=3, seed=99)
        text1 = emit_report(run_experiment(cfg), "json", tmp_path / "a.json")
        text2 = emit_report(run_experiment(cfg), "json", tmp_path / "b.json")
        assert text1 == text2
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        payload = json.loads(text1)
        assert list(payload) == ["kind", "version", "config", "violations", "aggregates", "records"]
        assert "elapsed" not in payload["records"][0]

    def test_csv_rows(self, tmp_path):
        cfg = ExperimentConfig(kind="density", n=32, p=0.5, trials=2, seed=4, density_subsets=10)
        text = emit_report(run_experiment(cfg), "csv")
        lines = text.strip().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(comments) == 5
        assert len(rows) == 1 + 2  # header + one row per trial

    def test_csv_quotes_nested_cells(self):
        import csv as csv_mod
        import io

        # coverage records carry dict-valued cells whose JSON contains commas
        cfg = ExperimentConfig(kind="coverage_soundness", n=6, p=0.5, trials=3, seed=13)
        text = emit_report(run_experiment(cfg), "csv")
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        parsed = list(csv_mod.reader(io.StringIO("\n".join(rows))))
        header, data = parsed[0], parsed[1:]
        assert len(data) == 3
        assert all(len(r) == len(header) for r in data)
        cell = data[0][header.index("detail")]
        assert "certificate" in json.loads(cell)

    def test_empty_report_is_valid_file(self, tmp_path):
        cfg = ExperimentConfig(kind="bounds", n=0, p=0.5, trials=0, seed=0)
        path = tmp_path / "empty.json"
        emit_report(run_experiment(cfg), "json", path)
        payload = json.loads(path.read_text())
        assert payload["records"] == []

    def test_unknown_format_rejected(self):
        cfg = ExperimentConfig(kind="bounds", n=0, p=0.5, trials=0, seed=0)
        with pytest.raises(ValueError, match="format"):
            emit_report(run_experiment(cfg), "xml")

    def test_write_failure_mentions_path(self, tmp_path):
        cfg = ExperimentConfig(kind="bounds", n=0, p=0.5, trials=0, seed=0)
        report = run_experiment(cfg)
        bad = tmp_path / "no" / "such" / "dir" / "x.json"
        with pytest.raises(OSError, match="cannot write report"):
            emit_report(report, "json", bad)
