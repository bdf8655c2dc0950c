import json

import pytest
from click.testing import CliRunner

from bipart import spectral
from bipart.cli import main
from bipart.graphs import GnpSpec, Graph, sample_gnp, write_edge_list


@pytest.fixture
def runner():
    return CliRunner()


def write_graph(path, g):
    write_edge_list(g, path)
    return str(path)


class TestGen:
    def test_writes_edge_list(self, runner, tmp_path):
        out = tmp_path / "g.txt"
        result = runner.invoke(main, ["gen", "--n", "6", "--p", "0.5", "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0
        header = out.read_text().splitlines()[0].split()
        assert header[0] == "6"

    def test_bad_p_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--n", "4", "--p", "2.0", "--out", str(tmp_path / "g")])
        assert result.exit_code == 2

    def test_same_seed_same_file(self, runner, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            runner.invoke(main, ["gen", "--n", "30", "--p", "0.5", "--seed", "11", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_dir_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "g.txt"
        result = runner.invoke(main, ["gen", "--n", "4", "--p", "0.5", "--out", str(out)])
        assert result.exit_code == 2
        assert "cannot write graph" in result.output and str(out) in result.output

    def test_graph_too_large_for_memory_is_usage_error(self, runner, tmp_path):
        # The 1.1 PiB packed matrix is refused at allocation, so nothing is sampled.
        out = tmp_path / "g.txt"
        result = runner.invoke(main, ["gen", "--n", "100000000", "--p", "0.5", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "n = 100000000 is too large" in result.output and not out.exists()


class TestBounds:
    def test_signature_json(self, runner, tmp_path):
        path = write_graph(tmp_path / "k5.txt", Graph.complete(5))
        result = runner.invoke(main, ["bounds", "--graph", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n_plus"] == 1 and payload["n_minus"] == 4
        assert payload["graham_pollak_lower_bound"] == 4

    def test_malformed_graph_is_usage_error(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0\n")
        result = runner.invoke(main, ["bounds", "--graph", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("g, expected", [
        (Graph.complete(5), {"n": 5, "m": 10, "n_plus": 1, "n_zero": 0, "n_minus": 4,
                             "tol": 5e-08, "ambiguous": False, "graham_pollak_lower_bound": 4}),
        (sample_gnp(GnpSpec(60, 0.5, 7)), {"n": 60, "m": 910, "n_plus": 28, "n_zero": 0,
                                           "n_minus": 32, "tol": 6e-07, "ambiguous": False,
                                           "graham_pollak_lower_bound": 32}),
    ], ids=["k5", "gnp60"])
    def test_one_eigen_solve_without_tol(self, runner, tmp_path, monkeypatch, g, expected):
        calls = []
        solve = spectral._eigenvalues
        monkeypatch.setattr(spectral, "_eigenvalues", lambda m: calls.append(m.shape[-1]) or solve(m))
        path = write_graph(tmp_path / "g.txt", g)
        result = runner.invoke(main, ["bounds", "--graph", path])
        assert result.exit_code == 0
        assert json.loads(result.output) == expected
        assert calls == [g.n]
        # A given tolerance classifies the signature; the bound keeps the default one.
        result = runner.invoke(main, ["bounds", "--graph", path, "--tol", str(expected["tol"])])
        assert json.loads(result.output) == expected
        assert calls == [g.n] * 3

    def test_signature_bound_matches_sliced_bound(self, runner, tmp_path):
        # Without --tol the bound is read from the full eigvalsh signature; with
        # it, from graham_pollak_lower_bound, which slices the spectrum here.
        g = sample_gnp(GnpSpec(spectral._SLICE_MIN, 0.5, 13))
        path = write_graph(tmp_path / "g.txt", g)
        bounds = []
        for extra in ([], ["--tol", "0.5"]):
            result = runner.invoke(main, ["bounds", "--graph", path, *extra])
            assert result.exit_code == 0
            bounds.append(json.loads(result.output)["graham_pollak_lower_bound"])
        assert bounds[0] == bounds[1] == spectral._sliced_gp_bound(g.packed, g.n)

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, runner, tmp_path, tol):
        path = write_graph(tmp_path / "k5.txt", Graph.complete(5))
        result = runner.invoke(main, ["bounds", "--graph", path, "--tol", tol])
        assert result.exit_code == 2
        assert "tolerance must be finite and positive" in result.output


class TestExact:
    def test_tau_on_k4(self, runner, tmp_path):
        path = write_graph(tmp_path / "k4.txt", Graph.complete(4))
        result = runner.invoke(main, ["exact", "--graph", path, "--mode", "tau"])
        payload = json.loads(result.output)
        assert payload["value"] == 3 and payload["status"] == "exact"
        assert len(payload["witness"]["parts"]) == 3

    def test_negative_budget_is_usage_error(self, runner, tmp_path):
        path = write_graph(tmp_path / "k4.txt", Graph.complete(4))
        result = runner.invoke(main, ["exact", "--graph", path, "--budget", "-5"])
        assert result.exit_code == 2

    def test_tauprime_infinity(self, runner, tmp_path):
        path = write_graph(tmp_path / "k4.txt", Graph.complete(4))
        result = runner.invoke(main, ["exact", "--graph", path, "--mode", "tauprime"])
        payload = json.loads(result.output)
        assert payload["value"] == "infinity" and payload["witness"] is None

    def test_tauprime_refusal_is_usage_error(self, runner, tmp_path):
        # K_{24,24} has C(24, 2)^2 = 76,176 4-cycles, above the star-free
        # search's cap, so it is refused before any search.
        path = write_graph(tmp_path / "k24.txt", Graph.complete_bipartite(24, 24))
        result = runner.invoke(main, ["exact", "--graph", path, "--mode", "tauprime"])
        assert result.exit_code == 2
        assert "refused for more than 65536 4-cycles (this graph has 76176)" in result.output
        assert "Traceback" not in result.output


class TestCoverage:
    @pytest.fixture
    def star_files(self, tmp_path):
        gpath = write_graph(
            tmp_path / "star.txt", Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        )
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"universe": [0, 1, 2, 3, 4], "sets": [[0, 1], [1, 2], [2, 3]]}))
        return gpath, str(fpath)

    def test_op_f_exact(self, runner, star_files):
        gpath, fpath = star_files
        result = runner.invoke(main, ["coverage", "--graph", gpath, "--family", fpath, "--op", "f"])
        payload = json.loads(result.output)
        assert payload["value"] == 4
        assert payload["trace"]["total"] == 4

    def test_op_g(self, runner, tmp_path):
        gpath = write_graph(tmp_path / "g.txt", Graph.from_edges(6, [(0, 1)]))
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"universe": list(range(6)), "sets": [[0, 2], [1, 3]]}))
        result = runner.invoke(main, ["coverage", "--graph", gpath, "--family", str(fpath), "--op", "g"])
        payload = json.loads(result.output)
        assert payload["value"] == 1

    def test_witness_then_h(self, runner, tmp_path):
        gpath = write_graph(tmp_path / "g.txt", Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"universe": list(range(6)), "sets": [[0, 1], [2, 3]]}))
        wit = runner.invoke(
            main,
            ["coverage", "--graph", gpath, "--family", str(fpath), "--op", "witness", "--base", "4.3"],
        )
        assert wit.exit_code == 0
        wpath = tmp_path / "wit.json"
        wpath.write_text(wit.output)
        result = runner.invoke(
            main,
            ["coverage", "--graph", gpath, "--family", str(fpath), "--op", "h",
             "--witness-file", str(wpath)],
        )
        payload = json.loads(result.output)
        assert payload["op"] == "h" and payload["value"] >= 0

    def test_witness_failure_exits_one(self, runner, tmp_path):
        gpath = write_graph(tmp_path / "g.txt", Graph.from_edges(3, [(0, 1)]))
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"universe": [0, 1, 2], "sets": [[0, 1, 2]]}))
        result = runner.invoke(
            main,
            ["coverage", "--graph", gpath, "--family", str(fpath), "--op", "witness", "--base", "3"],
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["failed"]

    @pytest.mark.parametrize("base", ["inf", "nan"])
    def test_witness_base_not_finite_is_usage_error(self, runner, tmp_path, base):
        gpath = write_graph(tmp_path / "g.txt", Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"universe": list(range(6)), "sets": [[0, 1], [2, 3]]}))
        result = runner.invoke(
            main,
            ["coverage", "--graph", gpath, "--family", str(fpath), "--op", "witness", "--base", base],
        )
        assert result.exit_code == 2
        assert "Error: logarithm base must be finite and exceed 1\n" in result.output
        assert "Traceback" not in result.output

    def test_family_without_sets_is_usage_error(self, runner, star_files, tmp_path):
        gpath, _ = star_files
        fpath = tmp_path / "nosets.json"
        fpath.write_text(json.dumps({"universe": [0, 1, 2, 3, 4]}))
        result = runner.invoke(main, ["coverage", "--graph", gpath, "--family", str(fpath), "--op", "f"])
        assert result.exit_code == 2 and "sets" in result.output

    def test_set_outside_universe_is_usage_error(self, runner, star_files, tmp_path):
        gpath, _ = star_files
        fpath = tmp_path / "outside.json"
        fpath.write_text(json.dumps({"universe": [0, 1, 2], "sets": [[0, 4]]}))
        result = runner.invoke(main, ["coverage", "--graph", gpath, "--family", str(fpath), "--op", "f"])
        assert result.exit_code == 2 and "leaves the universe" in result.output

    def test_witness_file_without_order_is_usage_error(self, runner, star_files, tmp_path):
        gpath, fpath = star_files
        wpath = tmp_path / "wit.json"
        wpath.write_text(json.dumps({"guards": {}}))
        result = runner.invoke(
            main,
            ["coverage", "--graph", gpath, "--family", fpath, "--op", "h", "--witness-file", str(wpath)],
        )
        assert result.exit_code == 2 and "order" in result.output

    @pytest.mark.parametrize("family, message", [
        ({"universe": [0, 1, 2, 3, 4], "sets": 5}, "family JSON"),
        ({"universe": 3, "sets": [[0, 1]]}, "family JSON"),
        ([[0, 1], [1, 2]], "JSON object"),
    ], ids=["sets-a-number", "universe-a-number", "not-an-object"])
    def test_wrong_typed_family_is_usage_error(self, runner, star_files, tmp_path, family, message):
        gpath, _ = star_files
        fpath = tmp_path / "typed.json"
        fpath.write_text(json.dumps(family))
        result = runner.invoke(main, ["coverage", "--graph", gpath, "--family", str(fpath), "--op", "f"])
        assert result.exit_code == 2 and message in result.output

    def test_wrong_typed_guard_is_usage_error(self, runner, star_files, tmp_path):
        gpath, fpath = star_files
        wpath = tmp_path / "wit.json"
        wpath.write_text(json.dumps({"order": [0, 1], "guards": {"2": 7}}))
        result = runner.invoke(
            main,
            ["coverage", "--graph", gpath, "--family", fpath, "--op", "h", "--witness-file", str(wpath)],
        )
        assert result.exit_code == 2 and "witness JSON" in result.output

    def test_op_h_needs_witness_file(self, runner, star_files):
        gpath, fpath = star_files
        result = runner.invoke(main, ["coverage", "--graph", gpath, "--family", fpath, "--op", "h"])
        assert result.exit_code == 2


class TestExperiment:
    def test_runs_and_writes_reports(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "bounds", "n": 8, "p": 0.5, "trials": 4, "seed": 42}))
        out = tmp_path / "rep"
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0
        assert (out / "bounds.json").exists() and (out / "bounds.csv").exists()
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["violations"] == 0

    def test_bad_config_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "bogus"}))
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "config",
        [{"kind": "density", "n": 8, "trials": 1},
         {"kind": "coverage_soundness", "n": 9, "trials": 1},
         {"kind": "coverage_soundness", "n": 5, "p": 1.0, "trials": 1},
         # 1 / p overflows to an infinite base, which certified nothing
         {"kind": "coverage_soundness", "n": 5, "p": 1e-320, "trials": 1},
         # regime_threshold overflows a float, or is inf, which is not valid JSON
         {"kind": "bounds", "n": 100, "trials": 1, "epsilon": 1000},
         {"kind": "bounds", "n": 100, "trials": 1, "c": 1e308},
         # 1 - p rounds to 1.0, so alpha_target divides by zero
         {"kind": "bounds", "n": 100, "trials": 1, "p": 1e-20}],
        ids=["density-n-below-16", "coverage-n-above-8", "coverage-base-one", "coverage-base-infinite",
             "bounds-threshold-overflow", "bounds-threshold-infinite", "bounds-target-p-tiny"],
    )
    def test_config_refused_by_runner_is_usage_error(self, runner, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize(
        "config",
        [{"kind": "density", "n": 40, "density_subsets": -3},
         {"kind": "density", "n": 40, "density_subsets": 0},
         {"kind": "bounds", "n": 80, "trials": 1, "search_rounds": -1},
         {"kind": "bounds", "n": 40, "trials": 1, "alpha_node_budget": -1},
         {"kind": "bounds", "n": 8, "trials": 1, "tau_node_budget": -1},
         {"kind": "biclique_side", "n": 20, "trials": 1, "biclique_budget": -1},
         {"kind": "coverage_soundness", "n": 6, "trials": 1, "coverage_max_sets": -1},
         # Zero is refused too: each of these used to degrade the result without a word.
         {"kind": "bounds", "n": 80, "trials": 1, "search_rounds": 0},
         {"kind": "bounds", "n": 40, "trials": 1, "alpha_node_budget": 0},
         {"kind": "bounds", "n": 8, "trials": 1, "tau_node_budget": 0},
         {"kind": "biclique_side", "n": 20, "trials": 1, "biclique_budget": 0},
         {"kind": "coverage_soundness", "n": 6, "trials": 1, "coverage_max_sets": 0}],
        ids=["density-subsets-negative", "density-subsets-zero", "search-rounds", "alpha-budget",
             "tau-budget", "biclique-budget", "coverage-max-sets", "search-rounds-zero",
             "alpha-budget-zero", "tau-budget-zero", "biclique-budget-zero", "coverage-max-sets-zero"],
    )
    def test_negative_count_or_budget_is_usage_error(self, runner, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "bad config" in result.output

    @pytest.mark.parametrize("kind", ["density", "bounds"])
    def test_graph_too_large_for_memory_is_usage_error(self, runner, tmp_path, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": kind, "n": 10**8, "trials": 1}))
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "bad config: n = 100000000 is too large" in result.output

    @pytest.mark.parametrize("where", ["out-under-a-file", "report-path-is-a-directory"])
    def test_unwritable_out_is_usage_error(self, runner, tmp_path, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "bounds", "n": 4, "trials": 1}))
        if where == "out-under-a-file":
            (tmp_path / "afile").write_text("")
            out = tmp_path / "afile" / "sub"
        else:
            out = tmp_path / "rep"
            (out / "bounds.json").mkdir(parents=True)
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "cannot write reports to" in result.output
        assert str(out) in result.output
        assert "Traceback" not in result.output

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "bounds", "n": 10, "p": 0.5, "trials": 3, "seed": 5}))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(out)])
            assert result.exit_code == 0
        assert (out1 / "bounds.json").read_bytes() == (out2 / "bounds.json").read_bytes()
        assert (out1 / "bounds.csv").read_bytes() == (out2 / "bounds.csv").read_bytes()
