import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipart import spectral
from bipart.graphs import GnpSpec, Graph, _strip, sample_gnp
from bipart.spectral import (
    InertiaSignature,
    graham_pollak_lower_bound,
    inertia,
    inertia_from_rows,
)

from conftest import gnp_graphs
from oracles import gp_bound_reference


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestInertia:
    def test_triangle(self):
        sig = inertia(Graph.complete(3))
        assert (sig.n_plus, sig.n_zero, sig.n_minus) == (1, 0, 2)

    def test_edgeless(self):
        sig = inertia(Graph.empty(4))
        assert (sig.n_plus, sig.n_zero, sig.n_minus) == (0, 4, 0)

    def test_single_edge(self):
        sig = inertia(Graph.complete(2))
        assert (sig.n_plus, sig.n_zero, sig.n_minus) == (1, 0, 1)

    def test_empty_graph(self):
        sig = inertia(Graph.empty(0))
        assert (sig.n_plus, sig.n_zero, sig.n_minus) == (0, 0, 0)

    def test_bad_tolerance(self):
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                inertia(Graph.complete(3), tol=tol)

    def test_ambiguous_flag(self):
        # K3 spectrum is {2, -1, -1}: with tol = 0.6 the magnitude 1 lands in
        # (tol, 2*tol] and flips under a doubled tolerance.
        assert inertia(Graph.complete(3), tol=0.6).ambiguous
        assert not inertia(Graph.complete(3), tol=0.3).ambiguous
        sig = inertia(Graph.complete(3), tol=1.5)
        assert (sig.n_plus, sig.n_zero, sig.n_minus) == (1, 2, 0)
        assert sig.ambiguous  # 2 sits in (1.5, 3.0]

    def test_counts_are_nonnegative(self):
        with pytest.raises(ValueError):
            InertiaSignature(-1, 0, 0, 1e-8)

    @given(gnp_graphs(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_sum_rule(self, g):
        sig = inertia(g)
        assert sig.n_plus + sig.n_zero + sig.n_minus == g.n

    @given(gnp_graphs(min_n=1, max_n=9), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_invariance(self, g, seed):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        assert inertia(relabel(g, perm)) == inertia(g)

    def test_bipartite_spectrum_symmetry(self):
        # Random bipartite instances: keep only cross edges of a G(n, p) draw.
        for s in range(20):
            g = sample_gnp(GnpSpec(10, 0.5, 60_000 + s))
            left = set(range(5))
            cross = [(u, v) for u, v in g.edges() if (u in left) != (v in left)]
            b = Graph.from_edges(10, cross)
            sig = inertia(b)
            assert sig.n_plus == sig.n_minus, s


class TestGrahamPollakBound:
    def test_complete_graph(self):
        assert graham_pollak_lower_bound(Graph.complete(5)) == 4

    def test_k23(self):
        assert graham_pollak_lower_bound(Graph.complete_bipartite(2, 3)) == 1

    def test_c5(self):
        assert graham_pollak_lower_bound(Graph.cycle(5)) == 3

    def test_empty(self):
        assert graham_pollak_lower_bound(Graph.empty(3)) == 0


@st.composite
def symmetric_rows(draw):
    """Random adjacency rows on 0-16 vertices, half of them with a biclique's
    cross edges stripped, as the exact partition search sees them."""
    n = draw(st.integers(0, 16))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if n and draw(st.booleans()):
        side = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n))
        a_mask = sum(1 << v for v in range(n) if side[v] == 1)
        b_mask = sum(1 << v for v in range(n) if side[v] == 2)
        rows = list(_strip(rows, a_mask, b_mask))
    return rows, n


class TestGpBound:
    @given(symmetric_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_inertia_from_rows(self, case):
        rows, n = case
        sig = inertia_from_rows(rows, n)
        assert gp_bound_reference(rows, n) == max(sig.n_plus, sig.n_minus)

    def test_solver_failure_is_arithmetic_error(self, monkeypatch):
        def fail(_matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spectral, "_SLICE_MIN", 32)
        small, large = Graph.complete(4), sample_gnp(GnpSpec(48, 0.5, 3))
        assert bound_and_path(monkeypatch, large) == (gp_bound_reference(large.adj, 48), "eigh+schur")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        for g in (small, large):
            for compute in (lambda: graham_pollak_lower_bound(g), lambda: inertia_from_rows(g.adj, g.n)):
                with pytest.raises(ArithmeticError, match="failed to converge"):
                    compute()

    @pytest.mark.parametrize("failing", ["eigh", "eigvalsh"])
    def test_slice_solver_failure_falls_back(self, monkeypatch, failing):
        # A half-size solve that fails to converge hands the graph to the full one.
        real = getattr(np.linalg, failing)

        def fail_on_half(matrix):
            if matrix.shape[-1] == 24:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(matrix)

        monkeypatch.setattr(spectral, "_SLICE_MIN", 32)
        monkeypatch.setattr(np.linalg, failing, fail_on_half)
        g = sample_gnp(GnpSpec(48, 0.5, 3))
        path = "eigh+full" if failing == "eigh" else "eigh+schur+full"
        assert bound_and_path(monkeypatch, g) == (gp_bound_reference(g.adj, 48), path)


def bound_and_solves(monkeypatch, g: Graph) -> tuple[int, list[str]]:
    """graham_pollak_lower_bound(g), and each solve it ran, in order: "eigh"
    (the leading block), "schur" (a Schur complement) and "full" (the whole
    matrix)."""
    solves = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def spy_eigh(matrix):
        solves.append("eigh")
        return eigh(matrix)

    def spy_eigvalsh(matrices):
        solves.append("full" if matrices.shape[-1] == g.n else "schur")
        return eigvalsh(matrices)

    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
    bound = graham_pollak_lower_bound(g)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return bound, solves


def bound_and_path(monkeypatch, g: Graph) -> tuple[int, str]:
    """graham_pollak_lower_bound(g), and the kinds of solve it ran, in order
    of first use and joined by "+"."""
    bound, solves = bound_and_solves(monkeypatch, g)
    return bound, "+".join(dict.fromkeys(solves))


def with_edges_of(g: Graph, v: int, like: int | None) -> Graph:
    """g with vertex v isolated, or, given ``like``, made a non-adjacent twin of it."""
    edges = [(a, b) for a, b in g.edges() if v not in (a, b)]
    if like is not None:
        edges += [(v, x) for x in range(g.n) if g.adj[like] >> x & 1 and x != v]
    return Graph.from_edges(g.n, edges)


class TestSlicedBound:
    """The spectrum-sliced bound of graphs at or above ``_SLICE_MIN`` vertices,
    against the oracle's whole-matrix ``eigvalsh``, and the path it took."""

    def test_seeded_sweep_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(spectral, "_SLICE_MIN", 32)
        paths = []
        for i, (n, p) in enumerate((n, p) for n in (32, 57, 96, 151, 260)
                                   for p in (0.03, 0.1, 0.5, 0.9, 0.97)):
            g = sample_gnp(GnpSpec(n, p, 70_000 + i))
            bound, path = bound_and_path(monkeypatch, g)
            assert bound == gp_bound_reference(g.adj, n), (n, p)
            paths.append(path)
        # Sparse draws have a zero row in the leading block, caught before the
        # eigh, and dense ones twins there, a singular A11 caught after it; the
        # rest slice.
        assert paths.count("eigh+schur") >= 10 and paths.count("full") >= 5
        assert paths.count("eigh+full") >= 3

    def test_default_constant(self, monkeypatch):
        # The bulk of a dense spectrum sits at -p: A11 has more negative
        # eigenvalues, and the negative count alone reaches n/2.
        g = sample_gnp(GnpSpec(spectral._SLICE_MIN, 0.3, 5))
        bound, solves = bound_and_solves(monkeypatch, g)
        assert (bound, solves) == (gp_bound_reference(g.adj, g.n), ["eigh", "schur"])
        assert 2 * bound >= g.n

    @pytest.mark.parametrize("n, p, seed", [(200, 0.5, 3), (260, 0.5, 4), (151, 0.9, 5)])
    def test_dense_graph_runs_one_schur_solve(self, monkeypatch, n, p, seed):
        monkeypatch.setattr(spectral, "_SLICE_MIN", 32)
        g = sample_gnp(GnpSpec(n, p, seed))
        bound, solves = bound_and_solves(monkeypatch, g)
        assert (bound, solves) == (gp_bound_reference(g.adj, n), ["eigh", "schur"])

    @pytest.mark.parametrize("isolated, n_minus, schur_solves", [(3, 24, 1), (5, 23, 2), (8, 21, 2)])
    def test_second_schur_solve_only_below_half(self, monkeypatch, isolated, n_minus, schur_solves):
        # G(48, 1/2) with its last vertices isolated: n+ < n- throughout, and
        # A11 (13 negative eigenvalues of 24) predicts the minus sign.  At
        # n- = 24 = n/2 the plus count cannot exceed it; below, it might.
        monkeypatch.setattr(spectral, "_SLICE_MIN", 32)
        g = sample_gnp(GnpSpec(48, 0.5, 9))
        g = Graph.from_edges(48, [(a, b) for a, b in g.edges() if max(a, b) < 48 - isolated])
        sig = inertia(g)
        assert sig.n_plus < sig.n_minus == n_minus
        bound, solves = bound_and_solves(monkeypatch, g)
        assert bound == n_minus == gp_bound_reference(g.adj, 48)
        assert solves == ["eigh"] + ["schur"] * schur_solves

    @pytest.mark.parametrize("g, path", [
        (Graph.complete_bipartite(20, 20), "full"),
        (Graph.complete_bipartite(13, 27), "eigh+full"),
        (Graph.complete(40), "eigh+schur"),
        (Graph.empty(40), "full"),
        (with_edges_of(sample_gnp(GnpSpec(48, 0.5, 9)), 0, None), "full"),
        (with_edges_of(sample_gnp(GnpSpec(48, 0.5, 9)), 47, None), "eigh+schur"),
        (with_edges_of(sample_gnp(GnpSpec(48, 0.5, 9)), 47, 46), "eigh+schur"),
        (with_edges_of(sample_gnp(GnpSpec(48, 0.5, 9)), 3, 5), "eigh+full"),
    ], ids=["K20,20", "K13,27", "K40", "empty", "isolated-leading", "isolated-trailing",
            "twins-trailing", "twins-leading"])
    def test_structured_graphs(self, monkeypatch, g, path):
        # A zero eigenvalue of the trailing block's vertices (an isolated or twin
        # vertex there) is one of S(sigma)'s, exactly -sigma; in the leading block
        # it makes A11 singular, which falls back before any product, and before
        # the eigh when A11 has a zero row.
        monkeypatch.setattr(spectral, "_SLICE_MIN", 32)
        bound, taken = bound_and_path(monkeypatch, g)
        assert (bound, taken) == (gp_bound_reference(g.adj, g.n), path)

    def test_eigenvalue_near_a_shift_falls_back(self, monkeypatch):
        # With the tolerance far below rounding, the trailing twins' zero
        # eigenvalue lies within rounding of both shifts, and so does one of
        # S(sigma)'s: the guard hands the graph to the whole-matrix solve.
        monkeypatch.setattr(spectral, "_SLICE_MIN", 32)
        monkeypatch.setattr(spectral, "default_tolerance", lambda n: 1e-30)
        g = with_edges_of(sample_gnp(GnpSpec(48, 0.5, 9)), 47, 46)
        sig = inertia(g, tol=1e-30)
        assert bound_and_path(monkeypatch, g) == (max(sig.n_plus, sig.n_minus), "eigh+schur+full")
