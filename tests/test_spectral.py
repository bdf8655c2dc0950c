import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        g = Graph.complete(4)
        for compute in (lambda: graham_pollak_lower_bound(g), lambda: inertia_from_rows(g.adj, 4)):
            with pytest.raises(ArithmeticError, match="failed to converge"):
                compute()
