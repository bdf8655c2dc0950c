"""Every exact routine on every graph with at most 7 vertices, up to isomorphism.

Seeded samples can miss the one graph a wrong prune or search order gets
wrong; the 1,252 classes on 1-7 vertices cannot.  For n <= 6 the solvers
are checked against the brute-force oracles at run time.  At n = 7 the
oracle takes minutes, so its tau and tau' are read from a file that
tests/make_small_graph_oracles.py wrote, pinned here by sha256.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bipart.graphs import independence_number_exact, max_balanced_biclique_side
from bipart.partition import (
    EXACT,
    INFINITY,
    largest_induced_biclique,
    partition_number_exact,
    strong_partition_number_exact,
)
from bipart.spectral import graham_pollak_lower_bound

from oracles import alpha_brute, balanced_side_brute, beta_brute, tau_brute
from small_graphs import graph_classes, graph_of

ORACLE_FILE = Path(__file__).parent / "data" / "graphs7_oracles.json"
ORACLE_SHA256 = "d387ecc46ce540ee668f79f4e628f2423499c27fecda5b334a0dbc5ce9cdbec3"


def test_class_counts():
    assert [len(graph_classes(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


def beta_of(g) -> int:
    part = largest_induced_biclique(g)
    return 0 if part is None else (part.a | part.b).bit_count()


def check_solvers(g, tau, tau_strong, alpha, beta):
    """Both solvers against the oracle values, their witnesses, and the
    sandwich GP <= tau <= min(n - alpha, n - beta + 1)."""
    plain = partition_number_exact(g)
    assert (plain.value, plain.status) == (tau, EXACT)
    assert plain.witness.is_valid() and len(plain.witness) == tau
    assert graham_pollak_lower_bound(g) <= tau <= g.n - alpha
    if g.m:
        assert tau <= g.n - beta + 1
    strong = strong_partition_number_exact(g)
    expected = 0 if g.n <= 2 else INFINITY if tau_strong is None else tau_strong
    assert (strong.value, strong.status) == (expected, EXACT)
    if strong.witness is None:
        assert strong.value in (0, INFINITY)
    else:
        assert strong.witness.is_valid() and len(strong.witness) == strong.value
        assert not any(part.is_star for part in strong.witness.parts)
        assert strong.value >= tau


@pytest.mark.parametrize("n", range(1, 7))
def test_against_brute_force(n):
    for code in graph_classes(n):
        g = graph_of(n, code)
        alpha, beta = alpha_brute(g), beta_brute(g)
        assert independence_number_exact(g).value == alpha, code
        assert beta_of(g) == beta, code
        assert max_balanced_biclique_side(g) == balanced_side_brute(g), code
        check_solvers(g, tau_brute(g), tau_brute(g, min_side=2), alpha, beta)


def test_against_recorded_oracle_n7():
    data = ORACLE_FILE.read_bytes()
    assert hashlib.sha256(data).hexdigest() == ORACLE_SHA256
    table = json.loads(data)
    assert table["n"] == 7
    assert [code for code, _, _ in table["graphs"]] == list(graph_classes(7))
    for code, tau, tau_strong in table["graphs"]:
        g = graph_of(7, code)
        check_solvers(g, tau, tau_strong, alpha_brute(g), beta_of(g))
