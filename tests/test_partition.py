import inspect
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipart import partition as partition_module
from bipart import spectral
from bipart.graphs import (
    GnpSpec,
    Graph,
    _common_mask,
    _strip,
    _submasks,
    independence_number_exact,
    independent_set_greedy,
    induced_subgraph,
    iter_bits,
    mask_of,
    sample_gnp,
)
from bipart.partition import (
    EXACT,
    INFINITY,
    LOWER_BOUND_ONLY,
    Biclique,
    BicliquePartition,
    is_induced_biclique,
    largest_induced_biclique,
    normalize_stars_first,
    partition_from_json,
    partition_number_exact,
    partition_to_json,
    star_decomposition,
    star_plus_biclique_decomposition,
    strong_partition_number_exact,
    validate_partition,
)
from bipart.spectral import graham_pollak_lower_bound

from conftest import gnp_graphs
from make_solver_results import differences, recorded_rows, solve_rows
from oracles import (
    beta_brute,
    fewest_four_cycles_reference,
    four_cycle_counts,
    gp_bound_reference,
    normalize_stars_first_reference,
    tau_brute,
    validate_partition_reference,
)


def count_bound_matrices(monkeypatch) -> list[int]:
    """Watch the search's bounds: the list gets the order of each matrix
    bounded, the root's through spectral._gp_bounds (the graphs here are
    below _SLICE_MIN) and each child's through _child_bounds, and every
    block is checked against the cap.  A child that a block hands on to the
    direct solve (spectral._gp_bounds) is listed once more."""
    calls: list[int] = []
    real_solve, real_block = spectral._gp_bounds, partition_module._child_bounds

    def solve(matrices):
        calls.extend([matrices.shape[-1]] * len(matrices))
        return real_solve(matrices)

    def block(rows, n, sides):
        assert 1 <= len(sides) <= partition_module._BOUND_BLOCK
        calls.extend([n] * len(sides))
        return real_block(rows, n, sides)

    monkeypatch.setattr(spectral, "_gp_bounds", solve)
    monkeypatch.setattr(partition_module, "_child_bounds", block)
    return calls


def random_sibling_block(seed: int):
    """Residual rows on 2-16 vertices, and a block's worth of bicliques of
    them, each listed as the search lists a child: a side a plus some of
    N(b), b side b plus some of the common neighbourhood.

    The rows are G(n, 0.6) after random strips, the same with isolated
    vertices or with twin rows (equal neighbourhoods), or a complete
    bipartite graph; the last three give singular parent matrices.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 16)
    kind = rng.choice(["gnp", "isolated", "twins", "complete-bipartite"])
    if kind == "complete-bipartite":
        left = mask_of(v for v in range(n) if rng.random() < 0.5)
        right = ((1 << n) - 1) & ~left
        rows = [right if (left >> v) & 1 else left for v in range(n)]
    else:
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for _ in range(rng.randrange(4)):
            side = [rng.randrange(3) for _ in range(n)]
            rows = list(_strip(rows, mask_of(v for v in range(n) if side[v] == 1),
                               mask_of(v for v in range(n) if side[v] == 2)))
        for _ in range(0 if kind == "gnp" else rng.randint(1, max(1, n // 3))):
            x, y = rng.sample(range(n), 2)
            for u in iter_bits(rows[y]):  # y loses its edges ...
                rows[u] &= ~(1 << y)
            rows[y] = 0
            if kind == "twins":  # ... and takes x's neighbours, which y is not
                rows[y] = rows[x]
                for u in iter_bits(rows[x]):
                    rows[u] |= 1 << y
    edges = [(u, v) for u in range(n) for v in iter_bits(rows[u]) if u < v]
    if not edges:
        rows[0] |= 2
        rows[1] |= 1
        edges = [(0, 1)]
    sides = []
    for _ in range(partition_module._BOUND_BLOCK):
        a, b = rng.choice(edges)
        a_mask = (1 << a) | mask_of(v for v in iter_bits(rows[b]) if rng.random() < 0.3)
        common = rows[a]
        for x in iter_bits(a_mask):
            common &= rows[x]
        b_mask = (1 << b) | mask_of(v for v in iter_bits(common) if rng.random() < 0.3)
        sides.append((a_mask, b_mask))
    return tuple(rows), n, sides


@st.composite
def sibling_blocks(draw):
    return random_sibling_block(draw(st.integers(0, 2**32 - 1)))


def children_by_subsets(node, parts, a, b, min_side):
    """The search's child listing before the a-side walk: every subset of
    N(b) - a as side A, each with its own common-neighbourhood scan."""
    rows = node[0]
    candidates = []
    for sub_a in _submasks(rows[b] & ~(1 << a)):
        a_mask = sub_a | (1 << a)
        if a_mask.bit_count() < min_side:
            continue
        pool_b = _common_mask(rows, rows[a], sub_a) & ~(1 << b)
        for sub_b in _submasks(pool_b):
            b_mask = sub_b | (1 << b)
            if b_mask.bit_count() < min_side:
                continue
            edges = a_mask.bit_count() * b_mask.bit_count()
            candidates.append((-edges, a_mask, b_mask, node, parts, None))
    candidates.sort(reverse=True)
    return candidates


def root_masks(table) -> tuple[int, int]:
    """The alive 4-cycles and residual edges of a cycle table's root: every
    4-cycle through some edge, and every edge."""
    edges, _, cycles = table
    alive = 0
    for mask in cycles:
        alive |= mask
    return alive, (1 << len(edges)) - 1


def table_counts(table, alive, resid) -> dict[tuple[int, int], int]:
    """Per residual edge (u, v) of a cycle table, its alive 4-cycles."""
    edges, _, cycles = table
    return {edges[e]: (alive & cycles[e]).bit_count() for e in iter_bits(resid)}


def random_part(rows, rng: random.Random) -> tuple[int, int]:
    """A random biclique of ``rows`` through a random edge ab: a plus some of
    N(b) as side A, b plus some of A's common neighbourhood as side B."""
    a = rng.choice([v for v, row in enumerate(rows) if row])
    b = rng.choice(list(iter_bits(rows[a])))
    a_mask = 1 << a | mask_of(v for v in iter_bits(rows[b] & ~(1 << a)) if rng.random() < 0.4)
    pool = _common_mask(rows, (1 << len(rows)) - 1, a_mask) & ~(1 << b)
    return a_mask, 1 << b | mask_of(v for v in iter_bits(pool) if rng.random() < 0.4)


def listing_edges(rows) -> list[tuple[int, int]]:
    """The first six edges (u, v) with deg(u) + deg(v) at most 14, so that
    each lists a few thousand children at most, each edge both ways round."""
    degree = [row.bit_count() for row in rows]
    edges = [(u, v) for u in range(len(rows)) for v in iter_bits(rows[u]) if degree[u] + degree[v] <= 14]
    return [pair for u, v in edges[:6] for pair in ((u, v), (v, u))]


def without_degree_one(rows) -> tuple[int, ...]:
    """``rows`` less the edge of each vertex of degree 1, repeated until no
    vertex has degree 1."""
    rows = list(rows)
    degrees = [row.bit_count() for row in rows]
    while 1 in degrees:
        v = degrees.index(1)
        u = rows[v].bit_length() - 1
        rows[u] &= ~(1 << v)
        rows[v] = 0
        degrees = [row.bit_count() for row in rows]
    return tuple(rows)


def random_scan_rows(seed: int) -> tuple[int, ...]:
    """Rows for the 4-cycle scan: G(n, p) on 3-10 vertices, p from .3 to .9,
    or a complete bipartite graph, whose edges all lie on as many 4-cycles;
    then, for two seeds in three, a pendant vertex (degree 1) or a triangle
    on an old vertex and two new ones, whose new edge lies on no 4-cycle
    while no vertex has degree 1."""
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    if rng.random() < 0.3:
        left = mask_of(range(rng.randint(1, n - 1)))
        right = ((1 << n) - 1) & ~left
        rows = [right if (left >> v) & 1 else left for v in range(n)]
    else:
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
    v = rng.randrange(n)
    extra = rng.choice(["none", "pendant", "triangle"])
    if extra == "pendant":
        rows[v] |= 1 << n
        rows.append(1 << v)
    elif extra == "triangle":
        rows[v] |= 3 << n
        rows += [(1 << v) | (2 << n), (1 << v) | (1 << n)]
    return tuple(rows)


def update_rank(rows, n, a_mask, b_mask) -> int:
    """rank W0 of a child in _update_bounds: the rank its side indicators add
    to the parent matrix, as the parent's range is orthogonal to its null space."""
    m = np.array([[(row >> v) & 1 for v in range(n)] for row in rows])
    sides = np.array([[(a_mask >> v) & 1, (b_mask >> v) & 1] for v in range(n)])
    return np.linalg.matrix_rank(np.hstack((m, sides))) - np.linalg.matrix_rank(m)


def parts(*pairs):
    return tuple(Biclique(mask_of(a), mask_of(b)) for a, b in pairs)


class TestBiclique:
    def test_sides_must_be_nonempty_and_disjoint(self):
        with pytest.raises(ValueError):
            Biclique(0, mask_of({1}))
        with pytest.raises(ValueError):
            Biclique(mask_of({1}), mask_of({1, 2}))

    def test_canonical_orientation(self):
        b = Biclique.of([3, 4], [0])
        assert b.a == mask_of({0}) and b.b == mask_of({3, 4})
        assert b.is_star

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Biclique.of([-1], [0, 1])
        with pytest.raises(ValueError):
            Biclique(-1, mask_of({0}))

    def test_edge_count(self):
        assert Biclique(mask_of({0, 1}), mask_of({2, 3, 4})).edge_count() == 6


class TestValidatePartition:
    def test_star_partition_of_k4_is_valid(self):
        g = Graph.complete(4)
        p = BicliquePartition(g, parts(({0}, {1, 2, 3}), ({1}, {2, 3}), ({2}, {3})))
        assert validate_partition(g, p) == []

    def test_uncovered_edge_reported(self):
        g = Graph.complete(3)
        p = BicliquePartition(g, parts(({0}, {1, 2})))
        assert validate_partition(g, p) == ["uncovered-edge: (1, 2)"]

    def test_c4_single_biclique(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        p = BicliquePartition(g, parts(({0, 2}, {1, 3})))
        assert validate_partition(g, p) == []

    def test_non_edge_and_duplicate_reported(self):
        g = Graph.from_edges(3, [(0, 1)])
        p = BicliquePartition(g, parts(({0}, {1, 2}), ({1}, {0})))
        issues = validate_partition(g, p)
        assert any(v.startswith("non-edge") for v in issues)
        assert any(v.startswith("duplicate-edge") for v in issues)


@st.composite
def mangled_partitions(draw):
    """Star partitions with parts dropped, copied and mixed with random
    bicliques, so every diagnostic kind appears: uncovered, duplicated,
    non-edge and out-of-range (vertices n and n + 1; a side mask has no bit
    for a negative vertex)."""
    g = draw(gnp_graphs(min_n=1, max_n=9))
    stars = star_decomposition(g, independent_set_greedy(g, draw(st.integers(0, 99)))).parts
    keep = draw(st.lists(st.booleans(), min_size=len(stars), max_size=len(stars)))
    out = [pt for pt, k in zip(stars, keep) if k]
    vertex = st.integers(0, g.n + 1)
    for _ in range(draw(st.integers(0, 4))):
        if out and draw(st.booleans()):
            extra = draw(st.sampled_from(out))
        else:
            a = draw(st.frozensets(vertex, min_size=1, max_size=3))
            b = draw(st.frozensets(vertex.filter(lambda v: v not in a), min_size=1, max_size=3))
            extra = Biclique(mask_of(a), mask_of(b))
        out.insert(draw(st.integers(0, len(out))), extra)
    return g, BicliquePartition(g, tuple(out))


@st.composite
def random_partitions(draw):
    """A valid partition mixing stars and larger bicliques, in drawn order.

    Peels the smallest uncovered edge and grows its sides by drawn vertices
    that keep every cross pair an uncovered edge.
    """
    g = draw(gnp_graphs(min_n=2, max_n=9))
    rows = list(g.adj)
    out = []
    for u in range(g.n):
        while rows[u]:
            a, b = 1 << u, rows[u] & -rows[u]
            for x in range(g.n):
                bit = 1 << x
                if (a | b) & bit:
                    continue
                if rows[x] & b == b and draw(st.booleans()):
                    a |= bit
                elif rows[x] & a == a and draw(st.booleans()):
                    b |= bit
            for x in iter_bits(a):
                rows[x] &= ~b
            for y in iter_bits(b):
                rows[y] &= ~a
            out.append(Biclique(a, b))
    return g, BicliquePartition(g, tuple(draw(st.permutations(out))))


@st.composite
def valid_partitions(draw):
    """Valid partitions from every constructor in the package: stars over a
    greedy independent set, their stars-first normal form, stars plus an
    induced biclique, exact witnesses (plain and star-free) and peeled
    partitions.  Each part may have its sides swapped, so the larger side is
    sometimes stored as ``a``."""
    kind = draw(st.sampled_from(["stars", "normalized", "induced", "exact", "strong", "peeled"]))
    if kind == "peeled":
        g, p = draw(random_partitions())
    else:
        g = draw(gnp_graphs(min_n=0, max_n=7 if kind in ("exact", "strong") else 12))
        p = star_decomposition(g, independent_set_greedy(g, draw(st.integers(0, 99))))
        if kind == "normalized":
            p = normalize_stars_first(g, p)
        elif kind == "induced" and g.m:
            p = star_plus_biclique_decomposition(g, largest_induced_biclique(g))
        elif kind == "exact":
            p = partition_number_exact(g).witness
        elif kind == "strong":
            p = strong_partition_number_exact(g).witness or p
    swap = draw(st.lists(st.booleans(), min_size=len(p), max_size=len(p)))
    return g, BicliquePartition(g, tuple(
        Biclique(part.b, part.a) if flip else part for part, flip in zip(p.parts, swap)
    ))


class TestValidateAgainstReference:
    @given(mangled_partitions())
    @settings(max_examples=300, deadline=None)
    def test_identical_diagnostics(self, case):
        g, p = case
        assert validate_partition(g, p) == validate_partition_reference(g, p)

    @given(valid_partitions())
    @settings(max_examples=300, deadline=None)
    def test_valid_partitions_pass(self, case):
        g, p = case
        assert validate_partition(g, p) == [] == validate_partition_reference(g, p)

    def test_count_balanced_invalid_partition(self):
        # Sigma |a||b| equals m on the path 0-1-2, but (0, 1) is held twice and (1, 2) never.
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        p = BicliquePartition(g, parts(({0}, {1}), ({0}, {1})))
        assert validate_partition(g, p) == validate_partition_reference(g, p) == [
            "duplicate-edge: (0, 1) in parts 0 and 1",
            "uncovered-edge: (1, 2)",
        ]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless_graph_with_empty_partition(self, n):
        g = Graph.empty(n)
        assert validate_partition(g, BicliquePartition(g, ())) == []
        stray = BicliquePartition(g, parts(({n}, {n + 1})))
        assert validate_partition(g, stray) == validate_partition_reference(g, stray)

    def test_valid_star_partition_n1000(self):
        g = sample_gnp(GnpSpec(1000, 0.5, 8))
        p = star_decomposition(g, independent_set_greedy(g, 8))
        assert validate_partition(g, p) == [] == validate_partition_reference(g, p)

    def test_rejected_only_in_last_partial_block(self):
        # Single-edge parts of G(130, .5), with the part of (128, 129) swapped for
        # a second copy of another edge at 129: every cross pair is an edge and
        # Σ|a||b| = m, and only rows 128 and 129 of the recorded pairs and their
        # transpose differ from E, inside the last, partial 64-column block.
        g = sample_gnp(GnpSpec(130, 0.5, 2))
        assert g.has_edge(128, 129)
        u = next(iter_bits(g.adj[129]))
        edges = [e if e != (128, 129) else (u, 129) for e in g.edges()]
        p = BicliquePartition(g, tuple(Biclique(1 << x, 1 << y) for x, y in edges))
        assert sum(part.edge_count() for part in p.parts) == g.m
        issues = validate_partition(g, p)
        assert issues and issues == validate_partition_reference(g, p)

    def test_large_star_partition(self):
        g = sample_gnp(GnpSpec(300, 0.5, 8))
        stars = star_decomposition(g, independent_set_greedy(g, 8)).parts
        p = BicliquePartition(g, stars[1:] + stars[:3])
        issues = validate_partition(g, p)
        assert issues and issues == validate_partition_reference(g, p)


class TestStarDecomposition:
    def test_k4_single_vertex_set(self):
        p = star_decomposition(Graph.complete(4), [3])
        assert len(p.parts) == 3 and p.is_valid()

    def test_c5(self):
        p = star_decomposition(Graph.cycle(5), [1, 3])
        assert len(p.parts) == 3 and p.is_valid()
        assert {min(iter_bits(pt.a)) for pt in p.parts} == {0, 2, 4}

    def test_edgeless(self):
        p = star_decomposition(Graph.empty(5), range(5))
        assert p.parts == ()

    def test_rejects_dependent_set(self):
        with pytest.raises(ValueError, match="independent"):
            star_decomposition(Graph.complete(3), [0, 1])

    def test_part_count_bound_on_random_instances(self):
        for s in range(60):
            g = sample_gnp(GnpSpec(12, 0.5, 70_000 + s))
            ind = independence_number_exact(g).witness
            p = star_decomposition(g, ind)
            assert p.is_valid()
            assert len(p.parts) <= g.n - len(ind)


class TestStarPlusBiclique:
    def test_whole_graph_biclique(self):
        g = Graph.complete_bipartite(2, 3)
        p = star_plus_biclique_decomposition(g, Biclique(mask_of({0, 1}), mask_of({2, 3, 4})))
        assert len(p.parts) == 1 and p.is_valid()

    def test_c4_plus_pendant(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
        p = star_plus_biclique_decomposition(g, Biclique(mask_of({0, 2}), mask_of({1, 3})))
        assert len(p.parts) == 2 and p.is_valid()

    def test_k4_single_edge_part(self):
        g = Graph.complete(4)
        ab = Biclique(mask_of({0}), mask_of({1}))
        p = star_plus_biclique_decomposition(g, ab)
        assert p.is_valid()
        assert len(p.parts) <= g.n - 2 + 1

    def test_rejects_non_induced(self):
        with pytest.raises(ValueError, match="induced"):
            star_plus_biclique_decomposition(
                Graph.complete(4), Biclique(mask_of({0, 1}), mask_of({2, 3}))
            )


class TestLargestInducedBiclique:
    def test_k33(self):
        b = largest_induced_biclique(Graph.complete_bipartite(3, 3))
        assert (b.a | b.b).bit_count() == 6

    def test_k4_only_single_edges(self):
        b = largest_induced_biclique(Graph.complete(4))
        assert (b.a | b.b).bit_count() == 2

    def test_c5_path(self):
        b = largest_induced_biclique(Graph.cycle(5))
        assert (b.a | b.b).bit_count() == 3

    def test_edgeless_has_none(self):
        assert largest_induced_biclique(Graph.empty(4)) is None

    def test_exact_refused_when_large(self):
        with pytest.raises(ValueError, match="refused"):
            largest_induced_biclique(Graph.empty(19))

    def test_matches_brute(self):
        for n in range(2, 11):
            for p in (0.3, 0.5, 0.7):
                for s in range(4):
                    g = sample_gnp(GnpSpec(n, p, 80_000 + 100 * n + 10 * s + int(10 * p)))
                    b = largest_induced_biclique(g)
                    got = 0 if b is None else (b.a | b.b).bit_count()
                    assert got == beta_brute(g), (n, p, s)
                    assert b is None or is_induced_biclique(g, b), (n, p, s)


def enumerate_partitions(g, max_parts):
    """All edge partitions into bicliques with at most max_parts parts."""
    from bipart.graphs import iter_bits

    out = []
    rows = list(g.adj)

    def submasks(mask):
        sub = mask
        while True:
            yield sub
            if sub == 0:
                return
            sub = (sub - 1) & mask

    def rec(current):
        edge = None
        for v in range(g.n):
            if rows[v]:
                edge = (v, (rows[v] & -rows[v]).bit_length() - 1)
                break
        if edge is None:
            out.append(BicliquePartition(g, tuple(current)))
            return
        if len(current) >= max_parts:
            return
        a, b = edge
        for sub_a in submasks(rows[b] & ~(1 << a)):
            a_mask = sub_a | (1 << a)
            cn = rows[a]
            for x in iter_bits(sub_a):
                cn &= rows[x]
            cn &= ~a_mask
            for sub_b in submasks(cn & ~(1 << b)):
                b_mask = sub_b | (1 << b)
                saved = [(v, rows[v]) for v in iter_bits(a_mask | b_mask)]
                for x in iter_bits(a_mask):
                    rows[x] &= ~b_mask
                for y in iter_bits(b_mask):
                    rows[y] &= ~a_mask
                current.append(Biclique(a_mask, b_mask))
                rec(current)
                current.pop()
                for v, row in saved:
                    rows[v] = row

    rec([])
    return out


class TestNormalizeStarsFirst:
    def assert_postconditions(self, g, before, after):
        assert after.is_valid()
        assert validate_partition_reference(g, after) == []
        assert len(after.parts) <= len(before.parts)
        stars_before = sum(1 for pt in before.parts if pt.is_star)
        stars_after = sum(1 for pt in after.parts if pt.is_star)
        assert stars_after >= stars_before
        seen_nonstar = False
        centers = 0
        for pt in after.parts:
            if pt.is_star:
                assert not seen_nonstar, "stars must come first"
                centers |= pt.a if pt.a.bit_count() == 1 else pt.b
            else:
                seen_nonstar = True
        for pt in after.parts:
            if not pt.is_star:
                assert not (pt.a | pt.b) & centers

    def test_already_normal_unchanged(self):
        g = Graph.complete(3)
        p = BicliquePartition(g, parts(({0}, {1, 2}), ({1}, {2})))
        assert normalize_stars_first(g, p).parts == p.parts

    def test_all_three_part_partitions_of_k4(self):
        g = Graph.complete(4)
        found = enumerate_partitions(g, 3)
        assert found  # K4 has three-part partitions
        for p in found:
            self.assert_postconditions(g, p, normalize_stars_first(g, p))

    def test_nonstar_touching_center_is_split(self):
        # Path 0-1, plus K_{2,2} on {1,2}x{3,4} sharing the star center 1.
        g = Graph.from_edges(5, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4)])
        p = BicliquePartition(
            g, parts(({1}, {0}), ({1, 2}, {3, 4}))
        )
        assert p.is_valid()
        q = normalize_stars_first(g, p)
        self.assert_postconditions(g, p, q)

    def test_random_solver_witnesses(self):
        for s in range(40):
            g = sample_gnp(GnpSpec(7, 0.5, 90_000 + s))
            res = partition_number_exact(g)
            if res.witness is None or not res.witness.parts:
                continue
            # Present parts worst-side-first to exercise reordering.
            reversed_parts = BicliquePartition(g, tuple(reversed(res.witness.parts)))
            q = normalize_stars_first(g, reversed_parts)
            self.assert_postconditions(g, reversed_parts, q)

    def test_invalid_input_rejected(self):
        g = Graph.complete(3)
        p = BicliquePartition(g, parts(({0}, {1}),))
        with pytest.raises(ValueError, match="invalid"):
            normalize_stars_first(g, p)

    @given(random_partitions())
    @settings(max_examples=150, deadline=None)
    def test_postconditions_on_random_partitions(self, case):
        g, p = case
        self.assert_postconditions(g, p, normalize_stars_first(g, p))

    @given(random_partitions())
    @settings(max_examples=300, deadline=None)
    def test_matches_restart_loop_reference(self, case):
        g, p = case
        got = [(pt.a, pt.b) for pt in normalize_stars_first(g, p).parts]
        assert got == normalize_stars_first_reference(g, p)


class TestPartitionNumber:
    def test_complete_graphs(self):
        for n in range(2, 9):
            res = partition_number_exact(Graph.complete(n))
            assert res.value == n - 1 and res.status == EXACT
            assert res.witness.is_valid() and len(res.witness.parts) == n - 1

    def test_k33_single_part(self):
        assert partition_number_exact(Graph.complete_bipartite(3, 3)).value == 1

    def test_c5(self):
        assert partition_number_exact(Graph.cycle(5)).value == 3

    def test_edgeless(self):
        res = partition_number_exact(Graph.empty(4))
        assert res.value == 0 and res.witness.parts == ()

    def test_budget_exhaustion(self):
        g = sample_gnp(GnpSpec(10, 0.5, 5))
        res = partition_number_exact(g, budget=1)
        assert res.status == LOWER_BOUND_ONLY
        assert res.lower_bound <= res.value  # incumbent upper bound still present
        assert res.witness is not None and res.witness.is_valid()

    def test_petersen_graph(self):
        # Girth 5, inertia (6, 0, 4), alpha 4: the spectral bound meets
        # n - alpha, pinning the value at 6 with no search at all.
        g = Graph.from_edges(10, [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        ])
        assert graham_pollak_lower_bound(g) == 6
        res = partition_number_exact(g)
        assert res.value == 6 and res.status == EXACT
        assert res.witness.is_valid()
        # No 4-cycles at girth 5, so no non-star biclique exists at all.
        strong = strong_partition_number_exact(g)
        assert strong.value == INFINITY and strong.status == EXACT

    def test_octahedron(self):
        # K_{2,2,2}: one K_{2,4} plus one K_{2,2} partition all 12 edges and
        # the spectral bound is 2.
        g = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3])
        res = partition_number_exact(g)
        assert res.value == 2 == tau_brute(g)
        assert res.witness.is_valid()

    def test_matches_bruteforce_small(self):
        for s in range(40):
            n = 3 + s % 4
            g = sample_gnp(GnpSpec(n, 0.5, 100_000 + s))
            assert partition_number_exact(g).value == tau_brute(g), s

    def test_sandwich_and_alon_bounds_100_seeds(self):
        for s in range(100):
            n = 4 + s % 7  # n in 4..10
            g = sample_gnp(GnpSpec(n, 0.5, 110_000 + s))
            res = partition_number_exact(g)
            assert res.status == EXACT
            alpha = independence_number_exact(g).value
            gp = graham_pollak_lower_bound(g)
            assert gp <= res.value <= n - alpha, (s, gp, res.value, n - alpha)
            beta_part = largest_induced_biclique(g)
            if beta_part is not None:
                beta = (beta_part.a | beta_part.b).bit_count()
                assert res.value <= n - beta + 1, s
            if res.witness is not None:
                assert res.witness.is_valid()

    @pytest.mark.parametrize("budget", [1, 1000])
    def test_root_children_get_no_bound_before_they_are_needed(self, monkeypatch, budget):
        # The root of K_{8,8} lists the 4^7 bicliques through its branching
        # edge.  The first child popped is the whole graph, one part, which
        # meets the root's bound, so the search returns there and no child of
        # the root ever needs its bound.
        calls = count_bound_matrices(monkeypatch)
        res = partition_number_exact(Graph.complete_bipartite(8, 8), budget=budget)
        if budget == 1:
            assert (res.value, res.status) == (8, LOWER_BOUND_ONLY)
        else:
            assert (res.value, res.status, res.nodes) == (1, EXACT, 2)
        assert calls == [16]

    @given(sibling_blocks(), st.sampled_from([1, 2, spectral._UPDATE_MIN, 17,
                                              partition_module._BOUND_BLOCK]))
    @settings(max_examples=120, deadline=None)
    def test_block_bounds_match_one_child_at_a_time(self, case, size):
        rows, n, sides = case
        sides = sides[:size]
        assert spectral._child_bounds(rows, n, sides) == [
            gp_bound_reference(_strip(rows, a, b), n) for a, b in sides
        ]

    def test_update_reads_children_of_every_rank(self):
        # _update_bounds reads n+- of the 2 x 2 part R by the rank of W0,
        # the children's side indicators on the parent's null space; a fixed
        # seeded set of blocks holds children of all three ranks.
        ranks = set()
        for seed in range(40):
            rows, n, sides = random_sibling_block(seed)
            ranks.update(update_rank(rows, n, a, b) for a, b in sides)
            assert spectral._child_bounds(rows, n, sides) == [
                gp_bound_reference(_strip(rows, a, b), n) for a, b in sides
            ]
        assert ranks == {0, 1, 2}

    @pytest.mark.parametrize("band", ["_CHILD_CLEAR", "_PARENT_CLEAR"])
    def test_update_falls_back_to_the_direct_solve(self, monkeypatch, band):
        # No quantity of these blocks falls in a band, so each band is
        # widened until many do: a widened child band leaves some children
        # of a block to the direct solve, a widened parent band whole blocks.
        monkeypatch.setattr(spectral, band, 0.5)
        real = spectral._gp_bounds
        left: list[int] = []
        monkeypatch.setattr(spectral, "_gp_bounds", lambda m: left.append(len(m)) or real(m))
        shares = set()
        for seed in range(40):
            rows, n, sides = random_sibling_block(seed)
            left.clear()
            assert spectral._child_bounds(rows, n, sides) == [
                gp_bound_reference(_strip(rows, a, b), n) for a, b in sides
            ]
            shares.add("none" if not left else "all" if left == [len(sides)] else "some")
        assert shares == ({"none", "some"} if band == "_CHILD_CLEAR" else {"none", "all"})

    @given(sibling_blocks(), st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_walk_lists_the_children_of_the_subset_loop(self, case, min_side):
        # The entries agree up to the bound, and the only bound a child is
        # born with is the star-free search's INFINITY for a dead child.
        rows, _, _ = case
        node = (rows, 0, 0)
        for a, b in listing_edges(rows):
            children = partition_module._children(node, (), a, b, min_side)
            assert [child[:5] for child in children] == [
                child[:5] for child in children_by_subsets(node, (), a, b, min_side)]
            marks = {child[5] for child in children}
            assert marks <= ({None} if min_side == 1 else {None, INFINITY})

    @pytest.mark.parametrize("solve, grid", [
        (partition_number_exact, [(12, 0.5, 140_000 + s) for s in range(6)]),
        (strong_partition_number_exact, [(n, p, s) for n in (9, 10, 11) for p in (0.3, 0.5, 0.7)
                                         for s in (1, 2)]),
    ])
    def test_known_bounds_prune_before_the_strip(self, monkeypatch, solve, grid):
        # A child whose bound is known on its stack entry, from a sibling
        # block (tau) or as a dead child's INFINITY (tau'), is pruned before
        # its part is stripped.  The root is never stripped, so a search that
        # stripped every popped child would strip nodes - 1 times per solve.
        strips = []
        real = partition_module._strip
        monkeypatch.setattr(partition_module, "_strip",
                            lambda rows, a, b: strips.append(a) or real(rows, a, b))
        results = [solve(sample_gnp(GnpSpec(n, p, seed)), budget=5000) for n, p, seed in grid]
        assert len(strips) < (sum(r.nodes for r in results) - len(results)) / 2

    def test_blocks_are_capped_and_solve_each_child_once(self, monkeypatch):
        blocks = []
        real = partition_module._child_bounds
        monkeypatch.setattr(partition_module, "_child_bounds",
                            lambda rows, n, sides: blocks.append(len(sides)) or real(rows, n, sides))
        nodes = 0
        for s in range(6):
            res = partition_number_exact(sample_gnp(GnpSpec(12, 0.5, 140_000 + s)))
            assert res.status == EXACT
            nodes += res.nodes
        # A sibling whose bound a block already holds is not bounded again,
        # so the children bounded number about the nodes, not a block per node.
        assert max(blocks) == partition_module._BOUND_BLOCK
        assert sum(blocks) < 2 * nodes

    def test_budget_zero_ends_exact_when_the_incumbent_meets_the_root_bound(self):
        # The star incumbent of K_{1,5} is one part, the root's bound, so the
        # search is exact before its budget is spent; it visits the root only,
        # as at any budget.
        for budget in (0, 1):
            res = partition_number_exact(Graph.complete_bipartite(1, 5), budget=budget)
            assert (res.value, res.status, res.lower_bound, res.nodes) == (1, EXACT, 1, 1)
        # Two stars against a bound of one: the budget runs out unproven.
        res = partition_number_exact(Graph.complete_bipartite(2, 2), budget=0)
        assert (res.value, res.status, res.lower_bound) == (2, LOWER_BOUND_ONLY, 1)


class TestStrongPartitionNumber:
    def test_tiny_graphs_are_zero_by_definition(self):
        assert strong_partition_number_exact(Graph.complete(2)).value == 0
        assert strong_partition_number_exact(Graph.empty(1)).value == 0

    def test_k22(self):
        res = strong_partition_number_exact(Graph.complete_bipartite(2, 2))
        assert res.value == 1 and res.status == EXACT
        assert res.witness.is_valid()

    def test_k4_infeasible(self):
        res = strong_partition_number_exact(Graph.complete(4))
        assert res.value == INFINITY and res.status == EXACT
        assert res.witness is None

    def test_star_infeasible(self):
        res = strong_partition_number_exact(Graph.complete_bipartite(1, 3))
        assert res.value == INFINITY and res.status == EXACT

    def test_edgeless_is_zero(self):
        assert strong_partition_number_exact(Graph.empty(5)).value == 0

    def test_budget_exhaustion_before_infeasibility_proof(self):
        res = strong_partition_number_exact(Graph.complete(4), budget=1)
        assert res.status == LOWER_BOUND_ONLY
        assert res.value == INFINITY and res.witness is None
        assert res.lower_bound >= 1  # at least the spectral bound survives

    def test_cube_graph_is_infeasible(self):
        # Q3: every biclique is at most a K_{2,2} (two vertices share at most
        # two neighbors), all 4-cycles are faces, and no three faces are
        # pairwise edge-disjoint, so no star-free partition of the 12 edges
        # exists.  The plain value is 4 (the inertia bound meets n - alpha).
        q3 = Graph.from_edges(8, [
            (0, 1), (1, 2), (2, 3), (3, 0),
            (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 5), (2, 6), (3, 7),
        ])
        strong = strong_partition_number_exact(q3)
        assert strong.value == INFINITY and strong.status == EXACT
        assert partition_number_exact(q3).value == 4

    def test_two_four_cycles_sharing_a_vertex(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                                 (0, 4), (4, 5), (5, 6), (6, 0)])
        res = strong_partition_number_exact(g)
        assert res.value == 2 and res.status == EXACT
        assert res.witness.is_valid()

    def test_matches_bruteforce_small(self):
        for n in range(3, 9):
            for p in (0.3, 0.5, 0.7, 0.9):
                # Few of these graphs have a star-free partition, so the
                # sparser cells take many seeds to meet finite values.  The
                # brute force takes 0.03 s per graph at n=7, p=0.9, and over
                # a second at n=8.
                for s in range(100 if p < 0.9 else 20 if n < 7 else 2):
                    g = sample_gnp(GnpSpec(n, p, 130_000 + s))
                    brute = tau_brute(g, min_side=2)
                    res = strong_partition_number_exact(g)
                    assert res.status == EXACT
                    assert res.value == (INFINITY if brute is None else brute), (n, p, s)

    @given(st.integers(0, 2**32 - 1).map(random_scan_rows))
    @settings(max_examples=150, deadline=None)
    def test_four_cycle_scan_matches_the_full_count(self, rows):
        table = partition_module._cycle_table(rows)
        assert partition_module._fewest_alive_cycles(table, *root_masks(table)) == (
            fewest_four_cycles_reference(rows))

    @given(st.integers(0, 2**32 - 1).map(random_scan_rows))
    @settings(max_examples=150, deadline=None)
    def test_cycle_table_counts_every_edge(self, rows):
        table = partition_module._cycle_table(rows)
        assert table_counts(table, *root_masks(table)) == four_cycle_counts(rows)
        assert partition_module._four_cycle_count(rows) == sum(table_counts(table, *root_masks(table)).values()) // 4

    @pytest.mark.parametrize("left, right", [(1, 4), (2, 2), (2, 5), (3, 3), (4, 6)])
    def test_cycle_table_of_complete_bipartite_rows(self, left, right):
        # Every edge of K_{s,t} lies on (s - 1)(t - 1) 4-cycles, and the
        # graph has C(s, 2) C(t, 2).
        rows = tuple(Graph.complete_bipartite(left, right).adj)
        table = partition_module._cycle_table(rows)
        counts = table_counts(table, *root_masks(table))
        assert counts == four_cycle_counts(rows)
        assert set(counts.values()) == {(left - 1) * (right - 1)}
        assert partition_module._four_cycle_count(rows) == math.comb(left, 2) * math.comb(right, 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_carried_masks_match_the_stripped_rows(self, seed):
        # Masks carried through a chain of strips read what the scan of the
        # stripped rows reads: per residual edge its 4-cycles, and the edge
        # of fewest.
        rng = random.Random(seed)
        rows = random_scan_rows(seed)
        table = partition_module._cycle_table(rows)
        alive, resid = root_masks(table)
        assert partition_module._four_cycle_count(rows) == alive.bit_count()
        while any(rows):
            a_mask, b_mask = random_part(rows, rng)
            rows = _strip(rows, a_mask, b_mask)
            alive, resid = partition_module._strip_cycles(table, alive, resid, a_mask, b_mask)
            assert table_counts(table, alive, resid) == four_cycle_counts(rows)
            if any(rows):
                assert partition_module._fewest_alive_cycles(table, alive, resid) == (
                    fewest_four_cycles_reference(rows))
        assert (alive, resid) == (0, 0)

    def test_four_cycle_cap_refuses_before_any_table(self, monkeypatch):
        # K_4 has three 4-cycles: refused above a cap of two, before any
        # table is built, and solved at a cap of three.
        def no_table(rows):
            raise AssertionError("a table was built")

        monkeypatch.setattr(partition_module, "_MAX_FOUR_CYCLES", 2)
        monkeypatch.setattr(partition_module, "_cycle_table", no_table)
        with pytest.raises(ValueError, match="refused for more than 2 4-cycles"):
            strong_partition_number_exact(Graph.complete(4))
        monkeypatch.undo()
        monkeypatch.setattr(partition_module, "_MAX_FOUR_CYCLES", 3)
        assert strong_partition_number_exact(Graph.complete(4)).value == INFINITY

    def test_scan_rows_hold_every_case_of_the_scan(self):
        # The scan's early exits: a vertex of degree 1, an edge on no
        # 4-cycle at a node with no vertex of degree 1, and an edge whose
        # count stops at a tie with the least count so far.
        cases = set()
        for seed in range(100):
            rows = random_scan_rows(seed)
            counts = four_cycle_counts(rows)
            if 1 in map(int.bit_count, rows):
                cases.add("degree 1")
            elif 0 in counts.values():
                cases.add("no 4-cycle")
            elif list(counts.values()).count(min(counts.values())) > 1:
                cases.add("tie")
        assert cases == {"degree 1", "no 4-cycle", "tie"}

    @given(sibling_blocks())
    @settings(max_examples=60, deadline=None)
    def test_dead_marks_have_a_vertex_of_degree_one(self, case):
        # A child born with the bound INFINITY has a vertex of degree 1 once
        # its part is stripped, so no star-free partition completes it.
        rows, _, _ = case
        for a, b in listing_edges(rows):
            for _, a_mask, b_mask, _, _, bound in partition_module._children((rows, 0, 0), (), a, b, 2):
                if bound is not None:
                    assert bound == INFINITY
                    assert 1 in map(int.bit_count, _strip(rows, a_mask, b_mask))

    def test_dead_marks_are_complete_without_a_vertex_of_degree_one(self):
        # The search lists children only at nodes with no vertex of degree 1;
        # there every child born with one is marked.
        marked = unmarked = 0
        for seed in range(40):
            rows = without_degree_one(random_sibling_block(seed)[0])
            for a, b in listing_edges(rows):
                for _, a_mask, b_mask, _, _, bound in partition_module._children((rows, 0, 0), (), a, b, 2):
                    dead = 1 in map(int.bit_count, _strip(rows, a_mask, b_mask))
                    assert bound == (INFINITY if dead else None)
                    marked += dead
                    unmarked += not dead
        assert marked and unmarked

    def test_dead_end_costs_no_eigen_solve(self, monkeypatch):
        # A 4-cycle and a triangle: a triangle edge lies on no 4-cycle, so
        # the root itself is dead and only the root's bound is computed.
        calls = count_bound_matrices(monkeypatch)
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
        res = strong_partition_number_exact(g)
        assert (res.value, res.status, res.nodes) == (INFINITY, EXACT, 1)
        assert calls == [7]

    def test_no_bound_before_a_partition_is_found(self, monkeypatch):
        # Without an incumbent no bound can prune, so a search that never
        # finds a partition solves the root's matrix only: the cube's full
        # infeasibility proof, and a budget-out of a random graph.
        calls = count_bound_matrices(monkeypatch)
        q3 = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                                  (0, 4), (1, 5), (2, 6), (3, 7)])
        res = strong_partition_number_exact(q3)
        assert (res.value, res.status) == (INFINITY, EXACT) and res.nodes > 1
        assert calls == [8]
        calls.clear()
        res = strong_partition_number_exact(sample_gnp(GnpSpec(12, 0.5, 1)), budget=200)
        assert (res.value, res.status, res.nodes) == (INFINITY, LOWER_BOUND_ONLY, 201)
        assert calls == [12]

    @pytest.mark.parametrize("side", [3, 4])
    def test_first_leaf_at_the_root_bound_ends_the_search(self, side):
        # The first child of K_{s,s} is the whole graph, and its one part
        # meets the inertia bound, so none of its siblings is popped.
        res = strong_partition_number_exact(Graph.complete_bipartite(side, side))
        assert (res.value, res.status, res.nodes) == (1, EXACT, 2)
        assert res.witness.is_valid()

    def test_at_least_plain_value_when_finite(self):
        fixtures = [
            Graph.complete_bipartite(2, 2),
            Graph.complete_bipartite(2, 3),
            Graph.complete_bipartite(3, 3),
        ]
        for s in range(30):
            fixtures.append(sample_gnp(GnpSpec(6, 0.5, 120_000 + s)))
        for g in fixtures:
            strong = strong_partition_number_exact(g)
            if strong.value == INFINITY:
                continue
            plain = partition_number_exact(g)
            assert strong.value >= plain.value
            if strong.witness is not None:
                assert strong.witness.is_valid()
                assert all(
                    pt.a.bit_count() >= 2 and pt.b.bit_count() >= 2 for pt in strong.witness.parts
                )


def test_search_depth_is_not_call_depth():
    # 60 disjoint 4-cycles: tau' is 60, one K_{2,2} per level of the search,
    # so a search that recursed once per part would need 60 nested calls.
    g = Graph.from_edges(240, [(4 * c + v, 4 * c + (v + 1) % 4) for c in range(60) for v in range(4)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        res = strong_partition_number_exact(g)
    finally:
        sys.setrecursionlimit(old)
    assert (res.value, res.status, res.nodes) == (60, EXACT, 61)
    assert res.witness.is_valid()


NODE_GRAPHS = [(n, p, seed) for n in (9, 10, 11) for p in (0.3, 0.5, 0.7) for seed in (1, 2, 3, 4)]


@pytest.mark.parametrize("solve, nodes, exact", [
    (partition_number_exact, 446, 36),
    (strong_partition_number_exact, 15252, 35),
])
def test_search_node_totals(solve, nodes, exact):
    # Node counts are deterministic, so they pin the search order and the
    # prunes on any machine.
    results = [solve(sample_gnp(GnpSpec(n, p, seed)), budget=5000) for n, p, seed in NODE_GRAPHS]
    assert sum(r.nodes for r in results) == nodes
    assert sum(r.status == EXACT for r in results) == exact


@pytest.mark.parametrize("solve", [partition_number_exact, strong_partition_number_exact])
@pytest.mark.parametrize("budget", [0, 1, 50, 5000])
def test_value_at_the_inertia_bound_is_exact(solve, budget):
    # No partition has fewer parts than the Graham-Pollak bound, so a result
    # that meets it is proven optimal, whatever budget was left.
    for n, p, seed in NODE_GRAPHS:
        g = sample_gnp(GnpSpec(n, p, seed))
        res = solve(g, budget=budget)
        if res.value == graham_pollak_lower_bound(g):
            assert (res.status, res.lower_bound) == (EXACT, res.value), (n, p, seed)


def test_solver_results_match_the_record():
    # 1,344 tau and tau' solves of seeded G(n, p) at four budgets, 54 at the
    # exact-small bench sizes and the exact-small workload's own 216, both at
    # budget 5,000, against tests/data/solver_results.json: results and node
    # counts are checked apart.  Run tests/make_solver_results.py to list the
    # differences.
    found = differences(recorded_rows(), solve_rows())
    assert not any(found.values()), {kind: lines[:10] for kind, lines in found.items() if lines}


class TestConstructionValidity:
    def test_500_random_instances(self):
        # Every construction validates, across 500 seeded G(n, p) draws with
        # n up to 30 and p in {0.2, 0.5}.  The induced biclique is the largest
        # one on vertices 0..17: induced_subgraph keeps those labels, and a
        # biclique induced in an induced subgraph is induced in g.
        for s in range(500):
            n = 5 + s % 26  # n in 5..30
            p = 0.2 if s % 2 else 0.5
            g = sample_gnp(GnpSpec(n, p, 300_000 + s))
            ind = independent_set_greedy(g, s)
            stars = star_decomposition(g, ind)
            assert stars.is_valid(), s
            assert len(stars.parts) <= n - len(ind), s
            ab = largest_induced_biclique(induced_subgraph(g, range(min(n, 18)))[0])
            if ab is None:
                continue
            combo = star_plus_biclique_decomposition(g, ab)
            assert combo.is_valid(), s
            assert len(combo.parts) <= n - (ab.a | ab.b).bit_count() + 1, s
            normalized = normalize_stars_first(g, combo)
            assert normalized.is_valid(), s
            assert len(normalized.parts) <= len(combo.parts), s


class TestPartitionJson:
    def test_round_trip(self):
        g = Graph.complete(4)
        p = star_decomposition(g, [3])
        data = partition_to_json(p)
        assert data["n"] == 4
        q = partition_from_json(data, g)
        assert q.parts == p.parts

    def test_wrong_host_rejected(self):
        g = Graph.complete(4)
        data = partition_to_json(star_decomposition(g, [3]))
        with pytest.raises(ValueError):
            partition_from_json(data, Graph.complete(5))

    def test_negative_vertex_rejected(self):
        g = Graph.complete(4)
        data = {"n": 4, "parts": [{"a": [-1], "b": [0, 1]}]}
        with pytest.raises(ValueError, match="nonnegative"):
            partition_from_json(data, g)

    @pytest.mark.parametrize(
        "parts",
        [
            [{"a": [True], "b": [0]}],
            [{"a": [0.5], "b": [1]}],
            [{"a": 0, "b": [1, 2]}],
            [{"a": [0]}],
            [[0, 1]],
            5,
        ],
        ids=["bool", "float", "number-side", "missing-side", "part-a-list", "parts-a-number"],
    )
    def test_wrong_typed_json_rejected(self, parts):
        with pytest.raises(ValueError, match="partition JSON needs"):
            partition_from_json({"n": 3, "parts": parts}, Graph.complete(3))
