import math
import random
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bipart.graphs as graphs
from bipart.graphs import (
    GnpSpec,
    Graph,
    VertexSet,
    common_neighborhood,
    density_deviation,
    edge_count_within,
    independence_number_exact,
    independent_set_greedy,
    independent_set_search,
    induced_subgraph,
    mask_of,
    max_balanced_biclique_side,
    parse_edge_list,
    format_edge_list,
    sample_gnp,
)
from bipart.graphs import (
    _alpha_branch_and_bound,
    _beam_with_exact_finish,
    _exceeds,
    _mask_at,
    _packed,
    _pool_rows,
    _sample_range,
    _selector,
    _swap_polish,
    _transposed,
)

from conftest import gnp_graphs
from oracles import (
    alpha_brute,
    alpha_pool_brute,
    balanced_side_brute,
    balanced_side_heuristic_reference,
    beam_reference,
    edge_count_within_reference,
    gnp_rows_reference,
    graph_rows_reference,
    swap_polish_reference,
)


@st.composite
def mangled_rows(draw):
    """Rows of a random simple graph on 0..20 vertices, then up to 3 defects:
    a flipped bit (one-way edge either way, or a self-loop), a bit at or past
    n, a negative row, or a self-loop."""
    n = draw(st.integers(0, 20))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        v = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["flip", "beyond", "negative", "loop"]))
        if kind == "flip":
            rows[v] ^= 1 << draw(st.integers(0, n - 1))
        elif kind == "beyond":
            rows[v] |= 1 << draw(st.integers(n, n + 9))
        elif kind == "negative":
            rows[v] = -rows[v] - 1
        else:
            rows[v] |= 1 << v
    return n, tuple(rows)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestGraphBasics:
    def test_constructor_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    @pytest.mark.parametrize(
        "adj, pair", [((0, 0b1), "0 and 1"), ((0, 0, 0b1), "0 and 2")], ids=["n2", "n3"]
    )
    def test_constructor_rejects_edge_listed_only_by_larger_endpoint(self, adj, pair):
        with pytest.raises(ValueError, match=f"asymmetric adjacency between {pair}"):
            Graph(len(adj), adj)

    def test_constructor_rejects_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, (0b1,))

    @settings(max_examples=400, deadline=None)
    @given(mangled_rows())
    def test_constructor_matches_pairwise_reference(self, case):
        n, rows = case
        expected = _outcome(graph_rows_reference, n, rows)
        got = _outcome(lambda: Graph(n, rows).m)
        assert got == expected

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    @pytest.mark.parametrize("n", [63, 64, 65, 150])
    def test_constructor_matches_reference_across_blocks(self, n):
        # The symmetry check transposes 64 columns at a time; mangled_rows stays inside one block.
        rng = random.Random(n)
        rows = list(sample_gnp(GnpSpec(n, 0.5, n)).adj)
        for _ in range(12):
            v, u = rng.sample(range(n), 2)
            flipped = tuple(row ^ (1 << u) if w == v else row for w, row in enumerate(rows))
            assert _outcome(lambda: Graph(n, flipped).m) == _outcome(graph_rows_reference, n, flipped)

    def test_packed_rows_are_read_only_and_outside_equality(self):
        g, h = Graph.cycle(11), Graph.cycle(11)
        assert np.array_equal(g.packed, _packed(g.adj, g.n)) and g.packed.shape == (11, 2)
        with pytest.raises(ValueError, match="read-only"):
            g.packed[0, 0] = 1
        assert g.packed is not h.packed
        assert g == h and hash(g) == hash(h)  # an ndarray field would raise in both
        assert "packed" not in repr(g)
        assert Graph.empty(0).packed.shape == (0, 0)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 130])
    def test_transposed_matches_dense_transpose(self, n):
        rng = random.Random(n)
        rows = [rng.getrandbits(n) if n else 0 for _ in range(n)]  # not symmetric
        cols = [sum(((row >> y) & 1) << x for x, row in enumerate(rows)) for y in range(n)]
        got = _transposed(_packed(rows, n))
        assert got.shape == (n, (n + 7) // 8) and np.array_equal(got, _packed(cols, n))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65, 130])
    def test_mask_at_inverts_selector(self, n):
        rng = random.Random(n)
        positions = rng.sample(range(n), rng.randint(0, n))
        mask = _mask_at(positions, n)
        assert mask == mask_of(positions)
        assert np.flatnonzero(_selector(mask, n)).tolist() == sorted(positions)

    def test_edge_count(self):
        assert Graph.complete(5).m == 10
        assert Graph.complete_bipartite(2, 3).m == 6
        assert Graph.cycle(7).m == 7
        assert Graph.empty(4).m == 0

    def test_edges_lexicographic(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1), (0, 3)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]


class TestSampleGnp:
    def test_p_one_gives_complete_graph(self):
        g = sample_gnp(GnpSpec(5, 1.0, 12345))
        assert g.m == 10

    def test_degenerate_p_gives_nearly_empty_graph(self):
        g = sample_gnp(GnpSpec(5, 1e-9, 1))
        assert g.m <= 1

    def test_edge_count_concentration_n2000(self):
        # Chernoff-style bound: |m - p*C(n,2)| <= 5*sqrt(C(n,2)) covers
        # 10 standard deviations at p = 1/2.
        g = sample_gnp(GnpSpec(2000, 0.5, 7))
        pairs = 2000 * 1999 // 2
        assert abs(g.m - 0.5 * pairs) <= 5 * math.sqrt(pairs)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            GnpSpec(5, 0.0, 1)
        with pytest.raises(ValueError):
            GnpSpec(5, 1.5, 1)

    # n crosses the sampler's 64-row block edges.  The examples are one- and
    # two-word seeds: numpy seeds a one-word seed by CPython's key schedule
    # only when it is passed as a list.
    @given(n=st.integers(0, 150), seed=st.integers(0, 2**64 - 1),
           p=st.sampled_from([1e-9, 0.1, 0.5, 0.9, 1 - 2**-53, 1.0]))
    @example(n=70, seed=0, p=0.5)
    @example(n=70, seed=2**32 - 1, p=0.5)
    @example(n=70, seed=2**32, p=0.5)
    @example(n=70, seed=2**64 - 1, p=0.5)
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, n, seed, p):
        assert sample_gnp(GnpSpec(n, p, seed)).adj == gnp_rows_reference(n, p, seed)

    # sample_gnp builds its graph without Graph's checks; the checked path must agree.
    @pytest.mark.parametrize("p", [0.01, 0.5, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 64, 65, 300])
    def test_sampled_graph_matches_checked_constructor(self, n, p):
        g = sample_gnp(GnpSpec(n, p, 31 + n))
        h = Graph(g.n, g.adj)
        assert g == h and (g.m, g.vertex_mask) == (h.m, h.vertex_mask)
        assert g.packed.shape == h.packed.shape and g.packed.tobytes() == h.packed.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            g.packed[...] = 0

    def test_threads_match_serial(self):
        # Two threads sample interleaved seeds at once; each graph must equal its
        # serial draw, which a generator shared between threads would not give.
        specs = [GnpSpec(50 + 50 * (i % 6), 0.5, 5_000 + i) for i in range(20)]
        serial = [sample_gnp(spec).adj for spec in specs]
        start = threading.Barrier(2)

        def run(indices):
            start.wait()
            return {i: sample_gnp(specs[i]).adj for i in indices}

        with ThreadPoolExecutor(max_workers=2) as pool:
            halves = [pool.submit(run, range(k, len(specs), 2)) for k in (0, 1)]
            got = {**halves[0].result(), **halves[1].result()}
        assert [got[i] for i in range(len(specs))] == serial


# Both of sample's methods and the edges between them: the list method is taken
# while count <= 21 + 4 ** ceil(log4(3k)) for k > 5 (count <= 21 for k <= 5), so
# 277 / 278 at k = 56 and 341 / 342 at count 2000 sit on either side of an edge.
SAMPLE_COUNTS = [1, 2, 56, 57, 255, 256, 257, 277, 278, 511, 512, 1000, 2000]
SAMPLE_KS = [0, 1, 5, 6, 56, 341, 342]


class TestSampleRange:
    @pytest.mark.parametrize("count", SAMPLE_COUNTS)
    def test_replays_random_sample(self, count):
        for k in [k for k in SAMPLE_KS if k < count] + [count]:
            for seed in range(300):
                got, expected = random.Random(seed), random.Random(seed)
                assert _sample_range(got, count, k) == expected.sample(range(count), k), (k, seed)
                assert got.random() == expected.random(), (k, seed)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_rejects_k_outside_the_range(self, k):
        with pytest.raises(ValueError):
            _sample_range(random.Random(5), 3, k)


class TestInducedSubgraph:
    def test_triangle_from_k4(self):
        sub, mapping = induced_subgraph(Graph.complete(4), [0, 1, 2])
        assert sub.adj == Graph.complete(3).adj
        assert mapping == (0, 1, 2)

    def test_cycle_fragment(self):
        sub, mapping = induced_subgraph(Graph.cycle(5), [0, 1, 3])
        assert mapping == (0, 1, 3)
        assert list(sub.edges()) == [(0, 1)]

    def test_empty_selection(self):
        sub, mapping = induced_subgraph(Graph.complete(4), [])
        assert sub.n == 0 and mapping == ()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(Graph.complete(3), [0, 5])

    @given(gnp_graphs(max_n=9))
    @settings(max_examples=25, deadline=None)
    def test_full_selection_is_identity(self, g):
        sub, mapping = induced_subgraph(g, range(g.n))
        assert sub.adj == g.adj
        assert mapping == tuple(range(g.n))


class TestCommonNeighborhood:
    def test_k4(self):
        assert common_neighborhood(Graph.complete(4), [0, 1]).as_set() == {2, 3}

    def test_c5(self):
        assert common_neighborhood(Graph.cycle(5), [0, 2]).as_set() == {1}

    def test_star_leaves_share_center(self):
        star = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert common_neighborhood(star, [0, 1]).as_set() == {4}

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            common_neighborhood(Graph.complete(3), [])

    @given(gnp_graphs(min_n=2, max_n=9), st.data())
    @settings(max_examples=40, deadline=None)
    def test_forms_complete_bipartite_pair(self, g, data):
        size = data.draw(st.integers(1, g.n))
        members = data.draw(
            st.lists(st.integers(0, g.n - 1), min_size=size, max_size=size, unique=True)
        )
        cn = common_neighborhood(g, members)
        for x in members:
            for y in cn:
                assert g.has_edge(x, y)


class TestIndependence:
    def test_complete_graph(self):
        res = independence_number_exact(Graph.complete(6))
        assert res.value == 1 and res.complete

    def test_cycle_five(self):
        assert independence_number_exact(Graph.cycle(5)).value == 2

    def test_empty_graph(self):
        res = independence_number_exact(Graph.empty(7))
        assert res.value == 7 and res.witness.as_set() == set(range(7))

    def test_budget_exhaustion_reports_incomplete(self):
        g = sample_gnp(GnpSpec(30, 0.5, 3))
        res = independence_number_exact(g, budget=5)
        assert not res.complete
        assert res.value >= 1  # best-found lower bound still carried

    def test_deep_search_does_not_recurse(self):
        # At p = 0.97 the exclude branches chain through most of the 1500
        # vertices, far deeper than the interpreter's recursion limit.
        g = sample_gnp(GnpSpec(1500, 0.97, 3))
        res = independence_number_exact(g, budget=4000)
        assert res.nodes <= 4001 and res.value >= 1
        for v in res.witness:
            assert not g.adj[v] & res.witness.mask

    def test_matches_brute_force_200_seeds(self):
        for s in range(200):
            n = 4 + s % 9  # n in 4..12
            g = sample_gnp(GnpSpec(n, 0.5, 20_000 + s))
            assert independence_number_exact(g).value == alpha_brute(g), s

    def test_greedy_empty_graph(self):
        assert len(independent_set_greedy(Graph.empty(5), 1)) == 5

    def test_greedy_complete_graph(self):
        assert len(independent_set_greedy(Graph.complete(5), 9)) == 1

    def test_greedy_cycle_always_two(self):
        for seed in range(40):
            assert len(independent_set_greedy(Graph.cycle(5), seed)) == 2

    @given(gnp_graphs(min_n=1, max_n=10), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_exact_at_least_greedy_and_maximal(self, g, seed):
        greedy = independent_set_greedy(g, seed)
        for v in greedy:
            assert not g.adj[v] & greedy.mask
        for v in range(g.n):
            if v not in greedy:
                assert g.adj[v] & greedy.mask  # maximality
        assert independence_number_exact(g).value >= len(greedy)

    def test_search_returns_maximal_independent_set(self):
        g = sample_gnp(GnpSpec(120, 0.5, 17))
        found = independent_set_search(g, 4, rounds=2)
        for v in found:
            assert not g.adj[v] & found.mask
        for v in range(g.n):
            if v not in found:
                assert g.adj[v] & found.mask
        assert len(found) >= len(independent_set_greedy(g, 4))

    @pytest.mark.parametrize("copies", [1, 2])
    def test_beam_keeps_a_state_whose_pool_empties(self, copies):
        # Each K50 pool empties in one step from above the finisher's size, so
        # every state reaches the finisher with an empty pool.
        k = Graph.complete(50)
        g = Graph(50 * copies, tuple(row << (50 * c) for c in range(copies) for row in k.adj))
        size, mask = _beam_with_exact_finish(g.adj, g.n, g.packed, random.Random(0), 0)
        assert mask and size == mask.bit_count() == copies
        assert all(not g.adj[v] & mask for v in VertexSet(mask, g.n))

    # n = 400 at p = 0.3 lists pools on both sides of random.sample's switch
    # from a set of picks to a list copy (more than 277 members against at most
    # 277, for k = 56): the root pool and those a level or two down.
    BEAM_GRAPHS = [
        (59, 0.1, 3), (203, 0.2, 2), (400, 0.3, 3), (297, 0.3, 4), (333, 0.5, 5),
        (45, 0.5, 6), (151, 0.7, 7), (250, 0.7, 8), (97, 0.9, 9), (301, 0.9, 10),
    ]

    def test_beam_matches_list_reference(self):
        """Same (size, mask) and the same Random state after the call as the list beam."""
        hits = Counter()
        for n, p, seed in self.BEAM_GRAPHS:
            g = sample_gnp(GnpSpec(n, p, seed))
            incumbent = 3 * (seed % 2)
            ref_rng, rng = random.Random(seed), random.Random(seed)
            expected = beam_reference(g.adj, n, ref_rng, incumbent, hits)
            assert _beam_with_exact_finish(g.adj, n, g.packed, rng, incumbent) == expected, (n, p, seed)
            assert rng.getstate() == ref_rng.getstate(), (n, p, seed)
        assert {"finish", "whole", "sample-set", "sample-list", "wide-level"} <= set(hits), hits

    @pytest.mark.parametrize("members", [
        [], [17], [200, 201, 202], [3, 8, 9, 15, 16, 200, 202],
        list(range(0, 200, 5)) + [198, 200, 201, 202], list(range(159, 203)),
    ])
    def test_pool_rows_relabel(self, members):
        """Member i is bit i; the exact search agrees on global and relabelled rows."""
        g = sample_gnp(GnpSpec(203, 0.5, 11))
        members = sorted(members)
        expected = [sum(1 << j for j, u in enumerate(members) if g.has_edge(v, u)) for v in members]
        pool = sum(1 << v for v in members)
        listed, rows = _pool_rows(g.packed, pool)
        assert listed.tolist() == members
        assert rows == expected and all(type(row) is int for row in rows)
        for budget, initial in ((250_000, 0), (250_000, 4), (5, 0)):
            size, mask, complete, nodes = _alpha_branch_and_bound(rows, (1 << len(members)) - 1, budget, (initial, 0))
            global_mask = sum(1 << members[i] for i in range(len(members)) if mask >> i & 1)
            assert _alpha_branch_and_bound(g.adj, pool, budget, (initial, 0)) == (size, global_mask, complete, nodes)

    def test_finisher_searches_only_pools_that_improve(self, monkeypatch):
        """Every exact search the finisher runs beats its incumbent, and the
        beam still matches the list reference, whose finisher searches every pool."""
        calls = []
        search = graphs._alpha_branch_and_bound

        def counted(adj, pool, budget, initial_best):
            out = search(adj, pool, budget, initial_best)
            calls.append(out[0] > initial_best[0])
            return out

        monkeypatch.setattr(graphs, "_alpha_branch_and_bound", counted)
        for n, p, seed in [(59, 0.1, 3), (203, 0.2, 2), (333, 0.5, 5), (250, 0.7, 8)]:
            g = sample_gnp(GnpSpec(n, p, seed))
            expected = beam_reference(g.adj, n, random.Random(seed), 0)
            assert _beam_with_exact_finish(g.adj, n, g.packed, random.Random(seed), 0) == expected
        assert calls and all(calls), calls

    def test_search_refuses_zero_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            independent_set_search(Graph.complete(3), 1, rounds=0)

    POLISH_GRAPHS = [
        (354, 0.1, 1), (102, 0.1, 11), (309, 0.3, 3), (194, 0.3, 13), (79, 0.5, 5),
        (61, 0.5, 15), (135, 0.7, 7), (400, 0.7, 17), (361, 0.9, 9), (301, 0.9, 19),
    ]

    def test_swap_polish_matches_list_reference(self):
        """Same (size, mask) and the same Random state after the call as the list walk."""
        hits = Counter()
        for n, p, seed in self.POLISH_GRAPHS:
            g = sample_gnp(GnpSpec(n, p, seed))
            greedy = independent_set_greedy(g, seed).mask
            _, beam = _beam_with_exact_finish(g.adj, n, g.packed, random.Random(seed), 0)
            for start in (greedy, beam):
                for moves in (0, 1, 40, 1600):
                    ref_rng, rng = random.Random(seed + moves), random.Random(seed + moves)
                    expected = swap_polish_reference(g.adj, n, start, ref_rng, moves, hits)
                    got = _swap_polish(g.adj, n, start, rng, moves)
                    assert got == expected, (n, p, seed, moves)
                    assert rng.getstate() == ref_rng.getstate(), (n, p, seed, moves)
        assert {"insert", "swap", "no-tight", "kick"} <= set(hits), hits
        # A count of 8 takes a fourth bit plane, so carries and borrows reach it.
        assert hits["max-count"] >= 8, hits


class TestExceeds:
    """``_exceeds(rows, pool, best, budget)``: True iff the pool holds an
    independent set of more than ``best`` vertices, or the budget runs out."""

    @given(gnp_graphs(max_n=12))
    @example(Graph.empty(0))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        alpha = alpha_brute(g)
        for best in range(-1, alpha + 2):
            assert _exceeds(g.adj, g.vertex_mask, best, 250_000) == (alpha > best), best

    @pytest.mark.parametrize("p", [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.98])
    def test_matches_oracle_on_pools_up_to_44_bits(self, p):
        """Also agrees with the exact search seeded with ``best``, as the finisher asks it."""
        for seed in range(12):
            g = sample_gnp(GnpSpec(44, p, seed))
            rng = random.Random(seed)
            members = range(44) if seed % 3 == 0 else rng.sample(range(44), rng.randint(1, 43))
            pool = mask_of(members)
            alpha = alpha_pool_brute(g.adj, pool)
            for best in range(-1, alpha + 2):
                assert _exceeds(g.adj, pool, best, 250_000) == (alpha > best), (seed, best)
                improved = _alpha_branch_and_bound(g.adj, pool, 250_000, (best, 0))[0] > best
                assert improved == (alpha > best), (seed, best)

    def test_budget_out_returns_true(self):
        g = sample_gnp(GnpSpec(44, 0.5, 1))
        alpha = alpha_pool_brute(g.adj, g.vertex_mask)
        assert not _exceeds(g.adj, g.vertex_mask, alpha, 250_000)
        budget = 0
        while _exceeds(g.adj, g.vertex_mask, alpha, budget):
            budget += 1
        assert budget > 1  # the refutation needs more than its root
        assert _exceeds(g.adj, 0, 0, 0)


class TestDensityDeviation:
    def test_k4_full_set(self):
        got = density_deviation(Graph.complete(4), range(4), p=1.0)
        expected = abs(6 - 8) / (8 * math.sqrt(math.log(4)))
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.2123, abs=1e-4)

    def test_empty_graph_small_p(self):
        got = density_deviation(Graph.empty(10), range(10), p=0.001)
        expected = 0.05 / (10**1.5 * math.sqrt(math.log(10)))
        assert got == pytest.approx(expected)

    def test_singleton_subset(self):
        got = density_deviation(Graph.complete(5), [2], p=0.4)
        assert got == pytest.approx(0.2 / math.sqrt(math.log(5)))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            density_deviation(Graph.empty(1), [0], p=0.5)


@st.composite
def vertex_collections(draw):
    """A graph and a vertex collection of it: a list (repeats allowed), a
    VertexSet, the empty list or every vertex."""
    g = draw(gnp_graphs(min_n=0, max_n=20))
    kind = draw(st.sampled_from(["list", "vertex-set", "empty", "full"]))
    if kind == "empty" or g.n == 0:
        return g, []
    if kind == "full":
        return g, range(g.n)
    members = draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    return g, VertexSet.of(members, g.n) if kind == "vertex-set" else members


class TestEdgeCountWithin:
    @given(vertex_collections())
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_count(self, case):
        g, vertices = case
        assert edge_count_within(g, vertices) == edge_count_within_reference(g, vertices)

    def test_full_set_of_large_graph(self):
        g = sample_gnp(GnpSpec(300, 0.5, 3))
        assert edge_count_within(g, range(300)) == g.m

    def test_bad_vertices_rejected(self):
        g = Graph.complete(4)
        with pytest.raises(ValueError) as neg:
            edge_count_within(g, [0, -1])
        assert str(neg.value) == "vertex indices must be nonnegative"
        with pytest.raises(ValueError) as big:
            edge_count_within(g, [1, 4])
        assert str(big.value) == "vertex outside range 0..3"


# Graphs where every restart meets many equal scores, so the tie draws decide k.
TIE_HEAVY = {
    **{f"K{k},{k}": Graph.complete_bipartite(k, k) for k in (1, 2, 5, 9)},
    **{f"K{n}": Graph.complete(n) for n in (2, 3, 8, 17)},
    **{f"C{n}": Graph.cycle(n) for n in (3, 4, 9, 30)},
    **{f"empty{n}": Graph.empty(n) for n in (0, 1, 7)},
}


class TestBalancedBiclique:
    def test_k33(self):
        assert max_balanced_biclique_side(Graph.complete_bipartite(3, 3)) == 3

    def test_c5_has_no_four_cycle(self):
        assert max_balanced_biclique_side(Graph.cycle(5)) == 1

    def test_edgeless(self):
        assert max_balanced_biclique_side(Graph.empty(6)) == 0

    def test_exact_refused_when_large(self):
        with pytest.raises(ValueError, match="refused"):
            max_balanced_biclique_side(Graph.empty(21), "exact")

    @pytest.mark.parametrize("g", [Graph.empty(3), Graph.complete(3)], ids=["edgeless", "k3"])
    def test_unknown_effort_rejected(self, g):
        with pytest.raises(ValueError, match="unknown effort 'bogus'"):
            max_balanced_biclique_side(g, effort="bogus")

    def test_exact_matches_brute(self):
        for s in range(30):
            g = sample_gnp(GnpSpec(8, 0.5, 31_000 + s))
            assert max_balanced_biclique_side(g) == balanced_side_brute(g), s

    def test_heuristic_finds_planted_k55(self):
        g = Graph.complete_bipartite(5, 5)
        assert max_balanced_biclique_side(g, "heuristic", budget=200, seed=1) == 5

    @given(
        st.integers(1, 40),
        st.sampled_from([0.2, 0.5, 0.9]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_heuristic_matches_loop_reference(self, n, p, graph_seed, budget, seed):
        g = sample_gnp(GnpSpec(n, p, graph_seed))
        got = max_balanced_biclique_side(g, "heuristic", budget, seed)
        assert got == balanced_side_heuristic_reference(g, budget, seed)

    @pytest.mark.parametrize("n", [80, 150])
    def test_heuristic_matches_reference_at_larger_n(self, n):
        # A scoring slip shows in k more often once restarts run longer than at n <= 40.
        for p in (0.2, 0.5):
            for seed in range(10):
                g = sample_gnp(GnpSpec(n, p, seed))
                for budget in (50, 300):
                    got = max_balanced_biclique_side(g, "heuristic", budget, seed)
                    assert got == balanced_side_heuristic_reference(g, budget, seed), (p, seed, budget)

    @pytest.mark.parametrize("name", list(TIE_HEAVY))
    def test_heuristic_matches_reference_on_tie_heavy_graphs(self, name):
        g = TIE_HEAVY[name]
        for budget in (1, 7, 60, 300):
            for seed in (0, 1, 2):
                got = max_balanced_biclique_side(g, "heuristic", budget, seed)
                assert got == balanced_side_heuristic_reference(g, budget, seed), (budget, seed)

    def test_heuristic_never_exceeds_exact(self):
        for s in range(20):
            g = sample_gnp(GnpSpec(12, 0.5, 44_000 + s))
            exact = max_balanced_biclique_side(g, "exact")
            heur = max_balanced_biclique_side(g, "heuristic", budget=150, seed=s)
            assert heur <= exact, s


class TestEdgeListFormat:
    def test_round_trip(self):
        g = sample_gnp(GnpSpec(9, 0.5, 77))
        assert parse_edge_list(format_edge_list(g)).adj == g.adj

    def test_header_and_lines(self):
        text = format_edge_list(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert text == "3 2\n0 1\n1 2\n"

    @pytest.mark.parametrize(
        "bad",
        [
            "2 1\n0 0\n",          # loop
            "2 1\n1 0\n",          # reversed endpoints
            "2 1\n0 5\n",          # out of range
            "3 2\n0 1\n0 1\n",     # duplicate
            "3 2\n0 1\n",          # count mismatch
            "x y\n",               # bad header
            "",                    # empty
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_edge_list(bad)


class TestVertexSet:
    def test_ascending_iteration(self):
        vs = VertexSet.of([5, 1, 3], 8)
        assert vs.as_tuple() == (1, 3, 5)
        assert list(vs) == [1, 3, 5]
        assert 3 in vs and 2 not in vs

    def test_universe_enforced(self):
        with pytest.raises(ValueError):
            VertexSet.of([4], 3)
