import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipart import coverage
from bipart.coverage import (
    CoverageFamily,
    PeelingError,
    blocked_edge_count,
    classify_family,
    covered_edges,
    exclusive_split,
    family_from_json,
    family_to_json,
    max_coverage_exact,
    max_coverage_greedy,
    peel_witness,
    replay_trace,
    shielded_edge_count,
    uncovered_lower_bound,
)
from bipart.graphs import GnpSpec, Graph, sample_gnp

from conftest import gnp_graphs
from make_solver_results import coverage_groups, coverage_row, coverage_rows, coverage_solve, differences, recorded_rows
from oracles import coverage_brute, coverage_first_play, maximal_plays

STAR_5 = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
STAR_FAMILY = CoverageFamily.of(range(5), [(0, 1), (1, 2), (2, 3)])


def random_family(n, seed, max_sets=4, sizes=(2, 2, 3)):
    rng = random.Random(seed)
    k = rng.randint(1, max_sets)
    return CoverageFamily.of(
        range(n),
        [tuple(sorted(rng.sample(range(n), rng.choice(sizes)))) for _ in range(k)],
    )


def overlapping_family(n, seed):
    """Four 1- to 3-sets over range(n): each after the first repeats an
    earlier set with probability 1/4, shares a member with one with
    probability 1/2, and is drawn freely otherwise."""
    rng = random.Random(f"coverage-order:{seed}")
    sets = []
    for _ in range(4):
        r = rng.random()
        if sets and r < 0.25:
            sets.append(rng.choice(sets))
            continue
        size = rng.choice((1, 2, 2, 3))
        if sets and r < 0.75:
            member = rng.choice(rng.choice(sets))
            sets.append([member] + rng.sample([v for v in range(n) if v != member], size - 1))
        else:
            sets.append(rng.sample(range(n), size))
    return CoverageFamily.of(range(n), sets)


class TestCoveredEdges:
    def test_k4(self):
        got = covered_edges(Graph.complete(4), [0, 1])
        assert got == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_c5(self):
        assert covered_edges(Graph.cycle(5), [0, 2]) == [(0, 1), (1, 2)]

    def test_empty_common_neighborhood(self):
        assert covered_edges(Graph.cycle(5), [0, 1, 2]) == []

    def test_empty_left_side_rejected(self):
        with pytest.raises(ValueError):
            covered_edges(Graph.complete(3), [])


class TestMaxCoverageExact:
    def test_star_worked_example(self):
        value, trace = max_coverage_exact(STAR_5, range(5), STAR_FAMILY)
        assert value == 4
        assert trace.total == 4
        replay_trace(STAR_5, range(5), STAR_FAMILY, trace)

    def test_empty_family(self):
        value, trace = max_coverage_exact(Graph.complete(4), range(4), CoverageFamily.of(range(4), []))
        assert value == 0 and trace.order == ()

    def test_single_set_k22(self):
        g = Graph.from_edges(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
        value, _ = max_coverage_exact(g, range(4), CoverageFamily.of(range(4), [(0, 2)]))
        assert value == 4

    def test_size_limits_refused(self):
        with pytest.raises(ValueError, match="refused"):
            max_coverage_exact(
                Graph.empty(13), range(13), CoverageFamily.of(range(13), [(0, 1)])
            )
        with pytest.raises(ValueError, match="refused"):
            max_coverage_exact(
                Graph.empty(4), range(4), CoverageFamily.of(range(4), [(0, 1)] * 9)
            )

    def test_universe_refused_before_the_subgraph(self, monkeypatch):
        # The size refusal needs no induced subgraph, which on a large
        # universe costs far more than the refusal; the checks before it
        # keep their order and messages.
        def unreachable(*args):
            raise AssertionError("induced_subgraph ran before the refusal")

        monkeypatch.setattr(coverage, "induced_subgraph", unreachable)
        fam = CoverageFamily.of(range(4), [(0, 1)])
        with pytest.raises(ValueError, match="more than 12 universe vertices"):
            max_coverage_exact(Graph.empty(13), range(13), fam)
        with pytest.raises(ValueError, match="universe leaves the graph"):
            max_coverage_exact(Graph.empty(13), range(14), fam)
        with pytest.raises(ValueError, match="family universe is not contained"):
            max_coverage_exact(Graph.empty(13), range(1, 13), fam)

    def test_matches_literal_oracle(self):
        for s in range(30):
            n = 4 + s % 3
            g = sample_gnp(GnpSpec(n, 0.5, 130_000 + s))
            fam = random_family(n, s, max_sets=3)
            expected = coverage_brute(g, range(n), fam.sets)
            got, trace = max_coverage_exact(g, range(n), fam)
            assert got == expected, (s, fam.sets)
            assert (got, trace.order, trace.choices) == coverage_first_play(g, range(n), fam.sets), s
            replay_trace(g, range(n), fam, trace)

    @pytest.mark.parametrize("g, sets, value, children", [
        # Disjoint sets: vertex 4 sees 2 but not 3, so {2, 3} can never use
        # it and {0, 1} always takes both of its neighbours.
        (Graph.from_edges(7, [(0, 4), (1, 4), (2, 4), (0, 5), (1, 5), (2, 6), (3, 6)]),
         [(0, 1), (2, 3)], 6, 2),
        # A shared member: {0} played first must be free to leave vertex 2,
        # in the common neighbourhood of {0, 1}, which covers two edges there.
        (Graph.from_edges(3, [(0, 2), (1, 2)]), [(0,), (0, 1)], 2, 4),
        # Duplicate sets share every member, so neither forces a vertex on
        # the other.
        (Graph.complete(6), [(1, 3), (1, 3), (1, 4, 5)], 10, 76),
        # The single-set ceilings sum to 10 over 6 distinct edges.
        (Graph.complete(4), [(1,), (2,), (0, 1)], 6, 14),
    ], ids=["disjoint", "shared-member", "duplicates", "shared-edges"])
    def test_pruning_cases(self, g, sets, value, children):
        # Each case of the search's two rules against the oracles: the value,
        # the first optimal play, and the children stripped to find it.
        fam = CoverageFamily.of(range(g.n), sets)
        got, trace, stripped = coverage_solve(g, range(g.n), fam)
        assert got == coverage_brute(g, range(g.n), fam.sets) == value
        assert (got, trace.order, trace.choices) == coverage_first_play(g, range(g.n), fam.sets)
        assert stripped == children

    def test_index_order_is_the_first_optimal_order(self):
        # The oracle tries every order of four sets that share members or
        # repeat one another; its first optimal play still takes the sets
        # in index order, with the right sides the search returns.
        duplicated = shared = 0
        for s in range(60):
            n = 4 + s % 3
            g = sample_gnp(GnpSpec(n, (0.5, 0.7, 0.9)[s // 3 % 3], 170_000 + s))
            fam = overlapping_family(n, s)
            duplicated += len(set(fam.sets)) < 4
            shared += any(set(a) & set(b) for a in fam.sets for b in fam.sets if a != b)
            got, trace = max_coverage_exact(g, range(n), fam)
            expected = coverage_first_play(g, range(n), fam.sets)
            assert expected[1] == (0, 1, 2, 3), (s, fam.sets)
            assert (got, trace.order, trace.choices) == expected, (s, fam.sets)
        assert duplicated >= 20 and shared >= 40

    def test_duplicate_sets_children(self):
        # Three copies each of {0, 1} and {1, 2} on K8 reach the same edge
        # state by many plays; skipping the states already expanded keeps
        # the search at 1,525 children.
        fam = CoverageFamily.of(range(8), [(0, 1)] * 3 + [(1, 2)] * 3)
        value, trace, children = coverage_solve(Graph.complete(8), range(8), fam)
        assert (value, children) == (12, 1_525)
        replay_trace(Graph.complete(8), range(8), fam, trace)

    def test_single_set_ceiling(self):
        # Never exceeds the sum of per-set coverages in the untouched graph.
        for s in range(20):
            g = sample_gnp(GnpSpec(7, 0.5, 140_000 + s))
            fam = random_family(7, s)
            value, _ = max_coverage_exact(g, range(7), fam)
            ceiling = sum(len(covered_edges(g, fs)) for fs in fam.sets)
            assert value <= ceiling

    def test_full_right_side_not_always_optimal(self):
        # Always taking the full common neighborhood can lose: playing the
        # middle pair first wastes the shared center.
        value, _ = max_coverage_exact(STAR_5, range(5), STAR_FAMILY)
        play_values = {len(covered) for _, covered in maximal_plays(STAR_5, range(5), STAR_FAMILY.sets)}
        assert min(play_values) < value
        assert max(play_values) == value == 4


def test_coverage_results_match_the_record():
    # The exact-small workload's 40 coverage solves, 180 seeded families of
    # 1- to 3-sets, duplicates among them, and 12 dense families of 6 and 8
    # sets over G(12, .8), against the "coverage" rows of
    # tests/data/solver_results.json: the sha256 of (value, order, choices,
    # covered) and the children stripped are checked apart.  Run
    # tests/make_solver_results.py to list the differences.
    found = differences(recorded_rows("coverage"), coverage_rows())
    assert not any(found.values()), {kind: lines[:10] for kind, lines in found.items() if lines}


def test_coverage_child_total():
    # The children the search strips are deterministic, so their total over
    # the exact-small workload's 40 coverage solves pins its prunes on any
    # machine.
    families = coverage_groups()["exact-small"]
    assert len(families) == 40
    assert sum(coverage_row(*family)[-1] for family in families) == 1_284


class TestMaxCoverageGreedy:
    def test_empty_family(self):
        value, _ = max_coverage_greedy(
            Graph.complete(3), range(3), CoverageFamily.of(range(3), []), 0
        )
        assert value == 0

    def test_single_set_equals_exact(self):
        g = sample_gnp(GnpSpec(6, 0.5, 3))
        fam = CoverageFamily.of(range(6), [(0, 1)])
        assert max_coverage_greedy(g, range(6), fam, 1)[0] == max_coverage_exact(g, range(6), fam)[0]

    def test_star_example_values(self):
        values = {max_coverage_greedy(STAR_5, range(5), STAR_FAMILY, s)[0] for s in range(30)}
        assert values <= {2, 4} and values

    def test_never_exceeds_exact(self):
        for s in range(100):
            n = 4 + s % 7  # up to n=10
            g = sample_gnp(GnpSpec(n, 0.5, 150_000 + s))
            fam = random_family(n, s, max_sets=5)
            if len(fam.sets) > 5:
                continue
            exact_value, _ = max_coverage_exact(g, range(n), fam)
            greedy_value, trace = max_coverage_greedy(g, range(n), fam, s)
            assert greedy_value <= exact_value, s
            replay_trace(g, range(n), fam, trace)


class TestReplayTrace:
    def test_rejects_tampered_totals(self):
        value, trace = max_coverage_exact(STAR_5, range(5), STAR_FAMILY)
        bad = trace.__class__(trace.order, trace.choices, trace.covered, trace.total + 1)
        with pytest.raises(ValueError, match="total"):
            replay_trace(STAR_5, range(5), STAR_FAMILY, bad)

    def test_rejects_bad_choice(self):
        g = Graph.complete(4)
        fam = CoverageFamily.of(range(4), [(0, 1)])
        value, trace = max_coverage_exact(g, range(4), fam)
        bad = trace.__class__(trace.order, ((0,),), trace.covered, trace.total)
        with pytest.raises(ValueError):
            replay_trace(g, range(4), fam, bad)

    @given(gnp_graphs(min_n=2, max_n=8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_greedy_and_exact_traces_replay(self, g, data):
        member = st.integers(0, g.n - 1)
        sets = data.draw(st.lists(st.lists(member, min_size=1, max_size=3, unique=True),
                                  max_size=4))
        fam = CoverageFamily.of(range(g.n), sets)
        exact = max_coverage_exact(g, range(g.n), fam)
        greedy = max_coverage_greedy(g, range(g.n), fam, data.draw(st.integers(0, 99)))
        for value, trace in (exact, greedy):
            assert replay_trace(g, range(g.n), fam, trace) == value == trace.total
            assert sorted(trace.order) == list(range(len(sets)))
            taken = [e for step in trace.covered for e in step]
            assert len(taken) == len(set(taken)) == value
            assert all(g.has_edge(*e) for e in taken)
        assert greedy[0] <= exact[0]


class TestExclusiveSplit:
    def test_chain(self):
        s, t = exclusive_split(CoverageFamily.of([1, 2, 3], [(1, 2), (2, 3)]))
        assert s.as_tuple() == (1, 3) and t.as_tuple() == (2,)

    def test_single_pair_tiebreak(self):
        s, t = exclusive_split(CoverageFamily.of([1, 2], [(1, 2)]))
        assert s.as_tuple() == (1,) and t.as_tuple() == (2,)

    def test_empty_family(self):
        s, t = exclusive_split(CoverageFamily.of([], []))
        assert len(s) == 0 and len(t) == 0

    def test_non_pairs_rejected(self):
        with pytest.raises(ValueError):
            exclusive_split(CoverageFamily.of(range(4), [(0, 1, 2)]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_and_size_ordered(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        k = rng.randint(0, 6)
        fam = CoverageFamily.of(
            range(n), [tuple(sorted(rng.sample(range(n), 2))) for _ in range(k)]
        )
        s, t = exclusive_split(fam)
        assert not set(s.as_tuple()) & set(t.as_tuple())
        assert len(s) >= len(t)


class TestBlockedEdgeCount:
    def planted(self, extra=()):
        edges = [(0, 1)] + list(extra)
        g = Graph.from_edges(6, edges)
        fam = CoverageFamily.of(range(6), [(0, 2), (1, 3)])
        return g, fam, exclusive_split(fam)[0]

    def test_planted_pair(self):
        g, fam, s = self.planted()
        assert blocked_edge_count(g, fam, s) == 1

    def test_partner_edge_defeats_pair(self):
        g, fam, s = self.planted(extra=[(1, 2)])
        assert blocked_edge_count(g, fam, s) == 0

    def test_edgeless_s(self):
        g = Graph.from_edges(6, [(2, 3)])
        fam = CoverageFamily.of(range(6), [(0, 2), (1, 3)])
        assert blocked_edge_count(g, fam, exclusive_split(fam)[0]) == 0

    def test_unowned_vertex_rejected(self):
        g = Graph.complete(4)
        fam = CoverageFamily.of(range(4), [(0, 1)])
        with pytest.raises(ValueError, match="owned"):
            blocked_edge_count(g, fam, [2, 3])

    def test_vertices_beyond_graph_rejected(self):
        g = Graph.complete(3)
        fam = CoverageFamily.of(range(6), [(0, 4), (1, 5)])
        with pytest.raises(ValueError, match="leave the graph"):
            blocked_edge_count(g, fam, exclusive_split(fam)[0])

    def test_soundness_against_all_maximal_plays(self):
        # Every counted pair stays uncovered in every maximal play.
        rng = random.Random(1)
        for s in range(60):
            n = 5 + s % 4  # n in 5..8
            g = sample_gnp(GnpSpec(n, 0.5, 160_000 + s))
            k = rng.randint(1, 4)
            fam = CoverageFamily.of(
                range(n), [tuple(sorted(rng.sample(range(n), 2))) for _ in range(k)]
            )
            s_set = exclusive_split(fam)[0]
            partner = {}
            owner = {}
            for pair in fam.sets:
                for v in pair:
                    owner.setdefault(v, []).append(pair)
            keep = [v for v in s_set if len(owner.get(v, [])) == 1]
            counted = []
            for i, u in enumerate(keep):
                for v in keep[i + 1 :]:
                    pu = next(iter(set(owner[u][0]) - {u}))
                    pv = next(iter(set(owner[v][0]) - {v}))
                    if g.has_edge(u, v) and not g.has_edge(u, pv) and not g.has_edge(v, pu):
                        counted.append((u, v) if u < v else (v, u))
            assert len(counted) == blocked_edge_count(g, fam, keep)
            for _, covered in maximal_plays(g, range(n), fam.sets):
                for e in counted:
                    assert e not in covered, (s, e, fam.sets)


class TestShieldedEdgeCount:
    def test_basic(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert shielded_edge_count(g, range(4), [0, 1], {0: (2,), 1: (3,)}) == 1

    def test_guard_edge_defeats(self):
        g = Graph.from_edges(4, [(0, 1), (0, 3)])
        assert shielded_edge_count(g, range(4), [0, 1], {0: (2,), 1: (3,)}) == 0

    def test_edgeless_w(self):
        g = Graph.from_edges(4, [(2, 3)])
        assert shielded_edge_count(g, range(4), [0, 1], {}) == 0

    def test_overlapping_guards_rejected(self):
        g = Graph.complete(4)
        with pytest.raises(ValueError, match="overlap"):
            shielded_edge_count(g, range(4), [0, 1], {0: (2,), 1: (2,)})

    def test_guard_inside_w_rejected(self):
        g = Graph.complete(4)
        with pytest.raises(ValueError):
            shielded_edge_count(g, range(4), [0, 1], {0: (1,)})

    def test_universe_beyond_graph_rejected(self):
        with pytest.raises(ValueError, match="leave"):
            shielded_edge_count(Graph.complete(3), range(6), [0, 1], {})


class TestClassifyFamily:
    def test_epsilon_one_thresholds(self):
        split = classify_family(CoverageFamily.of(range(10), [(0, 1)]), 1.0, 2.0)
        assert split.delta1 == pytest.approx(1 / 200)

    def test_small_epsilon_takes_other_branch(self):
        # epsilon/(4(3+epsilon)) dips below 1/200 once epsilon < 12/196.
        split = classify_family(CoverageFamily.of(range(10), [(0, 1)]), 0.04, 2.0)
        assert split.delta1 == pytest.approx(0.04 / (4 * 3.04))

    def test_nesting_when_thresholds_exceed_two(self):
        # With base barely above 1 the threshold blows up and the tiers nest.
        base = 1.0 + 1e-9
        fam = CoverageFamily.of(range(10), [(0, 1), (2, 3, 4), (5, 6)])
        split = classify_family(fam, 1.0, base)
        assert split.delta1 * math.log(10) / math.log(base) > 2
        assert set(split.pairs) <= set(split.small)
        assert set(split.small) == {0, 1, 2}

    def test_boundary_strictness(self):
        # Pick a base putting the small-tier threshold at about 3.84: the
        # 3-set is strictly below it, the 4-set (its ceiling) is excluded.
        base = 1.003
        fam = CoverageFamily.of(range(10), [tuple(range(3)), tuple(range(4))])
        split = classify_family(fam, 1.0, base)
        threshold = split.delta1 * math.log(10) / math.log(base)
        assert 3 < threshold < 4
        assert math.ceil(threshold) == 4
        assert split.small == (0,)
        # Desk-scale base: threshold below 2, so nothing is small.
        split2 = classify_family(fam, 1.0, 2.0)
        assert split2.small == ()

    def test_duplicate_sets_classified_independently(self):
        base = 1.0 + 1e-9
        fam = CoverageFamily.of(range(10), [(0, 1), (0, 1)])
        split = classify_family(fam, 1.0, base)
        assert split.small == (0, 1) and split.pairs == (0, 1)

    def test_parameter_errors(self):
        fam = CoverageFamily.of(range(3), [(0, 1)])
        with pytest.raises(ValueError):
            classify_family(fam, -1.0, 2.0)
        with pytest.raises(ValueError):
            classify_family(fam, 1.0, 1.0)
        with pytest.raises(ValueError):
            classify_family(CoverageFamily.of(range(2), [(0, 1)]), 1.0, 2.0)
        with pytest.raises(ValueError):
            classify_family(CoverageFamily.of(range(4), [(0,)]), 1.0, 2.0)


class TestPeelWitness:
    def test_two_disjoint_pairs(self):
        fam = CoverageFamily.of([1, 2, 3, 4], [(1, 2), (3, 4)])
        wp = peel_witness(fam, [1, 3], base=4.0)
        assert wp.order == (1, 3)
        assert wp.guards == {1: (2,), 3: (4,)}

    def test_empty_family_keeps_first_q(self):
        fam = CoverageFamily.of(range(4), [])
        wp = peel_witness(fam, [0, 1, 2, 3], base=4.0)
        assert wp.order == (0, 1, 2, 3)
        assert all(wp.guards[v] == () for v in wp.order)

    def test_exhaustion_failure(self):
        fam = CoverageFamily.of([1, 2, 3], [(1, 2, 3)])
        with pytest.raises(PeelingError) as err:
            peel_witness(fam, [1, 2], base=3.0)
        assert err.value.steps == 1

    def test_degree_bound_enforced(self):
        fam = CoverageFamily.of(range(4), [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="degree"):
            peel_witness(fam, [0], base=4.0, degree_bound=2)

    def test_custom_ordering(self):
        fam = CoverageFamily.of(range(4), [])
        wp = peel_witness(fam, [0, 1, 2, 3], base=4.0, ordering=[3, 1, 0, 2])
        assert wp.order == (3, 1, 0, 2)

    def test_guards_disjoint_from_witness_and_each_other(self):
        rng = random.Random(2)
        for s in range(40):
            n = 6 + s % 3
            sets = [tuple(sorted(rng.sample(range(n), rng.choice([2, 3])))) for _ in range(rng.randint(0, 3))]
            fam = CoverageFamily.of(range(n), sets)
            try:
                wp = peel_witness(fam, range(n), base=float(n))
            except PeelingError:
                continue
            union = set(wp.order)
            taken = set()
            for v in wp.order:
                gs = set(wp.guards[v])
                assert not gs & union
                assert not gs & taken
                taken |= gs

    def test_dangling_fragments_are_swept(self):
        # {0,1} incident to 0; {1,2,3} has exactly one vertex outside it
        # after removing {0,1}?  No: two outside.  {1,2} does: swept with it.
        fam = CoverageFamily.of(range(5), [(0, 1), (1, 2)])
        wp = peel_witness(fam, [0, 3], base=5.0)
        assert wp.order == (0, 3)
        assert wp.guards[0] == (1,)
        assert wp.guards[3] == ()


class TestWitnessSoundness:
    def test_shielded_edges_survive_every_maximal_play(self):
        # Edges counted through a peeled witness stay uncovered in every
        # maximal play of the same family.
        rng = random.Random(7)
        checked = 0
        for s in range(120):
            n = 6 + s % 3
            g = sample_gnp(GnpSpec(n, 0.6, 180_000 + s))
            k = rng.randint(1, 2)
            sets = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(k)]
            fam = CoverageFamily.of(range(n), sets)
            base = n ** (1 / math.sqrt(3))  # quota of about n/3 peeling steps
            try:
                wp = peel_witness(fam, range(n), base=base)
            except PeelingError:
                continue
            guard_map = {v: wp.guards.get(v, ()) for v in wp.order}
            counted = []
            members = list(wp.order)
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    if not g.has_edge(x, y):
                        continue
                    if any(g.has_edge(x, z) for z in guard_map[y]):
                        continue
                    if any(g.has_edge(y, z) for z in guard_map[x]):
                        continue
                    counted.append((x, y) if x < y else (y, x))
            assert len(counted) == shielded_edge_count(g, range(n), wp.order, guard_map)
            if counted:
                checked += 1
            for _, covered in maximal_plays(g, range(n), fam.sets):
                for e in counted:
                    assert e not in covered, (s, e, sets)
        assert checked >= 5  # the sweep must actually exercise nonempty counts


class TestUncoveredLowerBound:
    def test_empty_family_reports_no_certificate(self):
        g = Graph.complete(4)
        bound = uncovered_lower_bound(g, range(4), CoverageFamily.of(range(4), []), 1.0, 2.0)
        assert bound.value == 0 and bound.note == "no-certificate"

    def test_planted_pair_instance(self):
        g = Graph.from_edges(6, [(0, 1)])
        fam = CoverageFamily.of(range(6), [(0, 2), (1, 3)])
        bound = uncovered_lower_bound(g, range(6), fam, 1.0, 2.0, 0)
        assert bound.value >= 1
        assert bound.pair_bound == 1

    def test_partners_only_of_kept_vertices(self):
        # Vertex 0 lies in two sets, so the pair certificate drops it and
        # must not report its partner 1.
        g = Graph.from_edges(6, [(0, 2), (1, 3), (2, 4), (0, 4)])
        fam = CoverageFamily.of(range(6), [(0, 1), (2, 3), (0, 4, 5)])
        bound = uncovered_lower_bound(g, range(6), fam, 1.0, 2.0)
        assert (bound.s, bound.t) == ((2,), (3,))

    def test_frozen_instance_bound_at_most_three(self):
        # Frozen: this instance's exhaustive-completion minimum leaves 3 edges
        # uncovered (13 edges, exact coverage maximum 10).
        g = sample_gnp(GnpSpec(8, 0.5, 50_035))
        fam = CoverageFamily.of(range(8), [(2, 5), (2, 7), (4, 7), (4, 5)])
        value, _ = max_coverage_exact(g, range(8), fam)
        assert g.m == 13 and value == 10
        bound = uncovered_lower_bound(g, range(8), fam, 1.0, 2.0, 35)
        assert 0 <= bound.value <= 3

    def test_untouched_vertices_certificate(self):
        # Vertices in no left side: their edges are uncoverable, and the
        # witness route certifies some of them when the quota allows.
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        fam = CoverageFamily.of(range(4), [(0, 1)])
        bound = uncovered_lower_bound(g, range(4), fam, 1.0, base=4.0, seed=3)
        assert bound.value >= bound.witness_bound >= 0

    @pytest.mark.parametrize(
        "epsilon, base, match",
        [(1.0, 1.0, "logarithm base must be finite and exceed 1"),
         (1.0, 0.5, "logarithm base must be finite and exceed 1"),
         (1.0, math.inf, "logarithm base must be finite and exceed 1"),
         (1.0, math.nan, "logarithm base must be finite and exceed 1"),
         (-1.0, 2.0, "epsilon must be positive")],
    )
    def test_parameters_checked_on_two_vertex_universe(self, epsilon, base, match):
        # Two vertices are too few to classify, so the family is never classified.
        fam = CoverageFamily.of(range(2), [(0, 1)])
        with pytest.raises(ValueError, match=match):
            uncovered_lower_bound(Graph.complete(2), range(2), fam, epsilon, base)

    @pytest.mark.parametrize("sets", [[], [(0, 3)], [(0, 1, 2, 3)]], ids=["empty", "pair", "quad"])
    def test_universe_outside_graph_refused(self, sets):
        fam = CoverageFamily.of(range(5), sets)
        with pytest.raises(ValueError, match="universe leaves the graph"):
            uncovered_lower_bound(Graph.complete(3), range(5), fam, 1.0, 2.0)

    def test_never_exceeds_true_minimum(self):
        for s in range(80):
            n = 5 + s % 4
            g = sample_gnp(GnpSpec(n, 0.5, 170_000 + s))
            fam = random_family(n, 1000 + s)
            f_val, _ = max_coverage_exact(g, range(n), fam)
            true_min = g.m - f_val
            for base in (2.0, 5.0):
                bound = uncovered_lower_bound(g, range(n), fam, 1.0, base, s)
                assert bound.value <= true_min, (s, base, bound, true_min)


class TestFamilyJson:
    def test_round_trip(self):
        fam = CoverageFamily.of([0, 2, 4], [(0, 2), (2, 4)])
        assert family_from_json(family_to_json(fam)) == fam

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageFamily.of([0, 1], [(0, 5)])
        with pytest.raises(ValueError):
            CoverageFamily.of([0, 1], [()])
