"""Edge-coverage machinery for families of left sides.

A family of vertex sets A_1..A_k covers edges by playing a sequential game:
pick an order, and for each set in turn pick any subset of its current
common neighborhood as the right side; the chosen cross edges are counted
and removed before the next step.  ``max_coverage_exact`` computes the
exact maximum of this game, which at once upper-bounds how many edges any
edge-disjoint biclique completion of the given left sides can cover.

The order does not change what a play can cover.  A right side L_j lies in
A_j's current common neighborhood exactly when every edge of A_j x L_j is
still present, and those edges belong to A_j's step alone.  So a play is a
family of pairwise edge-disjoint bicliques A_j x L_j with L_j inside A_j's
common neighborhood in the original graph, and the same right sides played
in any order form a play with the same total.

The counting convention matters: each step counts cross edges in the graph
left after all earlier removals, not in the original graph.  The recursive
removal of covered edges forces this reading and it is the one implemented
throughout this module.

Two certificate constructions bound the complementary quantity, edges that
NO completion can cover: ``blocked_edge_count`` for vertices owned by a
single 2-set, and ``shielded_edge_count`` over a peeled witness built by
``peel_witness``.  Both count edges by one guarded-edge rule: an edge
{x, y} counts when x has no edge into y's guard and y has none into x's.
The pair certificate's guard of a vertex is its 2-set partner; the witness
certificate's is the guard set peeling gave it.  ``uncovered_lower_bound``
combines both soundly against an arbitrary mixed family.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .graphs import (
    Graph,
    VertexSet,
    _common_mask,
    _is_int_list,
    _strip,
    _submasks,
    common_neighborhood,
    induced_subgraph,
    iter_bits,
    mask_of,
)

__all__ = [
    "CoverageFamily",
    "CoverageTrace",
    "FamilySplit",
    "WitnessPair",
    "PeelingError",
    "CoverageBound",
    "covered_edges",
    "max_coverage_exact",
    "max_coverage_greedy",
    "replay_trace",
    "exclusive_split",
    "blocked_edge_count",
    "shielded_edge_count",
    "classify_family",
    "peel_witness",
    "uncovered_lower_bound",
    "family_to_json",
    "family_from_json",
]


@dataclass(frozen=True)
class CoverageFamily:
    """A multiset of left sides inside a universe of vertices.

    Duplicates are allowed and meaningful (two equal left sides may cover
    different right sides).  Sets must be nonempty subsets of the universe.
    """

    universe: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        u = set(self.universe)
        if len(u) != len(self.universe):
            raise ValueError("universe contains duplicates")
        for s in self.sets:
            if not s:
                raise ValueError("family sets must be nonempty")
            if len(set(s)) != len(s):
                raise ValueError(f"set {s} contains duplicates")
            if not set(s) <= u:
                raise ValueError(f"set {s} leaves the universe")

    @classmethod
    def of(cls, universe: Iterable[int], sets: Iterable[Iterable[int]]) -> "CoverageFamily":
        return cls(
            tuple(sorted(universe)),
            tuple(tuple(sorted(s)) for s in sets),
        )

    def __len__(self) -> int:
        return len(self.sets)


def family_to_json(fam: CoverageFamily) -> dict:
    return {"universe": list(fam.universe), "sets": [list(s) for s in fam.sets]}


def family_from_json(data: dict) -> CoverageFamily:
    """Parse ``family_to_json`` output; a field of the wrong type raises ValueError."""
    universe, sets = data["universe"], data["sets"]
    if not (_is_int_list(universe) and isinstance(sets, list) and all(map(_is_int_list, sets))):
        raise ValueError('family JSON needs "universe": [int, ...] and "sets": [[int, ...], ...]')
    return CoverageFamily.of(universe, sets)


@dataclass(frozen=True)
class CoverageTrace:
    """One play of the coverage game: order, per-step right sides, edges taken.

    Exact traces play the sets in index order; greedy traces in their
    seeded order.
    """

    order: tuple[int, ...]
    choices: tuple[tuple[int, ...], ...]
    covered: tuple[tuple[tuple[int, int], ...], ...]
    total: int


def covered_edges(g: Graph, left: VertexSet | Iterable[int]) -> list[tuple[int, int]]:
    """Edges with one endpoint in the left side and the other adjacent to all of it."""
    left_mask = mask_of(left)
    if not left_mask:
        raise ValueError("left side must be nonempty")
    cn = common_neighborhood(g, VertexSet(left_mask, g.n)).mask
    return list(_cross_edges(range(g.n), left_mask, cn))


_MAX_EXACT_SETS = 8
_MAX_EXACT_UNIVERSE = 12


def _local_setup(g: Graph, universe, fam: CoverageFamily, limit: int | None = None):
    """Relabel the universe to 0..u-1 and restrict adjacency to it; a
    universe of more than ``limit`` vertices is refused before that."""
    umask = mask_of(universe)
    if umask >> g.n:
        raise ValueError("universe leaves the graph")
    if not set(fam.universe) <= set(iter_bits(umask)):
        raise ValueError("family universe is not contained in the given universe")
    if limit is not None and umask.bit_count() > limit:
        raise ValueError(f"exact coverage refused for more than {limit} universe vertices")
    local, verts = induced_subgraph(g, VertexSet(umask, g.n))
    index = {v: i for i, v in enumerate(verts)}
    set_masks = tuple(mask_of(index[v] for v in s) for s in fam.sets)
    return verts, index, local.adj, set_masks


def _cross_edges(verts: Sequence[int], a_mask: int, l_mask: int) -> tuple[tuple[int, int], ...]:
    """Sorted cross edges between two local masks, in the labels ``verts`` gives."""
    out = []
    for x in iter_bits(a_mask):
        for y in iter_bits(l_mask):
            gx, gy = verts[x], verts[y]
            out.append((gx, gy) if gx < gy else (gy, gx))
    return tuple(sorted(out))


def _maximal_play(
    rows: Sequence[int], set_masks: Sequence[int], order: Iterable[int]
) -> tuple[int, list[int]]:
    """Play the sets in ``order``, each taking its whole current common
    neighborhood; returns (edges covered, right side of each step)."""
    full = (1 << len(rows)) - 1
    total = 0
    sides = []
    for j in order:
        cn = _common_mask(rows, full, set_masks[j])
        sides.append(cn)
        total += set_masks[j].bit_count() * cn.bit_count()
        rows = _strip(rows, set_masks[j], cn)
    return total, sides


def _distinct_edges(nloc: int, set_masks: Sequence[int], sides) -> int:
    """Edges of the union of S_i x CN_i over ``sides``' (i, CN_i) pairs,
    each counted once: both endpoints mark the other."""
    marked = [0] * nloc
    for i, cn in sides:
        for x in iter_bits(set_masks[i]):
            marked[x] |= cn
        for y in iter_bits(cn):
            marked[y] |= set_masks[i]
    return sum(m.bit_count() for m in marked) // 2


def max_coverage_exact(
    g: Graph, universe: VertexSet | Iterable[int], fam: CoverageFamily
) -> tuple[int, CoverageTrace]:
    """Exact maximum total coverage over all orders and right-side choices.

    Depth-first branch and bound over the plays in index order.  A node is
    (next set j, edge state, coverage, right sides so far); its children
    are set j's right sides, from largest down, and j = k is a leaf.  The
    order costs nothing (see the module docstring), so this is the maximum
    over all orders.

    A vertex y of S_j's current common neighbourhood CN_j stays an open
    choice only if a later set can be affected by the edges from S_j to y:
    y belongs to a later set, or y lies in the current CN_i of a later set
    i that shares a member with S_j.  Every other y is always taken.  Its
    edges have no endpoint in a later set, so none of them is a later
    set's cross edge and removing them changes no later CN_i: taking y
    gains |S_j| now and changes nothing after.  The shared-member clause
    is what lets S_j leave y to a later set i when i's cross edges from
    the shared member to y are worth more.  A (next set, edge state) pair
    already expanded with at least as much coverage is skipped.  A node is
    pruned when its coverage plus the sum of |S_i| |CN_i| over sets j..k-1,
    or plus the distinct edges of the union of their S_i x CN_i, cannot
    beat the best play (CN_i only shrinks and an edge is covered once, so
    no continuation covers more).  There is no node budget.

    The trace is the first optimal play of the whole game tree, which at
    each step tries the sets left in index order and then each one's right
    sides from largest down; that play takes the sets in index order, and
    the search returns it.  First, take a node of that tree where sets
    0..j-1 were played in order.  Its subtree's optimum is reached by a
    continuation that plays set j next: reorder any optimal continuation.
    Set j's children come first, so the first optimal leaf lies under the
    first child of set j whose subtree holds an optimal leaf; the subtree
    of each child of j has the same optimum as its index-order part, so
    that child is the same in both trees, and by induction so is the leaf.
    Second, no rule cuts that leaf.  A right side L that lacks some of the
    always-taken vertices F comes after L | F, whose subtree scores exactly
    |S_j| |F - L| more, so L's subtree holds no optimal leaf.  A skipped
    pair's earlier expansion, with at least as much coverage and the same
    sets and edges left, is no ancestor (j only rises), so it has already
    found as much as the skipped subtree could.  The
    prunes cut only subtrees that cannot strictly beat the best play so
    far, which a later leaf must do to replace it.

    Refused above 8 sets or 12 universe vertices; use ``max_coverage_greedy``
    beyond that.
    """
    if len(fam.sets) > _MAX_EXACT_SETS:
        raise ValueError(f"exact coverage refused for more than {_MAX_EXACT_SETS} sets")
    verts, index, rows0, set_masks = _local_setup(g, universe, fam, _MAX_EXACT_UNIVERSE)
    nloc, k = len(verts), len(set_masks)
    full = (1 << nloc) - 1
    sizes = [m.bit_count() for m in set_masks]

    # Explicit stack of (next set, rows, edges covered, right sides so
    # far).  Children are pushed in reverse so they pop from the largest
    # right side down, and only a strictly better leaf replaces the incumbent.
    total, best_play = -1, ()
    reached: dict[tuple[int, tuple[int, ...]], int] = {}
    stack = [(0, rows0, 0, ())]
    while stack:
        j, rows, value, play = stack.pop()
        if j == k:
            if value > total:
                total, best_play = value, play
            continue
        if reached.get((j, rows), -1) >= value:
            continue
        sides = [(i, _common_mask(rows, full, set_masks[i])) for i in range(j, k)]
        if (value + sum(sizes[i] * cn.bit_count() for i, cn in sides) <= total
                or value + _distinct_edges(nloc, set_masks, sides) <= total):
            continue
        reached[j, rows] = value  # expanded states only, so pruning saves memory
        relevant = 0
        for i, cn_i in sides[1:]:
            relevant |= set_masks[i] | (cn_i if set_masks[i] & set_masks[j] else 0)
        cn = sides[0][1]
        undecided = cn & relevant
        base = cn & ~undecided
        children = []
        for sub in _submasks(undecided):
            l_mask = base | sub
            children.append((j + 1, _strip(rows, set_masks[j], l_mask),
                             value + sizes[j] * l_mask.bit_count(), play + (l_mask,)))
        stack.extend(reversed(children))

    trace = CoverageTrace(
        tuple(range(k)),
        tuple(tuple(verts[i] for i in iter_bits(l_mask)) for l_mask in best_play),
        tuple(_cross_edges(verts, set_masks[j], l_mask) for j, l_mask in enumerate(best_play)),
        total,
    )
    # Sanity ceiling: no play can beat the sum of single-set coverages in G[U].
    ceiling = 0
    for m in set_masks:
        ceiling += m.bit_count() * _common_mask(rows0, full, m).bit_count()
    if total > ceiling:
        raise AssertionError("coverage exceeded the single-set ceiling")
    _replay(verts, index, rows0, set_masks, trace)
    return total, trace


def max_coverage_greedy(
    g: Graph, universe: VertexSet | Iterable[int], fam: CoverageFamily, seed: int
) -> tuple[int, CoverageTrace]:
    """Seeded greedy play: random order, full common neighborhood each step.

    A lower bound for the exact maximum, available at any size.
    """
    verts, index, rows, set_masks = _local_setup(g, universe, fam)
    rng = random.Random(seed)
    order = list(range(len(set_masks)))
    rng.shuffle(order)
    total, sides = _maximal_play(rows, set_masks, order)
    trace = CoverageTrace(
        tuple(order),
        tuple(tuple(verts[i] for i in iter_bits(cn)) for cn in sides),
        tuple(_cross_edges(verts, set_masks[j], cn) for j, cn in zip(order, sides)),
        total,
    )
    _replay(verts, index, rows, set_masks, trace)
    return total, trace


def replay_trace(
    g: Graph, universe: VertexSet | Iterable[int], fam: CoverageFamily, trace: CoverageTrace
) -> int:
    """Re-run a trace step by step, checking every stated invariant.

    Verifies that the order is a permutation of the family, each right side
    sits inside the current common neighborhood of its left side, the listed
    edges are exactly the cross edges taken, and no edge appears twice.
    Raises ValueError on any inconsistency; returns the verified total.
    """
    return _replay(*_local_setup(g, universe, fam), trace)


def _replay(verts, index, rows, set_masks, trace: CoverageTrace) -> int:
    """``replay_trace`` on the local state ``_local_setup`` returns."""
    full = (1 << len(verts)) - 1
    if sorted(trace.order) != list(range(len(set_masks))):
        raise ValueError("trace order is not a permutation of the family")
    if len(trace.choices) != len(trace.order) or len(trace.covered) != len(trace.order):
        raise ValueError("trace length mismatch")
    seen: set[tuple[int, int]] = set()
    total = 0
    for j, choice, step in zip(trace.order, trace.choices, trace.covered):
        a_mask = set_masks[j]
        cn = _common_mask(rows, full, a_mask)
        l_mask = 0
        for v in choice:
            if v not in index:
                raise ValueError(f"choice vertex {v} outside the universe")
            l_mask |= 1 << index[v]
        if l_mask & ~cn:
            raise ValueError("right side leaves the current common neighborhood")
        expected = _cross_edges(verts, a_mask, l_mask)
        if sorted(step) != list(expected):
            raise ValueError("covered edges do not match the step's cross edges")
        for e in step:
            if e in seen:
                raise ValueError(f"edge {e} covered twice")
            seen.add(e)
        total += len(expected)
        rows = _strip(rows, a_mask, l_mask)
    if total != trace.total:
        raise ValueError(f"trace total {trace.total} != replayed {total}")
    return total


def _ownership(sets: Iterable[tuple[int, ...]]) -> tuple[int, dict[int, int]]:
    """The mask of vertices lying in exactly one of ``sets``, and for each
    vertex the mask of the last set containing it (its owner, if it has one)."""
    seen = twice = 0
    owner: dict[int, int] = {}
    for s in sets:
        m = mask_of(s)
        twice |= seen & m
        seen |= m
        owner.update(dict.fromkeys(s, m))
    return seen & ~twice, owner


def _guarded_edges(rows: Sequence[int], w_mask: int, guard: Sequence[int]) -> int:
    """Edges {x, y} inside ``w_mask`` where x has no edge into guard[y] and y
    has no edge into guard[x]; both certificates count edges by this rule."""
    total = 0
    for x in iter_bits(w_mask):
        row, gx = rows[x], guard[x]
        for y in iter_bits(row & (w_mask >> (x + 1) << (x + 1))):
            if not (row & guard[y] or rows[y] & gx):
                total += 1
    return total


def exclusive_split(fam: CoverageFamily) -> tuple[VertexSet, VertexSet]:
    """From a family of 2-sets, the exclusively-owned vertices and their partners.

    A vertex qualifies when it lies in exactly one 2-set.  When both
    endpoints of a 2-set qualify, the larger-indexed one is dropped, so no
    kept vertex's partner is also kept.  Returns (kept, partners); the two
    are disjoint and the first is at least as large as the second.
    """
    if not fam.universe:
        return VertexSet(0, 0), VertexSet(0, 0)
    universe_n = max(fam.universe) + 1
    for s in fam.sets:
        if len(s) != 2:
            raise ValueError(f"exclusive split needs 2-sets, got {s}")
    once, owner = _ownership(fam.sets)
    kept = partners = 0
    for v in iter_bits(once):
        partner = owner[v] ^ (1 << v)
        if not (partner & once and partner < (1 << v)):
            kept |= 1 << v
            partners |= partner
    if kept & partners:
        raise AssertionError("kept vertices and partners overlap")
    if kept.bit_count() < partners.bit_count():
        raise AssertionError("partner set larger than kept set")
    return VertexSet(kept, universe_n), VertexSet(partners, universe_n)


def blocked_edge_count(g: Graph, fam: CoverageFamily, s: VertexSet | Iterable[int]) -> int:
    """Edges inside ``s`` that no completion of the 2-set family can cover.

    Counts pairs u, v in s with {u, v} an edge while u is not adjacent to
    v's partner and v is not adjacent to u's partner: the guarded-edge rule
    with each vertex's partner as its guard.  Such an edge could only be
    covered via one of the two owning 2-sets, and the missing partner edges
    rule both out.
    """
    s_mask = mask_of(s)
    if (s_mask | mask_of(fam.universe)) >> g.n:
        raise ValueError("family or certificate vertices leave the graph")
    once, owner = _ownership(pair for pair in fam.sets if len(pair) == 2)
    unowned = s_mask & ~once
    if unowned:
        v = (unowned & -unowned).bit_length() - 1
        raise ValueError(f"vertex {v} is not owned by exactly one 2-set")
    guard = [0] * g.n
    for v in iter_bits(s_mask):
        guard[v] = owner[v] ^ (1 << v)
    return _guarded_edges(g.adj, s_mask, guard)


def shielded_edge_count(
    g: Graph,
    universe: VertexSet | Iterable[int],
    w: VertexSet | Iterable[int],
    guards: Mapping[int, Iterable[int]],
) -> int:
    """Edges inside ``w`` with no cross edge into each other's guard set.

    ``guards`` maps each w-vertex to a set of vertices outside w (within the
    universe); missing entries mean an empty guard.  Guard sets must be
    pairwise disjoint.  An edge {x, y} counts when x has no edge into
    guards[y] and y has no edge into guards[x].
    """
    u_mask = mask_of(universe)
    if u_mask >> g.n:
        raise ValueError("universe leaves the graph")
    w_mask = mask_of(w)
    if w_mask & ~u_mask:
        raise ValueError("w must sit inside the universe")
    guard = [0] * g.n
    taken = 0
    for v, gset in guards.items():
        if not (w_mask >> v) & 1:
            raise ValueError(f"guard key {v} is not a member of w")
        gm = mask_of(gset)
        if gm & w_mask:
            raise ValueError(f"guard set of {v} intersects w")
        if gm & ~u_mask:
            raise ValueError(f"guard set of {v} leaves the universe")
        if gm & taken:
            raise ValueError("guard sets overlap")
        taken |= gm
        guard[v] = gm
    return _guarded_edges(g.adj, w_mask, guard)


def _degrees(sets: Iterable[tuple[int, ...]], n: int) -> list[int]:
    """How many of ``sets`` contain each vertex of 0..n-1."""
    degree = [0] * n
    for s in sets:
        for v in s:
            degree[v] += 1
    return degree


def _delta1(epsilon: float) -> float:
    return min(epsilon / (4.0 * (3.0 + epsilon)), 1.0 / 200.0)


def _log_base(x: float, base: float) -> float:
    return math.log(x) / math.log(base)


@dataclass(frozen=True)
class FamilySplit:
    """Size-threshold classification of a family.

    ``small`` and ``pairs`` are index tuples into the family's sets: sizes
    strictly below delta1 * log_base(u), and exactly 2.  The tiers nest only
    once the threshold exceeds 2, which takes an enormous universe or a base
    close to 1; at small scale they are computed exactly as defined, nothing
    more.
    """

    small: tuple[int, ...]
    pairs: tuple[int, ...]
    delta1: float
    u: int


def classify_family(fam: CoverageFamily, epsilon: float, base: float) -> FamilySplit:
    """Split a family by the delta1 size threshold.

    delta1 = min(epsilon / (4 (3 + epsilon)), 1/200).  Membership uses strict
    inequality against delta1 * log_base(u) where u is the universe size.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if base <= 1:
        raise ValueError("logarithm base must exceed 1")
    u = len(fam.universe)
    if u < 3:
        raise ValueError("universe too small to classify (need at least 3 vertices)")
    for s in fam.sets:
        if len(s) < 2:
            raise ValueError("classification expects sets of size at least 2")
    d1 = _delta1(epsilon)
    lbu = _log_base(u, base)
    small = tuple(i for i, s in enumerate(fam.sets) if len(s) < d1 * lbu)
    pairs = tuple(i for i, s in enumerate(fam.sets) if len(s) == 2)
    return FamilySplit(small, pairs, d1, u)


class PeelingError(RuntimeError):
    """Raised when the witness peeling cannot complete its quota of steps."""

    def __init__(self, message: str, steps: int):
        super().__init__(message)
        self.steps = steps


@dataclass(frozen=True)
class WitnessPair:
    """Peeled witness: an ordered vertex list and per-vertex guard sets.

    Guard sets are pairwise disjoint and disjoint from the vertex list, so
    they are directly usable with ``shielded_edge_count``.
    """

    order: tuple[int, ...]
    guards: dict[int, tuple[int, ...]] = field(default_factory=dict)


def peel_witness(
    fam: CoverageFamily,
    w: VertexSet | Iterable[int],
    base: float,
    ordering: Sequence[int] | None = None,
    degree_bound: float | None = None,
) -> WitnessPair:
    """Peel a witness out of the hypergraph (universe, family sets).

    Runs for q = floor(|w| / log_base(u)^2) steps.  Each step takes the first
    surviving vertex v of the ordering, collects the surviving set fragments
    containing v, additionally removes every fragment left with exactly one
    vertex outside their union, and deletes all touched vertices (v included,
    so isolated vertices still advance the peeling).  The guard of v picks
    the smallest non-v vertex from each of its fragments.

    Raises PeelingError if w runs out before q steps, or if some fragment
    containing the current vertex has no other vertex left to guard with
    (either way the witness would not certify anything).  When
    ``degree_bound`` is given, every w-vertex must have strictly fewer
    incident family sets than the bound.
    """
    if base <= 1:
        raise ValueError("logarithm base must exceed 1")
    u = len(fam.universe)
    if u < 2:
        raise ValueError("universe too small to peel")
    w_mask = mask_of(w)
    universe_mask = mask_of(fam.universe)
    if w_mask & ~universe_mask:
        raise ValueError("w must sit inside the family universe")
    if degree_bound is not None:
        degree = _degrees(fam.sets, universe_mask.bit_length())
        for v in iter_bits(w_mask):
            if degree[v] >= degree_bound:
                raise ValueError(f"vertex {v} has hypergraph degree {degree[v]} >= bound")
    if ordering is None:
        order_list = list(iter_bits(w_mask))
    else:
        order_list = list(ordering)
        if mask_of(order_list) != w_mask or len(order_list) != w_mask.bit_count():
            raise ValueError("ordering must enumerate w exactly once")
    lbu = _log_base(u, base)
    q = int(w_mask.bit_count() // (lbu * lbu))

    fragments = [mask_of(s) for s in fam.sets]
    removed = 0
    out_order: list[int] = []
    guards: dict[int, tuple[int, ...]] = {}
    for step in range(q):
        v = next((x for x in order_list if not (removed >> x) & 1), None)
        if v is None:
            raise PeelingError(
                f"peeling needed {q} steps but w was exhausted after {step}", step
            )
        v_bit = 1 << v
        guard = union_incident = 0
        for frag in fragments:
            if frag & v_bit:
                rest = frag & ~v_bit
                if not rest:
                    raise PeelingError(
                        f"fragment at vertex {v} has no guard representative (step {step})",
                        step,
                    )
                guard |= rest & -rest
                union_incident |= frag
        wipe = v_bit | union_incident
        for frag in fragments:
            if (frag & ~union_incident).bit_count() == 1:
                wipe |= frag
        removed |= wipe
        fragments = [frag & ~wipe for frag in fragments if frag & ~wipe]
        out_order.append(v)
        guards[v] = tuple(iter_bits(guard))

    taken = 0
    out_mask = mask_of(out_order)
    for gset in guards.values():
        gm = mask_of(gset)
        if gm & out_mask:
            raise AssertionError("guard set touches the witness vertices")
        if gm & taken:
            raise AssertionError("guard sets overlap")
        taken |= gm
    return WitnessPair(tuple(out_order), guards)


@dataclass(frozen=True)
class CoverageBound:
    """Certified lower bound on edges no completion of the family can cover."""

    value: int
    pair_bound: int
    witness_bound: int
    s: tuple[int, ...] = ()
    t: tuple[int, ...] = ()
    witness: WitnessPair | None = None
    note: str = ""


def uncovered_lower_bound(
    g: Graph,
    universe: VertexSet | Iterable[int],
    fam: CoverageFamily,
    epsilon: float,
    base: float,
    seed: int = 0,
) -> CoverageBound:
    """Best certified lower bound on edges of G[universe] left uncovered by
    every edge-disjoint biclique completion of the family's left sides.

    Combines the 2-set pair certificate and the peeled-witness certificate.
    Both are made sound against the whole mixed family: the pair certificate
    only keeps vertices whose single membership across the entire family is
    a 2-set, and the witness pool drops any vertex touched by a set outside
    the small tier, so an edge counted by either certificate has no covering
    left side at all outside the cases the certificate itself excludes.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if base <= 1:
        raise ValueError("logarithm base must exceed 1")
    u_mask = mask_of(universe)
    if u_mask >> g.n:
        raise ValueError("universe leaves the graph")
    if mask_of(fam.universe) & ~u_mask:
        raise ValueError("family universe leaves the given universe")
    if not fam.sets:
        return CoverageBound(0, 0, 0, note="no-certificate")

    # Pair certificate on exclusively-owned 2-set vertices.  Ownership is
    # counted across the whole family so larger sets cannot sneak in a cover.
    once, owner = _ownership(fam.sets)
    fam2 = CoverageFamily.of(fam.universe, [s for s in fam.sets if len(s) == 2])
    keep = VertexSet(exclusive_split(fam2)[0].mask & once, g.n)
    # A kept vertex's one set is its 2-set, so its owner names its partner.
    partners = 0
    for v in keep:
        partners |= owner[v] ^ (1 << v)
    t = VertexSet(partners, g.n)
    pair_bound = blocked_edge_count(g, fam2, keep) if keep else 0

    # Witness certificate over the small tier.  Vertices touched by any set
    # outside the tier are excluded from the pool, so every left side meeting
    # the witness is represented in a guard set.
    witness_bound = 0
    witness: WitnessPair | None = None
    note = ""
    u_size = len(fam.universe)
    small_sets: list[tuple[int, ...]] = []
    if u_size >= 3:
        classified = [s for s in fam.sets if len(s) >= 2]
        split = classify_family(CoverageFamily.of(fam.universe, classified), epsilon, base)
        small_sets = [classified[i] for i in split.small]
    blocked = mask_of(v for s in fam.sets if s not in small_sets for v in s)
    if u_size >= 2:
        d1 = _delta1(epsilon)
        degree_cap = (d1 / 2.0 - d1 / 3000.0) * _log_base(u_size, base)
        degree = _degrees(small_sets, max(fam.universe) + 1)
        pool = [v for v in fam.universe if not (blocked >> v) & 1 and degree[v] < degree_cap]
        if pool:
            random.Random(seed).shuffle(pool)
            try:
                witness = peel_witness(CoverageFamily.of(fam.universe, small_sets), pool, base,
                                       ordering=pool)
                witness_bound = shielded_edge_count(
                    g, VertexSet(u_mask, g.n), witness.order, witness.guards
                )
            except PeelingError as exc:
                note = f"witness peeling failed after {exc.steps} steps"

    return CoverageBound(max(pair_bound, witness_bound), pair_bound, witness_bound,
                         keep.as_tuple(), t.as_tuple(), witness, note)
