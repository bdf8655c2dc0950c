"""Biclique edge partitions: validation, constructions, and exact solvers.

The bipartition number of a graph is the minimum number of edge-disjoint
complete bipartite subgraphs (bicliques) whose union is the edge set; the
strong variant forbids stars (parts with a singleton side) and is infinite
when no star-free partition exists.  This module provides the partition
data model, constructive upper bounds built from independent sets and
induced bicliques, a stars-first normal form, and branch-and-bound exact
solvers for both quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import (
    Graph,
    VertexSet,
    _alpha_branch_and_bound,
    _common_mask,
    _independent,
    _is_int_list,
    _packed,
    _pairs_are_edges,
    _strip,
    _submasks,
    independence_number_exact,
    iter_bits,
    mask_of,
)
from .spectral import _gp_bounds, _matrix, graham_pollak_lower_bound
from .spectral import inertia_from_rows  # noqa: F401  (bench/tracing.py wraps this name)

__all__ = [
    "INFINITY",
    "Biclique",
    "BicliquePartition",
    "SolveResult",
    "EXACT",
    "LOWER_BOUND_ONLY",
    "validate_partition",
    "star_decomposition",
    "star_plus_biclique_decomposition",
    "largest_induced_biclique",
    "is_induced_biclique",
    "normalize_stars_first",
    "partition_number_exact",
    "strong_partition_number_exact",
    "partition_to_json",
    "partition_from_json",
    "solve_result_to_json",
]

INFINITY = math.inf

EXACT = "exact"
LOWER_BOUND_ONLY = "lower-bound-only"


@dataclass(frozen=True)
class Biclique:
    """One complete bipartite part: disjoint nonempty sides a and b.

    Each side is an int bitmask of vertices (bit v set iff v is on that
    side), the same form as the rows of ``Graph.adj``.  In the context of a
    host graph every pair (x in a, y in b) must be an edge; that is checked
    by the validators, not the constructor.  A part with a singleton side is
    a star and the singleton is its center.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError("biclique sides must be nonempty vertex masks")
        if self.a & self.b:
            raise ValueError("biclique sides must be disjoint")

    @classmethod
    def of(cls, a: VertexSet | Iterable[int], b: VertexSet | Iterable[int]) -> "Biclique":
        """Build from vertex sets with canonical orientation: |a| <= |b|, ties
        broken by min vertex.  A negative vertex raises ValueError."""
        ma, mb = mask_of(a), mask_of(b)
        if (ma.bit_count(), ma & -ma) > (mb.bit_count(), mb & -mb):
            ma, mb = mb, ma
        return cls(ma, mb)

    @property
    def is_star(self) -> bool:
        return self.a.bit_count() == 1 or self.b.bit_count() == 1

    def edge_count(self) -> int:
        return self.a.bit_count() * self.b.bit_count()


@dataclass(frozen=True)
class BicliquePartition:
    """An ordered list of bicliques together with the graph they partition."""

    host: Graph
    parts: tuple[Biclique, ...]

    def __len__(self) -> int:
        return len(self.parts)

    def violations(self) -> list[str]:
        return validate_partition(self.host, self)

    def is_valid(self) -> bool:
        return not self.violations()


def _is_edge_partition(g: Graph, parts: tuple[Biclique, ...]) -> bool:
    """True iff ``parts`` partition E(g), in O(sum of min(|a|, |b|)) row operations.

    Each part's smaller side records its cross pairs.  When every cross pair
    is an edge and the recorded pairs are all of E(g), every edge is covered;
    when Σ|a||b| is also m, the claims number no more than the edges they
    cover, so none is covered twice.  A valid partition meets all three.
    """
    recorded = [0] * g.n
    total = 0
    for part in parts:
        small, large = part.a, part.b
        if (small | large) >> g.n:
            return False
        if small.bit_count() > large.bit_count():
            small, large = large, small
        for x in iter_bits(small):
            if g.adj[x] & large != large:
                return False
            recorded[x] |= large
        total += small.bit_count() * large.bit_count()
    return total == g.m and _pairs_are_edges(g, recorded)


def validate_partition(g: Graph, partition: BicliquePartition) -> list[str]:
    """Every violation of the edge-partition contract, as stable diagnostic strings.

    Checks, per part: vertices in range and every cross pair an edge of g;
    across parts: no edge used twice; globally: every edge of g covered.
    An empty list means the partition is valid.  A valid partition is
    recognised by ``_is_edge_partition`` without listing any pair; only a
    partition it rejects is scanned pair by pair for the diagnostics.
    """
    if _is_edge_partition(g, partition.parts):
        return []
    issues: list[str] = []
    claimed = [0] * g.n  # claimed[x]: neighbors y whose edge {x, y} some part already holds
    full = g.vertex_mask
    for i, part in enumerate(partition.parts):
        for v in iter_bits((part.a | part.b) & ~full):
            issues.append(f"vertex-out-of-range: {v} in part {i}")
        amask, bmask = part.a & full, part.b & full
        for x in iter_bits(amask):
            row = g.adj[x]
            for y in iter_bits(bmask & ~(row & ~claimed[x])):
                e = (x, y) if x < y else (y, x)
                if not (row >> y) & 1:
                    issues.append(f"non-edge: {e} claimed by part {i}")
                else:
                    first = next(j for j, q in enumerate(partition.parts)
                                 if ((q.a >> x) & (q.b >> y) | (q.b >> x) & (q.a >> y)) & 1)
                    issues.append(f"duplicate-edge: {e} in parts {first} and {i}")
            claimed[x] |= bmask & row
        for y in iter_bits(bmask):
            claimed[y] |= amask & g.adj[y]
    for v in range(g.n):
        w = (g.adj[v] & ~claimed[v]) >> (v + 1)
        for u in iter_bits(w):
            issues.append(f"uncovered-edge: {(v, v + 1 + u)}")
    return issues


def _stars_outside(g: Graph, inside: int) -> list[Biclique]:
    """Stars centered at the vertices outside ``inside``, in ascending order;
    each takes the center's edges not already held by an earlier star."""
    parts: list[Biclique] = []
    used_centers = 0
    for c in iter_bits(g.vertex_mask & ~inside):
        leaves = g.adj[c] & ~used_centers
        used_centers |= 1 << c
        if leaves:
            parts.append(Biclique(1 << c, leaves))
    return parts


def star_decomposition(g: Graph, independent: VertexSet | Iterable[int]) -> BicliquePartition:
    """Partition E(g) into stars centered outside a given independent set.

    Centers are the vertices outside the set, processed in ascending order;
    each star's leaves are the center's neighbors not yet used as centers.
    Centers left with no leaves are dropped, so the result has at most
    n - |independent| parts.
    """
    imask = mask_of(independent)
    if imask >> g.n:
        raise ValueError("independent set contains out-of-range vertices")
    if not _independent(g.adj, imask):
        raise ValueError("the given vertex set is not independent")
    return BicliquePartition(g, tuple(_stars_outside(g, imask)))


def is_induced_biclique(g: Graph, part: Biclique) -> bool:
    """True iff the subgraph induced by a union b is exactly complete bipartite."""
    a, b = part.a, part.b
    if (a | b) >> g.n:
        return False
    return _independent(g.adj, a) and _independent(g.adj, b) and _common_mask(g.adj, b, a) == b


def star_plus_biclique_decomposition(g: Graph, ab: Biclique) -> BicliquePartition:
    """Stars centered outside an induced biclique, plus the biclique itself.

    With k = |a| + |b| vertices in the induced part this yields at most
    n - k + 1 parts.
    """
    if not is_induced_biclique(g, ab):
        raise ValueError("the given part is not an induced complete bipartite subgraph")
    parts = _stars_outside(g, ab.a | ab.b)
    parts.append(ab)
    return BicliquePartition(g, tuple(parts))


_EXACT_BETA_LIMIT = 18


def largest_induced_biclique(g: Graph) -> Biclique | None:
    """Induced complete bipartite subgraph maximizing |a| + |b|, exactly.

    Refused for n > 18.  Completes each independent a side, in ascending
    preorder, with a maximum independent subset of its common neighborhood
    from ``_alpha_branch_and_bound``.  Returns None on edgeless graphs,
    where no biclique exists at all.
    """
    if g.n > _EXACT_BETA_LIMIT:
        raise ValueError(f"exact induced-biclique search refused for n > {_EXACT_BETA_LIMIT}")
    if g.m == 0:
        return None
    adj = g.adj
    best_size, best = 0, (0, 0)
    # (a side, its common neighborhood, the higher nonadjacent vertices it may grow by)
    stack = [(0, 0, g.vertex_mask)]
    while stack:
        a_mask, cn, cand = stack.pop()
        size = a_mask.bit_count()
        if cn and size + cn.bit_count() > best_size:
            got, b_mask, complete, _ = _alpha_branch_and_bound(
                adj, cn, 1 << (cn.bit_count() + 1), (best_size - size, 0)
            )
            assert complete  # an include/exclude tree over k vertices has < 2^(k+1) nodes
            if size + got > best_size:
                best_size, best = size + got, (a_mask, b_mask)
        if a_mask and (not cn or size + cn.bit_count() + cand.bit_count() <= best_size):
            continue  # a child adds vertices of cand and keeps part of cn: none can win
        # Highest vertex pushed first, so children pop in ascending order (preorder).
        for v in reversed(list(iter_bits(cand))):
            new_cn = (cn & adj[v]) if a_mask else adj[v]
            stack.append((a_mask | (1 << v), new_cn, (cand >> (v + 1) << (v + 1)) & ~adj[v]))
    return Biclique.of(VertexSet(best[0], g.n), VertexSet(best[1], g.n))


def normalize_stars_first(g: Graph, partition: BicliquePartition) -> BicliquePartition:
    """Stars-first normal form: no non-star part touches any star center.

    Strips star-center vertices out of non-star parts, merging the split-off
    rows into the existing star with that center.  The output is a valid
    partition with at most as many parts, at least as many stars, all stars
    leading, and every non-star part disjoint from the star centers.
    """
    issues = validate_partition(g, partition)
    if issues:
        raise ValueError(f"input partition invalid: {issues[0]}")

    # A part is a star on its smaller side (a on a tie) when that side is one vertex.
    stars: list[tuple[int, int]] = []  # (center, leaves mask)
    nonstars: list[tuple[int, int]] = []  # (a mask, b mask)
    star_index: dict[int, int] = {}  # center -> index of its first star
    for part in partition.parts:
        small = min(part.a, part.b, key=int.bit_count)
        if small.bit_count() == 1:
            star_index.setdefault(small.bit_length() - 1, len(stars))
            stars.append((small.bit_length() - 1, (part.a | part.b) & ~small))
        else:
            nonstars.append((part.a, part.b))
    centers = mask_of(star_index)  # kept up to date as stars are added

    def merge_into_star(center: int, extra: int) -> None:
        i = star_index[center]
        c, leaves = stars[i]
        if leaves & extra:
            raise AssertionError("merged star leaves overlap existing leaves")
        stars[i] = (c, leaves | extra)

    # Split the first non-star that touches a center.  A new star can make an
    # earlier non-star touch one, so every search starts from the front.
    while True:
        idx = next((i for i, (a, b) in enumerate(nonstars) if (a | b) & centers), None)
        if idx is None:
            break
        amask, bmask = nonstars.pop(idx)
        for v in iter_bits(amask & centers):
            merge_into_star(v, bmask)
        a_rest, b_rest = amask & ~centers, bmask & ~centers
        for v in iter_bits(bmask & centers):
            merge_into_star(v, a_rest)  # a no-op when a_rest is empty
        # What is left is a star, a smaller non-star in the same place, or
        # nothing when a rest is empty.
        small = min(a_rest, b_rest, key=int.bit_count)
        if small.bit_count() > 1:
            nonstars.insert(idx, (a_rest, b_rest))
        elif small:
            c = small.bit_length() - 1
            star_index[c] = len(stars)
            stars.append((c, (a_rest | b_rest) & ~small))
            centers |= small

    parts = [Biclique(1 << c, leaves) for c, leaves in stars]
    parts.extend(Biclique(a, b) for a, b in nonstars)
    # The input is valid and each step only moves edges between parts (merged
    # leaves are asserted disjoint), so an edge lost or held twice shows in the total.
    total = sum(part.edge_count() for part in parts)
    if total != g.m:
        raise AssertionError(f"normalization broke the partition: {total} edges, host has {g.m}")
    if len(parts) > len(partition.parts):
        raise AssertionError("normalization increased the part count")
    return BicliquePartition(g, tuple(parts))


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome.

    ``value`` is the optimum when status is "exact" (possibly INFINITY for the
    star-free variant, certifying that the completed search found no
    partition).  A search is also exact as soon as its incumbent meets the
    Graham-Pollak bound of the whole graph, with the nodes left unvisited.
    On budget exhaustion status is "lower-bound-only": ``value``
    is the best incumbent found, ``lower_bound`` the best proven bound.
    ``witness`` is None when value is 0 by definition or INFINITY.
    """

    value: int | float
    witness: BicliquePartition | None
    status: str
    lower_bound: int | float
    nodes: int


def _least_degree_sum(rows: tuple[int, ...]) -> tuple[int, int]:
    """The edge (u, v), u < v, of ``rows`` with the least deg(u) + deg(v); ties
    go to the lexicographically first."""
    degree = [row.bit_count() for row in rows]
    best_key, best = INFINITY, (0, 0)
    for u, row in enumerate(rows):
        upper = row >> (u + 1) << (u + 1)
        if upper:
            v = min(iter_bits(upper), key=degree.__getitem__)  # the first of equal degree
            if degree[u] + degree[v] < best_key:
                best_key, best = degree[u] + degree[v], (u, v)
    return best


# The most 4-cycles a star-free search tabulates (see _cycle_table), whose
# memory grows as edges x 4-cycles.  The graphs the tests and the bench solve
# have at most 2,267 (G(16, 0.8)); G(60, 0.5) has about 80,000, and its table
# takes about 6 MB.
_MAX_FOUR_CYCLES = 1 << 16


def _four_cycle_count(rows: tuple[int, ...]) -> int:
    """The number of 4-cycles of ``rows``, in O(n^2) row operations: each
    4-cycle u-x-w-y-u has the two diagonals uw and xy, and a pair u, w spans
    C(|N(u) & N(w)|, 2) 4-cycles as a diagonal."""
    total = 0
    for u, row in enumerate(rows):
        for other in rows[u + 1:]:
            common = (row & other).bit_count()
            total += common * (common - 1)
    return total // 4


def _cycle_table(rows: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[dict[int, int]], list[int]]:
    """The 4-cycle table of a star-free search's root: its edges (u, v), u < v,
    in lexicographic order; the index of each edge, ``index[u][v]`` and
    ``index[v][u]``; and per edge an int mask over the root's 4-cycles, bit k
    set iff 4-cycle k passes through the edge.

    4-cycle k is listed once, by its least vertex u, the vertex w opposite
    u, and u's neighbours x < y on the cycle, both in N(u) & N(w) and so
    above u.  The 4-cycles of one pair u < w are numbered in a block, by
    the pairs (x, y) of those c common neighbours in lexicographic order.
    Which bits of a block hold the i-th neighbour depends on c alone, so
    each edge ux and wx takes its block's bits in one shifted OR.
    """
    edges = [(u, v) for u, row in enumerate(rows) for v in iter_bits(row >> (u + 1) << (u + 1))]
    index: list[dict[int, int]] = [{} for _ in rows]
    for e, (u, v) in enumerate(edges):
        index[u][v] = index[v][u] = e
    cycles = [0] * len(edges)
    block_bits: dict[int, list[int]] = {}  # c -> per neighbour i, its bits in a block of C(c, 2)
    first = 0  # the number of the block's first 4-cycle
    for u, row in enumerate(rows):
        above, at_u = row >> (u + 1) << (u + 1), index[u]
        for w in range(u + 1, len(rows)):
            common = above & rows[w]
            c = common.bit_count()
            if c < 2:
                continue
            if c not in block_bits:
                through, bit = [0] * c, 1
                for i in range(c):
                    for j in range(i + 1, c):
                        through[i] |= bit
                        through[j] |= bit
                        bit <<= 1
                block_bits[c] = through
            at_w = index[w]
            for x, bits in zip(iter_bits(common), block_bits[c]):
                bits <<= first
                cycles[at_u[x]] |= bits
                cycles[at_w[x]] |= bits
            first += c * (c - 1) // 2
    return edges, index, cycles


def _strip_cycles(table: tuple, alive: int, resid: int, a_mask: int, b_mask: int) -> tuple[int, int]:
    """The alive 4-cycles and residual edges of a node, as masks over
    ``table``'s 4-cycles and edges, after its part A x B is stripped: each
    stripped edge leaves ``resid``, and every 4-cycle through it dies.  The
    inner bit loop is ``iter_bits`` written out, as this runs at every
    star-free node that reaches the 4-cycle scan."""
    _, index, cycles = table
    killed = gone = 0
    for x in iter_bits(a_mask):
        at_x = index[x]
        ys = b_mask
        while ys:
            low = ys & -ys
            ys ^= low
            e = at_x[low.bit_length() - 1]
            killed |= cycles[e]
            gone |= 1 << e
    return alive & ~killed, resid & ~gone


def _fewest_alive_cycles(table: tuple, alive: int, resid: int) -> tuple[int, int] | None:
    """The residual edge (u, v), u < v, on the fewest alive 4-cycles; ties go
    to the lexicographically first.  None when some residual edge lies on no
    alive 4-cycle, or when no edge is left.

    A 4-cycle of the residual graph is a 4-cycle of the root whose four
    edges are all residual, so the alive 4-cycles through an edge are
    exactly its 4-cycles in the residual graph.  Edges are numbered in
    lexicographic order, so ``resid`` is walked in ascending bit order.
    """
    edges, _, cycles = table
    best_count, best = INFINITY, None
    while resid:
        low = resid & -resid
        resid ^= low
        e = low.bit_length() - 1
        count = (alive & cycles[e]).bit_count()
        if not count:
            return None
        if count < best_count:
            best_count, best = count, edges[e]
    return best


# The most sibling children whose bounds one call of _child_bounds computes.
_BOUND_BLOCK = 64

# Blocks of fewer children skip _update_bounds.  Its fixed cost, one
# eigendecomposition and about forty small numpy calls, meets the direct
# solve's per-child cost at about ten children (over the 1,195 blocks of one
# exact-small bench pass, 2-core x86-64, numpy 2.4 on one OpenBLAS thread).
_UPDATE_MIN = 10

# In _update_bounds a quantity of magnitude at most _ZERO counts as zero.  A
# child with a 2 x 2 eigenvalue or d^T T d in (_ZERO, _CHILD_CLEAR], and every
# child of a parent with an eigenvalue in (_ZERO, _PARENT_CLEAR], is too near
# a sign change to read and is left to the direct eigen-solve.
_ZERO = 1e-9
_CHILD_CLEAR = 1e-6
_PARENT_CLEAR = 1e-4


def _pair_eigenvalues(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper eigenvalues of the symmetric 2 x 2 matrices whose
    entries (xx, xy, yy) are the rows of ``entries``."""
    xx, xy, yy = entries
    mean = (xx + yy) / 2
    radius = np.hypot((xx - yy) / 2, xy)
    return mean - radius, mean + radius


def _update_bounds(
    parent: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """max(n+, n-) of each child M - u v^T - v u^T of the parent matrix M, one
    child per row of ``u`` and ``v``, from one eigendecomposition of M; and
    the mask of the children it leaves to the direct eigen-solve.

    With W = [u v] and S = [[0, 1], [1, 0]], the child C = M - W S W^T is the
    Schur complement of S (its own inverse) in K = [[M, W], [W^T, S]], so
    n+-(C) = n+-(K) - 1 by Haynsworth's inertia additivity (Haynsworth
    1968).  With M = Q L Q^T, split Q^T W into its rows W1 on the nonzero
    eigenvalues L1 and W0 on the null space; then n+-(K) = n+-(M) + n+-(R)
    with R = [[0, W0], [W0^T, T]] and T = S - W1^T L1^-1 W1, and

    - rank W0 = 2: n+-(R) = 2;
    - rank W0 = 1: n+-(R) = 1 + [+-d^T T d > 0], d a unit vector of ker W0;
    - rank W0 = 0: n+-(R) = n+-(T).

    The rank is read from the eigenvalues of W0^T W0.  Every child is left
    to the direct solve when M has an eigenvalue near zero, and a child when
    one of the 2 x 2 quantities it reads is near zero (see ``_ZERO``).
    """
    k, n = u.shape
    unread = np.zeros(k, np.int64), np.ones(k, bool)
    try:
        lam, q = np.linalg.eigh(parent)
    except np.linalg.LinAlgError:
        return unread
    null = np.abs(lam) <= _ZERO
    if np.any(~null & (np.abs(lam) <= _PARENT_CLEAR)):
        return unread
    wu, wv = u @ q, v @ q
    weights = np.stack((null, np.divide(1.0, lam, out=np.zeros(n), where=~null)), axis=1)
    # Per child, the entries (uu, uv, vv) of W0^T W0 and of W1^T L1^-1 W1.
    gram, form = (np.stack((wu * wu, wu * wv, wv * wv)) @ weights).transpose(2, 0, 1)
    t = np.stack((-form[0], 1 - form[1], -form[2]))
    gram_low, gram_high = _pair_eigenvalues(gram)
    rank = (gram_low > _ZERO).astype(np.int64) + (gram_high > _ZERO)
    t_low, t_high = _pair_eigenvalues(t)
    # With rank 1, W0^T W0 = g e e^T, g its trace, and d = (-e_v, e_u).
    trace = np.where(rank == 1, gram[0] + gram[2], 1.0)
    dtd = (gram[2] * t[0] - 2 * gram[1] * t[1] + gram[0] * t[2]) / trace
    # n+-(R) is rank W0 plus the sign counts of these two rows.
    signs = np.stack((np.where(rank == 0, t_low, np.where(rank == 1, dtd, 0.0)),
                      np.where(rank == 0, t_high, 0.0)))
    read = np.abs(np.concatenate((signs, [gram_low, gram_high])))
    unsure = np.any((read > _ZERO) & (read <= _CHILD_CLEAR), axis=0)
    n_plus = np.count_nonzero(lam > _ZERO) + rank - 1 + np.count_nonzero(signs > _ZERO, axis=0)
    n_minus = np.count_nonzero(lam < -_ZERO) + rank - 1 + np.count_nonzero(signs < -_ZERO, axis=0)
    return np.maximum(n_plus, n_minus), unsure


def _direct_bounds(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[int]:
    """max(n+, n-) of each child M - u v^T - v u^T of the parent matrix M, one
    child per row of ``u`` and ``v``, from one stacked eigen-solve of the
    children's matrices."""
    cross = u[:, :, None] * v[:, None, :]
    return _gp_bounds(parent - cross - cross.transpose(0, 2, 1))


def _child_bounds(rows: tuple[int, ...], n: int, sides: list[tuple[int, int]]) -> list[int]:
    """The Graham-Pollak bound of each child that strips one (a side, b side)
    of ``sides`` off ``rows``.

    A child's matrix is the parent's less u v^T + v u^T, where u and v are
    the 0/1 indicators of its sides.  That is exact in float64: the sides
    are disjoint and every cross pair is an edge of ``rows``, so each
    subtracted 1 meets a 1.  A block of ``_UPDATE_MIN`` or more children is
    bounded from one eigendecomposition of the parent (``_update_bounds``);
    a smaller block, and the children the update leaves, by the eigen-solve
    of their own matrices (``_direct_bounds``).
    """
    parent = _matrix(_packed(rows, n), n)
    u = _matrix(_packed([a for a, _ in sides], n), n)
    v = _matrix(_packed([b for _, b in sides], n), n)
    if len(sides) < _UPDATE_MIN:
        return _direct_bounds(parent, u, v)
    bounds, unsure = _update_bounds(parent, u, v)
    if unsure.any():
        bounds[unsure] = _direct_bounds(parent, u[unsure], v[unsure])
    return bounds.tolist()


def _children(
    node: tuple[tuple[int, ...], int, int], parts: tuple[tuple[int, int], ...], a: int, b: int,
    min_side: int,
) -> list[tuple]:
    """The stack entries of the bicliques of a node's rows through edge ab
    with both sides of at least ``min_side`` vertices, sorted in reverse, so
    that they pop largest part first.  ``node`` is (rows, alive 4-cycles,
    residual edges), the parent of every entry.

    Side A is a plus a subset of N(b) - a, and side B is b plus a subset of
    the common neighbourhood of A.  A walk grows A one vertex of N(b) - a at
    a time, in ascending order, so it reaches each subset once, and carries
    A's common neighbourhood less b: one row operation per step.  A branch
    whose common neighbourhood has fewer than ``min_side`` - 1 vertices is
    cut, as no A that grows from it has a B side of ``min_side``.

    With ``min_side`` 2 a child born with a vertex of degree 1 gets the
    bound INFINITY: that vertex's one edge lies in no star-free biclique, so
    no star-free partition completes the child.  The star-free search lists
    children only at nodes with no vertex of degree 1 (the 4-cycle scan
    found an edge), and stripping A x B lowers only the degrees of A and B,
    by |B| and |A|.  So the child has a vertex of degree 1 exactly when some
    x in A has degree |B| + 1 or some y in B has degree |A| + 1, read from
    the masks of the vertices of each degree.  Every other child's bound is
    None, not yet computed.
    """
    rows = node[0]
    b_bit = 1 << b
    children = []
    star_free = min_side > 1
    if star_free:
        by_degree = [0] * (len(rows) + 1)  # by_degree[d]: the vertices of degree d
        for v, row in enumerate(rows):
            by_degree[row.bit_count()] |= 1 << v
    # (side A, |A|, A's common neighbourhood less b, the vertices A may still add)
    walk = [(1 << a, 1, rows[a] & ~b_bit, rows[b] & ~(1 << a))]
    while walk:
        a_mask, a_size, pool_b, rest = walk.pop()
        if a_size >= min_side:
            for sub_b in _submasks(pool_b):
                b_size = sub_b.bit_count() + 1
                if b_size >= min_side:
                    b_mask = sub_b | b_bit
                    bound = None
                    if star_free and (a_mask & by_degree[b_size + 1] or b_mask & by_degree[a_size + 1]):
                        bound = INFINITY
                    children.append((-a_size * b_size, a_mask, b_mask, node, parts, bound))
        while rest:
            low = rest & -rest
            rest ^= low
            common = pool_b & rows[low.bit_length() - 1]
            if common.bit_count() >= min_side - 1:
                walk.append((a_mask | low, a_size + 1, common, rest))
    children.sort(reverse=True)
    return children


def _solve_partition_number(
    g: Graph,
    min_side: int,
    budget: int,
    incumbent: BicliquePartition | None,
) -> SolveResult:
    """Shared branch-and-bound engine for the plain and star-free variants.

    Each node branches on one uncovered edge ab, with a < b, enumerating
    every biclique of the remaining graph that contains it, largest parts
    first.  Branching on any uncovered edge is complete: every partition
    covers ab with exactly one part, and that part, with a put on its side
    A, is listed exactly once (A is a plus a subset of N(b), B is b plus a
    subset of the common neighbourhood of A).  ``_children`` lists them by a
    walk that grows A one vertex at a time and carries its common
    neighbourhood; the star-free walk cuts a branch once that is empty.  The
    edge is picked fail-first, as the one whose children are likely fewest
    (Haralick and Elliott, 1980); ties go to the lexicographically first
    (a, b):

    - plain (``min_side`` 1): the least residual degree sum deg(a) + deg(b),
      which bounds the candidates by 2^(deg a + deg b - 2).  It is picked
      only at nodes that pass both prunes below, so the nodes the
      eigen-solve kills pay nothing for it;
    - star-free (``min_side`` 2): the fewest 4-cycles a-b-x-y-a of the
      residual graph.

    Nodes are pruned when parts so far plus the inertia bound of the
    remaining graph cannot beat the incumbent.  The prune is sound by
    Graham and Pollak (1971): a part with sides A and B adds
    x_A x_B = ((x_A + x_B)^2 - (x_A - x_B)^2) / 4 to x^T A x / 2, where x_A
    sums x over A, so k parts write that form with k positive and k
    negative squares, and Sylvester's law of inertia gives n+ <= k and
    n- <= k.  Counting an eigenvalue within the tolerance as zero only
    lowers n+ or n-, so rounding can weaken the bound but never cut off a
    better partition.  The root's bound is computed once; it is also the
    ``lower_bound`` of a budget-out, which is exact when the incumbent
    already meets it.  Only the plain variant's star incumbent can, and a
    search with budget left prunes the root then, so this decides statuses
    at budget 0 only.  A leaf that lowers ``best_value`` to the root's bound
    ends the search with status exact.  The bound holds for both variants,
    as a star-free partition is a biclique partition, so no leaf left on
    the stack has fewer parts; and the full search replaces its witness
    only by a leaf with fewer parts.  So value, witness and lower bound are
    the full search's, and only the node count is lower.  No other bound is
    computed while no partition is known: with ``best_value`` INFINITY,
    depth + bound >= ``best_value`` cannot hold for a finite bound.  The
    plain variant starts from a star incumbent, so this skips bounds of the
    star-free search only.

    With ``min_side`` 2 the 4-cycle scan runs before the eigen-solve and
    doubles as a dead test over every uncovered edge, not just the one
    branched on: every star-free biclique through an edge uv holds a
    4-cycle u-v-x-y-u, so a node with an edge on no 4-cycle cannot be
    completed and is left without its eigen-solve.  The node is already
    counted, and the edge it would branch on is then one with no child, so
    node counts and results are those of a search that computed its bound.
    A child born with a vertex of degree 1, whose one edge lies on no
    4-cycle, is known dead when it is listed: ``_children`` gives it the
    bound INFINITY, which prunes it at its pop with or without an incumbent.

    The scan reads a table built once per solve: the root's edges in
    lexicographic order, and per edge an int mask over the root's 4-cycles
    through it (``_cycle_table``).  A node carries two masks over the table,
    its alive 4-cycles and its residual edges.  A 4-cycle of the residual
    graph is a 4-cycle of the root none of whose edges was stripped, so a
    node that reaches the scan updates its parent's masks by its own part
    only: every stripped A x B edge leaves the residual mask, and each
    4-cycle through one dies (``_strip_cycles``).  An edge's count is then
    the popcount of its mask and the alive mask, and the residual mask is
    walked in ascending bit order, which is lexicographic edge order; so
    the scan picks the edge, and finds the dead nodes, that a count from the
    residual rows would (``_fewest_alive_cycles``).  The table holds edges x
    4-cycles bits, so ``strong_partition_number_exact`` refuses a graph with
    more than ``_MAX_FOUR_CYCLES`` 4-cycles, counted from co-degrees first.

    The search is one loop over an explicit stack, so its depth is not call
    depth.  Each entry is one child: its sort key (-edges, a side, b side),
    then its parent node (rows and the two masks; the plain search's masks
    are 0) and its parent's parts, then its bound: None until computed,
    INFINITY for a dead child.  A popped entry whose bound is known is
    pruned when depth + bound >= ``best_value``, before its part is stripped
    off the parent's rows; any other is stripped at its pop, so siblings
    share one parent node and the stack holds little more than the
    candidate lists.  A node cut before its strip is cut after it too: a
    leaf's bound is 0, so it is cut only when it has no fewer parts than
    ``best_value``; any other node's bound is at least 1, as a nonzero
    symmetric matrix has a nonzero eigenvalue, so it meets the depth test
    or the bound prune; and a dead child's 4-cycle scan finds its vertex of
    degree 1.  The node is counted first, so node counts do not change.
    Each candidate list is sorted in reverse before it is pushed, so
    children pop largest part first.

    A popped node that needs its bound and has none gets it in a block, one
    call of ``_child_bounds`` for the node and the unbounded siblings
    directly below it on the stack, the entries with the same parent node,
    at most ``_BOUND_BLOCK`` children in all; dead siblings, whose INFINITY
    is already known, are passed over.  A block of ``_UPDATE_MIN`` or more
    is bounded from one eigendecomposition of the parent, each child by a
    2 x 2 Schur complement (Haynsworth's inertia additivity); a child or
    parent with a quantity near zero, and a smaller block, fall back to one
    stacked eigen-solve of the children's matrices.  Away from zero both
    give the exact inertia, so the bound does not depend on the path that
    computes it.  The siblings' bounds are written into their entries.  A
    bound depends on the child's rows only, so one computed early, even for
    a sibling that a later prune leaves unbounded, decides what a bound
    computed at its pop would: nodes, values, statuses and witnesses are
    those of a search that bounds each node when it is popped.  Blocks are
    made only at pops, so a long candidate list, such as a complete
    bipartite root's 4^(k-1) children, costs no bound for the children a
    search never needs to bound.
    """
    n = g.n
    root_bound = graham_pollak_lower_bound(g)

    best_value: int | float = len(incumbent.parts) if incumbent is not None else INFINITY
    witness = incumbent
    nodes = 0
    alive = resid = 0
    if min_side > 1:
        table = _cycle_table(g.adj)
        # Each 4-cycle has four edges.
        alive, resid = (1 << sum(map(int.bit_count, table[2])) // 4) - 1, (1 << len(table[0])) - 1
    # (-edges, a side, b side, parent node, parent parts, bound or None), a
    # node being (rows, alive 4-cycles, residual edges); the root entry adds
    # no part and carries the root's bound.
    stack = [(0, 0, 0, (g.adj, alive, resid), (), root_bound)]
    while stack:
        _, a_mask, b_mask, parent, parts, bound = stack.pop()
        nodes += 1
        if nodes > budget:
            status = EXACT if best_value <= root_bound else LOWER_BOUND_ONLY
            return SolveResult(best_value, witness, status, root_bound, nodes)
        if a_mask:
            parts += ((a_mask, b_mask),)
        depth = len(parts)
        if bound is not None and depth + bound >= best_value:
            continue  # a bound known at birth or from a sibling block prunes before the strip
        rows, alive, resid = parent
        if a_mask:
            rows = _strip(rows, a_mask, b_mask)
        if not any(rows):  # every edge is covered
            if depth < best_value:
                best_value = depth
                witness = BicliquePartition(g, tuple(Biclique(x, y) for x, y in parts))
                if best_value <= root_bound:
                    break  # no node left on the stack can give fewer parts
            continue
        if depth + 1 >= best_value:
            continue  # at least one more part is needed
        if min_side > 1:
            if a_mask:
                alive, resid = _strip_cycles(table, alive, resid, a_mask, b_mask)
            edge = _fewest_alive_cycles(table, alive, resid)
            if edge is None:
                continue  # an edge lies on no 4-cycle: no partition completes
        if bound is None and best_value < INFINITY:  # no bound prunes before an incumbent exists
            # This child and the unbounded siblings directly below it, in one solve.
            sides = [(a_mask, b_mask)]
            below = []
            i = len(stack)
            while i and len(sides) < _BOUND_BLOCK and stack[i - 1][3] is parent:
                i -= 1
                if stack[i][5] is None:
                    below.append(i)
                    sides.append(stack[i][1:3])
            bound, *bounds = _child_bounds(parent[0], n, sides)
            for i, sibling_bound in zip(below, bounds):
                stack[i] = stack[i][:5] + (sibling_bound,)
            if depth + bound >= best_value:
                continue
        a, b = edge if min_side > 1 else _least_degree_sum(rows)
        stack += _children((rows, alive, resid), parts, a, b, min_side)

    return SolveResult(best_value, witness, EXACT, best_value, nodes)


def partition_number_exact(g: Graph, budget: int = 5_000_000) -> SolveResult:
    """Minimum number of edge-disjoint bicliques partitioning E(g).

    Intended for the exhaustive regime (n around 12 or below).  The incumbent
    is initialized with a star decomposition over an exact maximum
    independent set, so the search only has to prove optimality or improve.
    """
    if g.m == 0:
        return SolveResult(0, BicliquePartition(g, ()), EXACT, 0, 0)
    alpha = independence_number_exact(g)
    incumbent = star_decomposition(g, alpha.witness)
    return _solve_partition_number(g, 1, budget, incumbent)


def strong_partition_number_exact(g: Graph, budget: int = 5_000_000) -> SolveResult:
    """Star-free variant: every part needs both sides of size at least 2.

    Graphs on at most 2 vertices have value 0 by definition (without a
    witness, since a lone edge admits no star-free partition).  When the
    search space is exhausted without a partition the value is INFINITY with
    status "exact", certifying infeasibility.

    The search tabulates the graph's 4-cycles at its root, in memory that
    grows as edges x 4-cycles, so a graph with more than ``_MAX_FOUR_CYCLES``
    (65,536) 4-cycles is refused with ValueError before any search.  K_{24,24}
    has 76,176 and G(60, 0.5) about 80,000; a graph on 12 vertices has at
    most K_12's 1,485.
    """
    if g.n <= 2:
        return SolveResult(0, None, EXACT, 0, 0)
    if g.m == 0:
        return SolveResult(0, BicliquePartition(g, ()), EXACT, 0, 0)
    cycles = _four_cycle_count(g.adj)
    if cycles > _MAX_FOUR_CYCLES:
        raise ValueError(f"star-free search refused for more than {_MAX_FOUR_CYCLES} 4-cycles "
                         f"(this graph has {cycles})")
    return _solve_partition_number(g, 2, budget, None)


def partition_to_json(partition: BicliquePartition) -> dict:
    return {
        "n": partition.host.n,
        "parts": [
            {"a": list(iter_bits(part.a)), "b": list(iter_bits(part.b))}
            for part in partition.parts
        ],
    }


def partition_from_json(data: dict, host: Graph) -> BicliquePartition:
    if data.get("n") != host.n:
        raise ValueError(f"partition is for n={data.get('n')}, graph has n={host.n}")
    parts = data["parts"]
    if not (isinstance(parts, list) and all(
        isinstance(e, dict) and _is_int_list(e.get("a")) and _is_int_list(e.get("b")) for e in parts
    )):
        raise ValueError('partition JSON needs "parts": [{"a": [int, ...], "b": [int, ...]}, ...]')
    return BicliquePartition(host, tuple(Biclique(mask_of(e["a"]), mask_of(e["b"])) for e in parts))


def solve_result_to_json(result: SolveResult) -> dict:
    value = "infinity" if result.value == INFINITY else int(result.value)
    lower = "infinity" if result.lower_bound == INFINITY else int(result.lower_bound)
    return {
        "value": value,
        "status": result.status,
        "lower_bound": lower,
        "nodes": result.nodes,
        "witness": partition_to_json(result.witness) if result.witness is not None else None,
    }
