"""Undirected simple graphs on dense integer labels, with bitmask adjacency.

Vertices are 0..n-1 and every adjacency row is a Python int used as a
bitset, which keeps the neighborhood intersections at the heart of every
search in this package cheap up to a few thousand vertices.  Graphs are
immutable after construction and safe to share across threads.  This module
also holds the private mask helpers that the other modules share: submasks,
common neighborhoods, greedy independent passes, ``_independent`` (the one
independence check), ``_alpha_branch_and_bound`` (the one exact
independent-set search) and ``_exceeds`` (decision only: can a pool beat a
given size, asked of the beam finisher's pools before the exact search),
``_strip`` (removes a biclique's cross edges, for the coverage game and the
exact partition search), and ``_packed``, ``_unpacked``, ``_mask_at`` (the
inverse of ``_selector``) and ``_transposed``, the only code that knows the
packed bit format.  ``_transposed`` mirrors the sampler's upper triangle and
serves the symmetry check of ``Graph(n, adj)`` and partition validation; the
sampler's own matrix is symmetric by construction and is not checked again.
``Graph`` keeps its rows packed as ``Graph.packed``, read by
``independent_set_search`` (the beam's pool listing and ranking, a chunk of
beam states at a time, and the exact finisher's pool rows, relabelled to local
bits by ``_pool_rows``; the swap polish keeps its counts in bit planes of
Python ints instead), ``edge_count_within``, the balanced-side heuristic,
``validate_partition`` and the spectral bounds of a whole graph (its
inertia, the Graham-Pollak bound, the root of the exact partition search);
rows given without a graph are packed first.

Random graphs are sampled with one uniform deviate per vertex pair, in
lexicographic pair order, from the Mersenne Twister stream of
``random.Random(seed)``.  ``sample_gnp`` reads that stream in blocks through
a legacy numpy ``RandomState`` seeded with the seed's 32-bit words as a
list, which runs the same key schedule (``init_by_array``) and builds each
double the same way.  Python documents that ``Random.random()`` reproduces
the same sequence for the same seed across versions and platforms, and NEP
19 freezes the legacy ``RandomState`` stream, so a :class:`GnpSpec` pins the
sampled graph bit for bit.  Each thread keeps its own generator, so
``sample_gnp`` is safe to call from any thread.  ``_sample_range`` replays
CPython's ``Random.sample`` over ``range(count)`` from batched 32-bit words of
the same stream, for the beam's and the density check's draws.
"""

from __future__ import annotations

import math
import random
import struct
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "VertexSet",
    "GnpSpec",
    "AlphaResult",
    "iter_bits",
    "mask_of",
    "sample_gnp",
    "induced_subgraph",
    "common_neighborhood",
    "independence_number_exact",
    "independent_set_greedy",
    "independent_set_search",
    "edge_count_within",
    "density_deviation",
    "max_balanced_biclique_side",
    "parse_edge_list",
    "format_edge_list",
    "read_edge_list",
    "write_edge_list",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: VertexSet | Iterable[int]) -> int:
    """Pack a VertexSet or an iterable of vertex indices into a bitmask."""
    if isinstance(vertices, VertexSet):
        return vertices.mask
    m = 0
    try:
        for v in vertices:
            m |= 1 << v
    except ValueError:  # 1 << v with v < 0
        raise ValueError("vertex indices must be nonnegative") from None
    return m


@dataclass(frozen=True)
class VertexSet:
    """A subset of ``0..universe-1`` that iterates in ascending order.

    The canonical, order-stable vertex set used for all set-valued results
    (common neighborhoods, independent sets, witnesses).
    """

    mask: int
    universe: int

    def __post_init__(self) -> None:
        if self.universe < 0:
            raise ValueError("universe must be nonnegative")
        if self.mask < 0 or self.mask >> self.universe:
            raise ValueError("vertex set contains indices outside the universe")

    @classmethod
    def of(cls, members: Iterable[int], universe: int) -> "VertexSet":
        return cls(mask_of(members), universe)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and (self.mask >> v) & 1 == 1

    def __bool__(self) -> bool:
        return self.mask != 0

    def as_set(self) -> set[int]:
        return set(iter_bits(self.mask))

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))


def _is_int_list(x: object) -> bool:
    """A JSON list of ints (bools refused), the form vertex lists take in input files."""
    return isinstance(x, list) and all(type(v) is int for v in x)


def _mask_in(vertices: VertexSet | Iterable[int], n: int) -> int:
    """``mask_of(vertices)``, refusing vertices outside 0..n-1."""
    mask = mask_of(vertices)
    if mask >> n:
        raise ValueError(f"vertex outside range 0..{n - 1}")
    return mask


def _packed(rows: Sequence[int], n: int) -> np.ndarray:
    """Rows as a read-only (len(rows), ceil(n/8)) uint8 array of little-endian
    bits; each row must fit in n bits."""
    nbytes = (n + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)


def _unpacked(packed: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of each packed row (the last axis) as 0/1 uint8."""
    return np.unpackbits(packed, axis=-1, count=count, bitorder="little")


def _selector(mask: int, n: int) -> np.ndarray:
    """The members of ``mask`` as a length-n bool array, to pick rows of a packed matrix."""
    return _unpacked(_packed((mask,), n)[0], n).view(bool)


def _mask_at(positions: Sequence[int], n: int) -> int:
    """The mask with bits at ``positions`` (each in 0..n-1): the inverse of ``_selector``."""
    inside = np.zeros(n, dtype=bool)
    inside[positions] = True
    return int.from_bytes(np.packbits(inside, bitorder="little").tobytes(), "little")


def _column_sums(packed: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """int32 column sums of the selected rows of a packed (n, ceil(n/8)) matrix.

    For adjacency rows, entry y is the number of selected neighbors of y.
    Only the selected rows are unpacked.
    """
    return _unpacked(packed[selected], packed.shape[0]).sum(axis=0, dtype=np.int32)


# Rows drawn at a time by sample_gnp and columns handled at a time by
# _transposed; a multiple of 8, so blocks start on a byte.
_ROW_BLOCK = 64


def _transposed(packed: np.ndarray) -> np.ndarray:
    """The packed transpose of a packed (n, ceil(n/8)) matrix.

    Works ``_ROW_BLOCK`` columns at a time, so no n x n array is built, and
    packs a copy of each transposed block: packbits runs about 4x slower on
    the transposed view.
    """
    n = packed.shape[0]
    out = np.empty_like(packed)
    for lo in range(0, n, _ROW_BLOCK):
        cols = _unpacked(packed[:, lo // 8:(lo + _ROW_BLOCK) // 8], min(_ROW_BLOCK, n - lo))
        out[lo:lo + _ROW_BLOCK] = np.packbits(cols.T.copy(), axis=1, bitorder="little")
    return out


def _pairs_are_edges(g: Graph, rows: Sequence[int]) -> bool:
    """True iff the pairs {x, y} with y in ``rows[x]`` are exactly the edges of g."""
    recorded = _packed(rows, g.n)
    return np.array_equal(recorded | _transposed(recorded), g.packed)


def _submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _common_mask(rows: Sequence[int], pool: int, mask: int) -> int:
    """Vertices of ``pool`` outside ``mask`` adjacent to every member of it."""
    for v in iter_bits(mask):
        pool &= rows[v]
    return pool & ~mask


def _greedy_independent(rows: Sequence[int], order: Iterable[int], start: int = 0) -> int:
    """Extend the independent mask ``start`` by each vertex of ``order`` that fits."""
    s = start
    for v in order:
        if not rows[v] & s:
            s |= 1 << v
    return s


def _independent(rows: Sequence[int], mask: int) -> bool:
    """True iff no two members of ``mask`` are adjacent."""
    return not any(rows[v] & mask for v in iter_bits(mask))


def _strip(rows: Sequence[int], a_mask: int, b_mask: int) -> tuple[int, ...]:
    """The rows left once every cross edge between ``a_mask`` and ``b_mask`` is taken."""
    out = list(rows)
    for x in iter_bits(a_mask):
        out[x] &= ~b_mask
    for y in iter_bits(b_mask):
        out[y] &= ~a_mask
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]
    # Set once in __post_init__, not cached on first read: on CPython 3.11 an
    # attribute added later moves the instance out of its inline attribute
    # storage, after which every ``g.adj`` read on it is about 3x slower.
    m: int = field(init=False, repr=False, compare=False)
    vertex_mask: int = field(init=False, repr=False, compare=False)
    # ``_packed(adj, n)``: the rows as read-only packed bits, n^2/8 bytes.
    packed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row < 0 or row & ~full:
                raise ValueError(f"adjacency row {v} has out-of-range neighbors")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # Symmetry.  A failing graph is scanned for the pair to report: the first
        # listed only by its smaller endpoint, else only by its larger one.
        packed = _packed(self.adj, self.n)
        if not np.array_equal(packed, _transposed(packed)):
            one_way = [(v, u) for v, row in enumerate(self.adj) for u in iter_bits(row)
                       if not (self.adj[u] >> v) & 1]
            v, u = sorted(min(one_way, key=lambda vu: vu[0] > vu[1]))
            raise ValueError(f"asymmetric adjacency between {v} and {u}")
        object.__setattr__(self, "m", sum(row.bit_count() for row in self.adj) // 2)
        object.__setattr__(self, "vertex_mask", full)
        object.__setattr__(self, "packed", packed)

    @classmethod
    def _from_packed(cls, packed: np.ndarray) -> "Graph":
        """The graph whose rows are the packed (n, ceil(n/8)) matrix ``packed``,
        which the caller built symmetric with an empty diagonal and zero padding.

        Nothing is checked: outside input goes through ``Graph(n, adj)``.  The
        fields are set in ``__init__``'s order, so the instance keeps the same
        attribute layout, and ``packed`` is kept, made read-only.
        """
        n, nbytes = packed.shape
        buf = packed.tobytes()
        adj = tuple(int.from_bytes(buf[v * nbytes:(v + 1) * nbytes], "little") for v in range(n))
        packed.flags.writeable = False
        g = object.__new__(cls)
        for name, value in (("n", n), ("adj", adj), ("m", sum(row.bit_count() for row in adj) // 2),
                            ("vertex_mask", (1 << n) - 1), ("packed", packed)):
            object.__setattr__(g, name, value)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (self.adj[u] >> v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for v in range(self.n):
            w = self.adj[v] >> (v + 1)
            base = v + 1
            while w:
                low = w & -w
                yield v, base + low.bit_length() - 1
                w ^= low

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full & ~(1 << v) for v in range(n)))

    @classmethod
    def complete_bipartite(cls, p: int, q: int) -> "Graph":
        """K_{p,q} with sides 0..p-1 and p..p+q-1."""
        n = p + q
        left = (1 << p) - 1
        right = ((1 << n) - 1) ^ left
        rows = [right] * p + [left] * q
        return cls(n, tuple(rows))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


@dataclass(frozen=True)
class GnpSpec:
    """Parameters pinning one G(n, p) sample: same spec, same graph everywhere."""

    n: int
    p: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not (0.0 < self.p <= 1.0):
            raise ValueError("edge probability must satisfy 0 < p <= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")


_generators = threading.local()  # one legacy RandomState per thread, reseeded on each call


def sample_gnp(spec: GnpSpec) -> Graph:
    """Sample G(n, p): each pair {u, v} is an edge independently with probability p.

    Pairs are visited in lexicographic order (0,1), (0,2), ..., (n-2,n-1)
    and consume exactly one deviate each of the ``random.Random(seed)``
    stream (read through numpy, as the module docstring says), so the edge
    set is a pure function of the GnpSpec fields.  Deviates are drawn 64 rows
    at a time into the upper triangle, whose transpose is then ORed in, so no
    n x n matrix is built.  That matrix is symmetric with an empty diagonal by
    construction, so it becomes the graph without ``Graph``'s checks.
    """
    n, p, seed = spec.n, spec.p, spec.seed
    rs = getattr(_generators, "rs", None)
    if rs is None:
        rs = _generators.rs = np.random.RandomState()
    # A list even for one word: a scalar or a one-element array gets init_genrand instead.
    rs.seed([(seed >> s) & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)])
    nbytes = (n + 7) // 8
    packed = np.empty((n, nbytes), dtype=np.uint8)
    # Block row i holds the pairs (lo + i, v) with v > lo + i: a window of tri.
    tri = np.arange(-n, n) > np.arange(_ROW_BLOCK)[:, None]
    for lo in range(0, n, _ROW_BLOCK):
        upper = tri[:min(_ROW_BLOCK, n - lo), n - lo:2 * n - lo]
        block = np.zeros(upper.shape, dtype=bool)
        block[upper] = rs.random_sample(np.count_nonzero(upper)) < p
        packed[lo:lo + _ROW_BLOCK] = np.packbits(block, axis=1, bitorder="little")
    packed |= _transposed(packed)
    return Graph._from_packed(packed)


def _words(rng: random.Random, count: int) -> tuple[int, ...]:
    """The next ``count`` 32-bit outputs of ``rng``'s Mersenne Twister, in order.

    ``getrandbits(32 * count)`` draws exactly ``count`` words and puts the
    first one drawn in the lowest 32 bits, on either byte order.
    """
    return struct.unpack(f"<{count}I", rng.getrandbits(32 * count).to_bytes(4 * count, "little"))


def _sample_range(rng: random.Random, count: int, k: int) -> list[int]:
    """``rng.sample(range(count), k)``: the same list, and ``rng`` left in the same state.

    CPython's ``sample`` draws each position by ``_randbelow(m)``, which for
    m below 2**32 (count is a vertex count here) takes the top
    ``m.bit_length()`` bits of one word and draws again while the value is
    at least m.  A population no larger than a k-entry set's table
    is shuffled as a list (a partial Fisher-Yates shuffle, m = count - i for
    the i-th pick); a larger one draws below count into a set, drawing again
    on a repeat.  This replays both over words batched by ``_words``, one
    word per pick still wanted, so it never draws a word that ``sample``
    would not.  ``tests/test_graphs.py`` pins it to the running interpreter's
    ``sample``, whose draws Python does not promise across versions.
    """
    if not 0 <= k <= count:
        raise ValueError("sample larger than population or is negative")
    setsize = 21  # sample's own choice, with its float log
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    out: list[int] = []
    if count <= setsize:
        pool = list(range(count))
        left = count  # the positions not yet picked are pool[:left]
        while left > count - k:
            for w in _words(rng, left - (count - k)):
                j = w >> (32 - left.bit_length())
                if j < left:
                    left -= 1
                    out.append(pool[j])
                    pool[j] = pool[left]
    else:
        shift = 32 - count.bit_length()
        seen: set[int] = set()
        while len(out) < k:
            for w in _words(rng, k - len(out)):
                j = w >> shift
                if j < count and j not in seen:
                    seen.add(j)
                    out.append(j)
    return out


def induced_subgraph(
    g: Graph, vertices: VertexSet | Iterable[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled to 0..k-1 in ascending order.

    Returns the relabeled graph together with the mapping new -> old label.
    """
    mask = _mask_in(vertices, g.n)
    old = tuple(iter_bits(mask))
    index = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        for u in iter_bits(g.adj[v] & mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(old), tuple(rows)), old


def common_neighborhood(g: Graph, vertices: VertexSet | Iterable[int]) -> VertexSet:
    """Vertices outside the given set adjacent to every one of its members."""
    mask = _mask_in(vertices, g.n)
    if mask == 0:
        raise ValueError("common neighborhood of the empty set is not defined")
    return VertexSet(_common_mask(g.adj, g.vertex_mask, mask), g.n)


@dataclass(frozen=True)
class AlphaResult:
    """Outcome of an independent-set search.

    ``complete`` is False when the node budget ran out; ``value`` is then
    only a lower bound (the best set found so far).
    """

    value: int
    witness: VertexSet
    complete: bool
    nodes: int


def _clique_cover(adj: Sequence[int], pool: int, k: int) -> int:
    """The members of the cliques numbered above ``k`` in a greedy clique
    cover of ``pool``, each clique grown from its lowest vertex.

    The cover's size upper-bounds alpha(pool), so 0 proves alpha(pool) <= k.
    """
    above = 0
    rest = pool
    while rest:
        v = (rest & -rest).bit_length() - 1
        clique = 1 << v
        cand = rest & adj[v]
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique |= 1 << u
            cand &= adj[u]
        rest &= ~clique
        if k > 0:
            k -= 1
        else:
            above |= clique
    return above


def _alpha_branch_and_bound(
    adj: Sequence[int], pool: int, budget: int, initial_best: tuple[int, int]
) -> tuple[int, int, bool, int]:
    """Include/exclude search on the max-degree vertex with clique-cover pruning.

    Returns (size, mask, complete, nodes).  ``initial_best`` seeds the
    incumbent, so callers that only care about improvements prune earlier.
    """
    best_size, best_mask = initial_best
    nodes = 0
    # Explicit stack of (pool, current set, size), so deep exclude chains
    # cannot overflow the interpreter stack.  The exclude branch is pushed
    # first, so each include subtree is finished before its sibling.
    stack = [(pool, 0, 0)]
    while stack:
        p, cur, size = stack.pop()
        nodes += 1
        if nodes > budget:
            return best_size, best_mask, False, nodes
        if not p:
            if size > best_size:
                best_size, best_mask = size, cur
            continue
        if not _clique_cover(adj, p, best_size - size):
            continue
        bv, bd = -1, -1
        w = p
        while w:
            low = w & -w
            v = low.bit_length() - 1
            d = (adj[v] & p).bit_count()
            if d > bd:
                bd, bv = d, v
            w ^= low
        stack.append((p & ~(1 << bv), cur, size))
        stack.append((p & ~adj[bv] & ~(1 << bv), cur | (1 << bv), size + 1))
    return best_size, best_mask, True, nodes


def _exceeds(adj: Sequence[int], pool: int, best: int, budget: int) -> bool:
    """True iff ``pool`` holds an independent set of more than ``best`` vertices,
    or the node budget runs out first.  Decision only: no set is returned.

    Colour-class branching (Tomita and Seki 2003), with cliques for colour
    classes: each node splits its pool into the greedy cliques of
    ``_clique_cover``.  A node that has taken s vertices beats ``best`` only
    with more than k = best - s of its pool, at most one per clique, so with
    one from a clique numbered above k.  So a node prunes when there are at
    most k cliques, and otherwise branches on those cliques' vertices only,
    each branch excluding the ones tried before it.
    """
    nodes = 0
    stack = [(pool, best)]  # (pool, best - size)
    while stack:
        p, need = stack.pop()
        nodes += 1
        if need < 0 or nodes > budget:
            return True
        for v in iter_bits(_clique_cover(adj, p, need)):
            p &= ~(1 << v)
            stack.append((p & ~adj[v], need - 1))
    return False


def independence_number_exact(g: Graph, budget: int = 2_000_000) -> AlphaResult:
    """Exact independence number by branch and bound.

    Branches on a maximum-degree vertex (include/exclude) and prunes with a
    greedy clique cover.  When the node budget runs out the result is marked
    incomplete and carries the best independent set found so far.
    """
    if g.n == 0:
        return AlphaResult(0, VertexSet(0, 0), True, 0)
    # Warm start with a deterministic greedy pass so pruning bites early.
    warm = _greedy_independent(g.adj, range(g.n))
    size, mask, complete, nodes = _alpha_branch_and_bound(
        g.adj, g.vertex_mask, budget, (warm.bit_count(), warm)
    )
    if not _independent(g.adj, mask):
        raise AssertionError("independent-set witness touches an edge")
    return AlphaResult(size, VertexSet(mask, g.n), complete, nodes)


def independent_set_greedy(g: Graph, seed: int) -> VertexSet:
    """Maximal independent set from a seed-shuffled greedy pass."""
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    return VertexSet(_greedy_independent(g.adj, order), g.n)


# independent_set_search: beam width, pool vertices sampled and children kept
# per beam state, pool size solved exactly, and swap-polish moves per round.
_BEAM_WIDTH = 224
_BEAM_SAMPLE = 56
_BEAM_BRANCH = 4
_FINISH_AT = 44
_POLISH_MOVES = 1600
# Beam states ranked together, a bound on memory.  Their sampled rows take
# _RANK_CHUNK * _BEAM_SAMPLE * n/8 bytes (448 KB at n = 2000).  Ranking a whole
# level of 224 states at once holds about 3 MB per array, and the bench's
# bounds-large peak RSS read 98.5 and 114.6 MB with it against 92.1-92.8 MB.
_RANK_CHUNK = 32


def _pool_rows(packed: np.ndarray, pool: int) -> tuple[np.ndarray, list[int]]:
    """The members of ``pool`` (ascending, at most 64) and their rows relabelled
    so that member i is bit i.

    ``packed`` is ``Graph.packed``.  One gather takes the members' rows at the
    pool's nonzero bytes, and the pool's own bits there pick the columns to
    pack into the local rows.
    """
    n = packed.shape[0]
    pool_bytes = _packed((pool,), n)[0]
    members = np.flatnonzero(_unpacked(pool_bytes, n))
    held = np.flatnonzero(pool_bytes)
    columns = _unpacked(pool_bytes[held], 8 * held.size).view(bool)
    bits = _unpacked(packed[np.ix_(members, held)], 8 * held.size)[:, columns]
    words = np.zeros((members.size, 8), dtype=np.uint8)
    words[:, :(members.size + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return members, words.view("<u8")[:, 0].tolist()


def _beam_with_exact_finish(
    adj: Sequence[int], n: int, packed: np.ndarray, rng: random.Random, incumbent: int
) -> tuple[int, int]:
    """One beam descent; pools at or below ``_FINISH_AT`` vertices are solved exactly.

    ``packed`` is ``Graph.packed``.  The deeper pools of a level are ranked
    ``_RANK_CHUNK`` at a time: one ``np.flatnonzero`` lists every pool's
    members in ascending order, one gather takes the sampled members' rows,
    and their pool degrees come from one AND and popcount.  The draws are
    those of a beam that lists each pool as a list: ``_sample_range`` draws
    positions in ``range(count)``, pool by pool in state order, as
    ``rng.sample`` would; ``sample`` reads only a population's length and
    indexes, so it makes the same draws and picks the same vertices from a
    list of the members.  The ranking draws
    nothing.  One argsort on (state, pool degree, vertex), keyed as
    (state * n + degree) * n + vertex, orders each pool's candidates by
    (degree, vertex), as a key sort of its list would, and the keys are
    distinct, so the order does not depend on the sort's stability.  The
    exact finisher runs on the pool's rows relabelled by
    ``_pool_rows``, which keeps the vertex order, so its branch vertices,
    clique covers and node counts are those of the global rows.  It is seeded
    with the incumbent so dominated pools prune immediately, and runs only
    where ``_exceeds`` finds that the pool can beat the incumbent.  Skipping
    the others keeps (size, mask) and the draws: there the search would have
    returned the (best_size - size, 0) it was seeded with, which the loop
    ignores, and it draws nothing from ``rng``.  Returns (size, mask) of the
    best completed set, which is (incumbent, 0) when nothing improved.
    """
    full = (1 << n) - 1
    beam: list[tuple[int, int, int]] = [(full, 0, 0)]
    best_size, best_mask = incumbent, 0
    rows_buf = np.empty((_RANK_CHUNK * _BEAM_SAMPLE, packed.shape[1]), dtype=np.uint8)
    while beam:
        deeper = []
        for pool, smask, size in beam:
            if pool.bit_count() <= _FINISH_AT:
                members, rows = _pool_rows(packed, pool)
                local = (1 << members.size) - 1
                if not _exceeds(rows, local, best_size - size, 250_000):
                    continue
                got, gmask, _, _ = _alpha_branch_and_bound(
                    rows, local, 250_000, (best_size - size, 0)
                )
                if size + got > best_size:
                    best_size = size + got
                    best_mask = smask | mask_of(members[list(iter_bits(gmask))].tolist())
            else:
                deeper.append((pool, smask, size))
        children: dict[int, tuple[int, int, int]] = {}
        for lo in range(0, len(deeper), _RANK_CHUNK):
            chunk = deeper[lo:lo + _RANK_CHUNK]
            pools = _packed([pool for pool, _, _ in chunk], n)
            listed = np.flatnonzero(_unpacked(pools, n).view(bool))
            picks: list[int] = []  # positions in listed, pool by pool
            starts = []  # where each pool's picks begin
            first = 0  # where the pool's members begin in listed
            for pool, _, _ in chunk:
                count = pool.bit_count()
                starts.append(len(picks))
                if count > _BEAM_SAMPLE:
                    picks += [first + i for i in _sample_range(rng, count, _BEAM_SAMPLE)]
                else:
                    picks += range(first, first + count)
                first += count
            owner, cand = np.divmod(listed[picks], n)
            rows = np.take(packed, cand, axis=0, out=rows_buf[:cand.size])
            rows &= pools[owner]
            deg = np.bitwise_count(rows, out=rows).sum(axis=1, dtype=np.int64)
            order = cand[np.argsort((owner * n + deg) * n + cand)].tolist()
            for start, (pool, smask, size) in zip(starts, chunk):
                for v in order[start:start + _BEAM_BRANCH]:
                    ns = smask | (1 << v)
                    if ns in children:
                        continue
                    children[ns] = (pool & ~adj[v] & ~(1 << v), ns, size + 1)
        ranked = sorted(
            children.items(), key=lambda kv: (-kv[1][0].bit_count(), rng.random())
        )
        beam = [state for _, state in ranked[:_BEAM_WIDTH]]
    return best_size, best_mask


def _swap_polish(
    adj: Sequence[int], n: int, smask: int, rng: random.Random, moves: int
) -> tuple[int, int]:
    """Plateau walk with (1,1)-swaps and free-vertex insertions on an independent set.

    Each vertex's count of neighbors in the set is kept bit-sliced: bit v of
    ``planes[j]`` is bit j of v's count.  An insertion adds the vertex's row
    to the counts by a ripple carry through the planes, a removal subtracts
    it by a ripple borrow, and each stops at the first plane with nothing left
    to carry.  So the free vertices (count 0) are those outside the set and
    outside every plane, and the tight ones (count 1) those in plane 0 and in
    no higher plane.  ``iter_bits`` lists them in ascending order, so
    ``rng.choice`` gets the same list of Python ints as a walk over a count
    list would, and picks the same vertex with the same draw.
    """
    full = (1 << n) - 1
    planes = [0]

    def adjust(row: int, borrow: bool) -> None:
        for j, plane in enumerate(planes):
            planes[j] = plane ^ row
            row &= ~plane if borrow else plane
            if not row:
                return
        planes.append(row)

    s = smask
    for v in iter_bits(s):
        adjust(adj[v], False)

    def add(v: int) -> None:
        nonlocal s
        s |= 1 << v
        adjust(adj[v], False)

    def remove(v: int) -> None:
        nonlocal s
        s &= ~(1 << v)
        adjust(adj[v], True)

    best_mask, best_size = s, s.bit_count()
    stale = 0
    for _ in range(moves):
        low, high = planes[0], 0
        for plane in planes[1:]:
            high |= plane
        frees = full & ~(s | low | high)
        if frees:
            add(rng.choice(list(iter_bits(frees))))
            if s.bit_count() > best_size:
                best_size, best_mask = s.bit_count(), s
                stale = 0
            continue
        tights = low & ~(high | s)
        if not tights:
            break
        v = rng.choice(list(iter_bits(tights)))
        u = ((adj[v] & s) & -(adj[v] & s)).bit_length() - 1
        remove(u)
        add(v)
        stale += 1
        if stale > 350:
            members = list(iter_bits(s))
            for x in rng.sample(members, min(2, len(members))):
                remove(x)
            stale = 0
    return best_size, best_mask


def independent_set_search(g: Graph, seed: int, rounds: int = 5) -> VertexSet:
    """Strong seeded heuristic for large graphs: beam search with exact finishing
    of small residual pools, followed by swap polishing.

    Returns a maximal independent set, deterministic for a given seed and
    number of rounds (``rounds >= 1``).  The beam keeps every state it
    finishes, even one whose pool emptied before the exact finisher.  Finds
    noticeably larger sets than a single greedy pass on dense random graphs,
    which matters because the n - alpha upper bound is only as good as the
    independent set behind it.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = g.n
    if n == 0:
        return VertexSet(0, 0)
    adj = g.adj
    rng = random.Random(seed)
    best_size, best_mask = 0, 0
    for _ in range(rounds):
        size, mask = _beam_with_exact_finish(adj, n, g.packed, rng, best_size)
        if size > best_size:
            best_size, best_mask = size, mask
        size2, mask2 = _swap_polish(adj, n, mask or best_mask, rng, _POLISH_MOVES)
        if size2 > best_size:
            best_size, best_mask = size2, mask2
    # Ensure maximality before returning.
    best_mask = _greedy_independent(adj, range(n), best_mask)
    if not _independent(adj, best_mask):
        raise AssertionError("search produced a non-independent set")
    return VertexSet(best_mask, n)


def edge_count_within(g: Graph, vertices: VertexSet | Iterable[int]) -> int:
    """e(U): the number of edges of g with both endpoints in the given set.

    The packed rows of U, masked to U's own bits, hold each such edge twice.
    """
    mask = _mask_in(vertices, g.n)
    inside = _selector(mask, g.n)
    within = g.packed[inside] & np.packbits(inside, bitorder="little")
    return int(np.bitwise_count(within).sum()) // 2


def density_deviation(g: Graph, vertices: VertexSet | Iterable[int], p: float) -> float:
    """Normalized edge-density deviation of a vertex subset.

    Returns |e(U) - (p/2)|U|^2| / (|U|^(3/2) * sqrt(ln n)).  For subsets of a
    G(n, p) sample this statistic stays below a modest constant; the value is
    returned raw so callers choose their own ceiling.
    """
    if g.n < 2:
        raise ValueError("deviation statistic needs n >= 2 (ln n must be positive)")
    mask = _mask_in(vertices, g.n)
    size = mask.bit_count()
    if size < 1:
        raise ValueError("subset must be nonempty")
    e_u = edge_count_within(g, VertexSet(mask, g.n))
    return abs(e_u - (p / 2.0) * size * size) / (size**1.5 * math.sqrt(math.log(g.n)))


_EXACT_BICLIQUE_LIMIT = 20


def max_balanced_biclique_side(
    g: Graph,
    effort: str = "exact",
    budget: int = 600,
    seed: int = 0,
) -> int:
    """Largest k such that disjoint A, B with |A| = |B| = k have every cross
    pair an edge (sides need not be independent).

    Exact mode enumerates A-sides by increasing k and is refused above
    20 vertices.  Heuristic mode grows candidate sides by seeded greedy
    restarts within a step budget and returns the best verified k, which is
    a lower bound on the true maximum.
    """
    if effort == "exact":
        if g.n > _EXACT_BICLIQUE_LIMIT:
            raise ValueError(
                f"exact balanced-biclique search refused for n > {_EXACT_BICLIQUE_LIMIT}"
            )
        return _balanced_side_exact(g)
    if effort == "heuristic":
        return _balanced_side_heuristic(g, budget, seed)
    raise ValueError(f"unknown effort {effort!r}")


def _balanced_side_exact(g: Graph) -> int:
    from itertools import combinations

    if g.m == 0:
        return 0
    best = 1  # any edge gives k = 1
    k = 2
    while 2 * k <= g.n:
        found = False
        for combo in combinations(range(g.n), k):
            if _common_mask(g.adj, g.vertex_mask, mask_of(combo)).bit_count() >= k:
                found = True
                break
        if not found:
            break
        best = k
        k += 1
    return best


def _balanced_side_heuristic(g: Graph, budget: int, seed: int) -> int:
    """Seeded greedy restarts: grow A by the vertex keeping its common
    neighborhood cn largest, ties drawn among the three lowest.

    ``score[x]`` is |cn & N(x)|, the column sums of cn's rows of ``g.packed``;
    when vertices leave cn their rows are subtracted.  ``np.flatnonzero``
    lists the ties in ascending order and ``rng.choice`` gets a list of Python
    ints, so every draw and the result are those of a per-vertex loop over
    the int rows.
    """
    rng = random.Random(seed)
    n = g.n
    if g.m == 0:
        return 0
    adj = g.adj
    best = 1
    steps = 0
    while steps < budget:
        start = rng.randrange(n)
        a_mask = 1 << start
        outside = np.ones(n, dtype=bool)
        outside[start] = False
        cn = adj[start]
        score = _column_sums(g.packed, _selector(cn, n))
        while steps < budget:
            steps += 1
            masked = np.where(outside, score, -1)
            top_score = masked.max()
            if top_score <= 0:
                break
            top = np.flatnonzero(masked == top_score)[:3].tolist()
            x = top[0] if len(top) == 1 else rng.choice(top)
            a_mask |= 1 << x
            outside[x] = False
            stay = cn & adj[x] & ~(1 << x)
            score -= _column_sums(g.packed, _selector(cn & ~stay, n))
            cn = stay
            best = max(best, min(a_mask.bit_count(), cn.bit_count()))
    return best


# Edge-list text format: first line "n m", then m lines "u v" with
# 0 <= u < v < n.  The parser is strict: duplicates, loops, reversed or
# out-of-range endpoints, and count mismatches are all rejected.


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError("header must contain two integers") from exc
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    rows = [0] * n
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"malformed edge line: {ln!r}") from exc
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n")
        if (rows[u] >> v) & 1:
            raise ValueError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_edge_list(g))
