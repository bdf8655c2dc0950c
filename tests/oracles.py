"""Independent brute-force oracles for cross-checking the library.

Deliberately naive: no spectral bounds, no incumbent seeding, no memoized
reductions.  These implementations define ground truth for the tests and
must stay decoupled from the code paths they check.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations

import numpy as np

from bipart.graphs import (
    _BEAM_BRANCH,
    _BEAM_SAMPLE,
    _BEAM_WIDTH,
    _FINISH_AT,
    _RANK_CHUNK,
    Graph,
    _alpha_branch_and_bound,
    iter_bits,
    mask_of,
)


def gnp_rows_reference(n: int, p: float, seed: int) -> tuple[int, ...]:
    """Reference for ``bipart.graphs.sample_gnp``: one ``random()`` call per pair.

    Pairs are visited in lexicographic order (0,1), (0,2), ..., (n-2,n-1), each
    consuming one deviate of ``random.Random(seed)``; returns the adjacency rows.
    """
    rng = random.Random(seed)
    rnd = rng.random
    rows = [0] * n
    bit = [1 << i for i in range(n)]
    for u in range(n - 1):
        ru = rows[u]
        for v in range(u + 1, n):
            if rnd() < p:
                ru |= bit[v]
                rows[v] |= bit[u]
        rows[u] = ru
    return tuple(rows)


def graph_rows_reference(n: int, adj) -> int:
    """Reference for the checks of the ``Graph`` constructor, pair by pair.

    Raises the same ValueError, found in the same order, that ``Graph(n, adj)``
    raises, and otherwise returns the edge count.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if len(adj) != n:
        raise ValueError("adjacency must have one row per vertex")
    for v, row in enumerate(adj):
        if row < 0 or row >= 1 << n:
            raise ValueError(f"adjacency row {v} has out-of-range neighbors")
        if (row >> v) & 1:
            raise ValueError(f"self-loop at vertex {v}")

    def lists(v: int, u: int) -> bool:
        return (adj[v] >> u) & 1 == 1

    for v in range(n):
        for u in range(v + 1, n):
            if lists(v, u) and not lists(u, v):
                raise ValueError(f"asymmetric adjacency between {v} and {u}")
    for u in range(n):
        for v in range(u):
            if lists(u, v) and not lists(v, u):
                raise ValueError(f"asymmetric adjacency between {v} and {u}")
    return sum(lists(v, u) for v in range(n) for u in range(v + 1, n))


def alpha_brute(g: Graph) -> int:
    """Maximum independent set size by scanning all 2^n subsets."""
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        if all(not (g.adj[v] & mask) for v in iter_bits(mask)):
            best = mask.bit_count()
    return best


def alpha_pool_brute(rows, pool: int) -> int:
    """Maximum independent set size within ``pool``, for pools too large to scan.

    Takes a vertex with at most one neighbour in the pool outright (some
    maximum set holds it), else tries a vertex of largest pool degree in and
    out.  No bounds and no incumbent: fast enough up to about 44 vertices at
    any density, where the 2^n scan of ``alpha_brute`` is not.
    """
    if not pool:
        return 0
    top, top_degree = -1, -1
    for v in iter_bits(pool):
        degree = (rows[v] & pool).bit_count()
        if degree <= 1:
            return 1 + alpha_pool_brute(rows, pool & ~rows[v] & ~(1 << v))
        if degree > top_degree:
            top, top_degree = v, degree
    return max(alpha_pool_brute(rows, pool & ~(1 << top)),
               1 + alpha_pool_brute(rows, pool & ~rows[top] & ~(1 << top)))


def _smallest_uncovered(rows: list[int], n: int) -> tuple[int, int] | None:
    for v in range(n):
        if rows[v]:
            return v, (rows[v] & -rows[v]).bit_length() - 1
    return None


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def tau_brute(g: Graph, min_side: int = 1) -> int | None:
    """Exhaustive minimum biclique partition size; None when infeasible.

    Pruning-free except for cutting branches that already match the best
    complete partition found; never consults eigenvalues or independent sets.
    """
    n = g.n
    rows = list(g.adj)
    best = [g.m + 1 if min_side == 1 else None]

    def dfs(parts: int) -> None:
        edge = _smallest_uncovered(rows, n)
        if edge is None:
            if best[0] is None or parts < best[0]:
                best[0] = parts
            return
        if best[0] is not None and parts + 1 >= best[0]:
            return
        a, b = edge
        pool_a = rows[b] & ~(1 << a)
        for sub_a in _submasks(pool_a):
            a_mask = sub_a | (1 << a)
            if a_mask.bit_count() < min_side:
                continue
            cn = rows[a]
            for x in iter_bits(sub_a):
                cn &= rows[x]
            cn &= ~a_mask
            pool_b = cn & ~(1 << b)
            for sub_b in _submasks(pool_b):
                b_mask = sub_b | (1 << b)
                if b_mask.bit_count() < min_side:
                    continue
                saved = [(v, rows[v]) for v in iter_bits(a_mask | b_mask)]
                for x in iter_bits(a_mask):
                    rows[x] &= ~b_mask
                for y in iter_bits(b_mask):
                    rows[y] &= ~a_mask
                dfs(parts + 1)
                for v, row in saved:
                    rows[v] = row

    if g.m == 0:
        return 0
    dfs(0)
    if min_side == 1:
        return best[0]
    return best[0]


def four_cycle_counts(rows) -> dict[tuple[int, int], int]:
    """The number of 4-cycles u-v-x-y-u through each edge uv, u < v, of the
    graph given by bitmask rows: one per edge xy with x a neighbour of v
    other than u and y a neighbour of u other than v."""
    n = len(rows)
    return {
        (u, v): sum(
            1 for x in range(n) for y in range(n)
            if x != u and y != v and rows[v] >> x & 1 and rows[u] >> y & 1 and rows[x] >> y & 1
        )
        for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1
    }


def fewest_four_cycles_reference(rows) -> tuple[int, int] | None:
    """Reference for ``bipart.partition._fewest_four_cycles``, from the full
    counts: None when some edge lies on no 4-cycle; otherwise the edge of
    least count, ties to the lexicographically first."""
    counts = four_cycle_counts(rows)
    if not counts or 0 in counts.values():
        return None
    return min(counts, key=lambda edge: (counts[edge], edge))


def gp_bound_reference(rows, n: int) -> int:
    """max(n+, n-) of the graph given by bitmask rows: the eigenvalues of its
    0/1 adjacency matrix (numpy's ``eigvalsh``) counted beyond 1e-8 * n, the
    library's default tolerance."""
    matrix = np.array([[float(rows[u] >> v & 1) for v in range(n)] for u in range(n)]).reshape(n, n)
    eigenvalues = np.linalg.eigvalsh(matrix)
    tol = 1e-8 * max(n, 1)
    return int(max(np.count_nonzero(eigenvalues > tol), np.count_nonzero(eigenvalues < -tol)))


def _coverage_setup(g: Graph, universe, sets):
    """Rows of G[universe] relabelled to 0..u-1, and the sets' local masks."""
    umask = mask_of(universe)
    verts = list(iter_bits(umask))
    index = {v: i for i, v in enumerate(verts)}
    rows0 = []
    for v in verts:
        row = 0
        for u in iter_bits(g.adj[v] & umask):
            row |= 1 << index[u]
        rows0.append(row)
    return verts, rows0, [mask_of(index[v] for v in s) for s in sets]


def _coverage_moves(rows: list[int], a_mask: int) -> list[tuple[int, list[int]]]:
    """Each right side inside the current common neighborhood of ``a_mask``,
    from largest down, with the rows left once its cross edges are taken."""
    cn = (1 << len(rows)) - 1
    for v in iter_bits(a_mask):
        cn &= rows[v]
    cn &= ~a_mask
    moves = []
    for l_mask in _submasks(cn):
        nrows = list(rows)
        for x in iter_bits(a_mask):
            nrows[x] &= ~l_mask
        for y in iter_bits(l_mask):
            nrows[y] &= ~a_mask
        moves.append((l_mask, nrows))
    return moves


def coverage_brute(g: Graph, universe, sets) -> int:
    """Literal maximum of the sequential coverage game.

    Every order of the sets, every subset of the current common neighborhood
    at every step.  Exponential; keep the instances tiny.
    """
    _, rows0, set_masks = _coverage_setup(g, universe, sets)

    def play(order_rest: tuple[int, ...], rows: list[int]) -> int:
        if not order_rest:
            return 0
        j, rest = order_rest[0], order_rest[1:]
        a_mask = set_masks[j]
        best = 0
        for l_mask, nrows in _coverage_moves(rows, a_mask):
            got = a_mask.bit_count() * l_mask.bit_count() + play(rest, nrows)
            if got > best:
                best = got
        return best

    best = 0
    for order in permutations(range(len(set_masks))):
        best = max(best, play(tuple(order), list(rows0)))
    return best


def coverage_first_play(g: Graph, universe, sets) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The maximum of the coverage game and the first play that reaches it.

    Plays are ordered as a tree: at each step the sets left in index order,
    then each right side, as a mask over the sorted universe, from largest
    down.  Every play is scored, and the first one with the maximum is
    returned as (value, order, right sides in universe labels).
    Exponential; keep the instances tiny.
    """
    verts, rows0, set_masks = _coverage_setup(g, universe, sets)

    def first(remaining: int, rows: list[int]) -> tuple[int, tuple]:
        if not remaining:
            return 0, ()
        top: tuple[int, tuple] | None = None
        for j in iter_bits(remaining):
            for l_mask, nrows in _coverage_moves(rows, set_masks[j]):
                value, play = first(remaining & ~(1 << j), nrows)
                value += set_masks[j].bit_count() * l_mask.bit_count()
                if top is None or value > top[0]:
                    top = value, ((j, l_mask),) + play
        return top

    value, play = first((1 << len(set_masks)) - 1, list(rows0))
    return value, tuple(j for j, _ in play), tuple(tuple(verts[i] for i in iter_bits(l)) for _, l in play)


def maximal_plays(g: Graph, universe, sets):
    """All k! maximal plays: per order, take the full common neighborhood.

    Yields (order, covered edge set) pairs with edges in original labels.
    """
    umask = mask_of(universe)
    set_list = [tuple(s) for s in sets]
    for order in permutations(range(len(set_list))):
        rows = list(g.adj)
        covered: set[tuple[int, int]] = set()
        for j in order:
            a_mask = mask_of(set_list[j])
            cn = umask
            for v in iter_bits(a_mask):
                cn &= rows[v]
            cn &= ~a_mask
            for x in iter_bits(a_mask):
                for y in iter_bits(cn):
                    covered.add((x, y) if x < y else (y, x))
                rows[x] &= ~cn
            for y in iter_bits(cn):
                rows[y] &= ~a_mask
        yield order, covered


def balanced_side_brute(g: Graph) -> int:
    """Largest balanced biclique side by direct enumeration of both sides."""
    best = 0
    vertices = range(g.n)
    for k in range(1, g.n // 2 + 1):
        found = False
        for a in combinations(vertices, k):
            amask = mask_of(a)
            cn = (1 << g.n) - 1
            for v in a:
                cn &= g.adj[v]
            cn &= ~amask
            if cn.bit_count() >= k:
                found = True
                break
        if found:
            best = k
        else:
            break
    return best


def balanced_side_heuristic_reference(g: Graph, budget: int, seed: int) -> int:
    """Reference for ``bipart.graphs._balanced_side_heuristic``: the per-vertex loop.

    Each restart grows A from a random vertex by the vertex x outside A that
    keeps |cn & N(x)| largest, where cn is A's common neighborhood, and draws
    among the three lowest tied vertices.  Consumes the same ``random.Random(seed)``
    draws and returns the same k.
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
        cn = adj[start]
        while steps < budget:
            steps += 1
            top_score, top = -1, []
            for x in range(n):
                bx = 1 << x
                if a_mask & bx:
                    continue
                score = (cn & adj[x] & ~bx).bit_count()
                if score > top_score:
                    top_score, top = score, [x]
                elif score == top_score:
                    top.append(x)
            if top_score <= 0:
                break
            x = top[0] if len(top) == 1 else rng.choice(top[:3])
            a_mask |= 1 << x
            cn = cn & adj[x] & ~(1 << x)
            best = max(best, min(a_mask.bit_count(), cn.bit_count()))
    return best


def edge_count_within_reference(g: Graph, vertices) -> int:
    """Reference for ``bipart.graphs.edge_count_within``: pairs u < v of the set
    that are edges.  Takes anything that iterates over vertex indices."""
    members = sorted(set(vertices))
    return sum(1 for u, v in combinations(members, 2) if (g.adj[u] >> v) & 1)


def beta_brute(g: Graph) -> int:
    """Largest induced complete bipartite subgraph order, by subset scan."""
    best = 0
    for mask in range(1, 1 << g.n):
        size = mask.bit_count()
        if size <= best or size < 2:
            continue
        members = list(iter_bits(mask))
        # Try every bipartition of the chosen vertex set.
        for split in range(1, 1 << (size - 1)):
            a_mask = 0
            b_mask = 0
            for i, v in enumerate(members):
                if (split >> i) & 1:
                    a_mask |= 1 << v
                else:
                    b_mask |= 1 << v
            if not a_mask or not b_mask:
                continue
            ok = True
            for v in iter_bits(a_mask):
                if g.adj[v] & a_mask or (g.adj[v] & b_mask) != b_mask:
                    ok = False
                    break
            if ok:
                for v in iter_bits(b_mask):
                    if g.adj[v] & b_mask:
                        ok = False
                        break
            if ok:
                best = size
                break
    return best


def validate_partition_reference(g: Graph, partition) -> list[str]:
    """Reference partition validator keeping a dict of edge tuples.

    Emits the same diagnostics, in the same order, that
    ``bipart.partition.validate_partition`` promises.
    """
    issues: list[str] = []
    seen: dict[tuple[int, int], int] = {}
    for i, part in enumerate(partition.parts):
        for v in iter_bits(part.a | part.b):
            if v >= g.n:
                issues.append(f"vertex-out-of-range: {v} in part {i}")
        for x in iter_bits(part.a):
            for y in iter_bits(part.b):
                if x >= g.n or y >= g.n:
                    continue
                e = (x, y) if x < y else (y, x)
                if not g.has_edge(*e):
                    issues.append(f"non-edge: {e} claimed by part {i}")
                    continue
                if e in seen:
                    issues.append(f"duplicate-edge: {e} in parts {seen[e]} and {i}")
                else:
                    seen[e] = i
    for e in g.edges():
        if e not in seen:
            issues.append(f"uncovered-edge: {e}")
    return issues


def normalize_stars_first_reference(g: Graph, partition) -> list[tuple[int, int]]:
    """Reference for ``bipart.partition.normalize_stars_first`` on a valid
    partition: the restart loop that rebuilds the center mask on every pass.

    Returns the output parts as (a mask, b mask), stars first, in order.
    """
    stars: list[tuple[int, int]] = []  # (center, leaves mask)
    nonstars: list[tuple[int, int]] = []  # (a mask, b mask)
    for part in partition.parts:
        if part.a.bit_count() == 1:
            stars.append((part.a.bit_length() - 1, part.b))
        elif part.b.bit_count() == 1:
            stars.append((part.b.bit_length() - 1, part.a))
        else:
            nonstars.append((part.a, part.b))

    star_index: dict[int, int] = {}
    for i, (c, _) in enumerate(stars):
        star_index.setdefault(c, i)

    def merge_into_star(center: int, extra: int) -> None:
        i = star_index[center]
        c, leaves = stars[i]
        if leaves & extra:
            raise AssertionError("merged star leaves overlap existing leaves")
        stars[i] = (c, leaves | extra)

    changed = True
    while changed:
        changed = False
        centers = 0
        for c, _ in stars:
            centers |= 1 << c
        for idx, (amask, bmask) in enumerate(nonstars):
            if not (amask | bmask) & centers:
                continue
            changed = True
            del nonstars[idx]
            for v in iter_bits(amask & centers):
                merge_into_star(v, bmask)
            a_rest = amask & ~centers
            for v in iter_bits(bmask & centers):
                if a_rest:
                    merge_into_star(v, a_rest)
            b_rest = bmask & ~centers
            if a_rest and b_rest:
                if a_rest.bit_count() == 1:
                    c = (a_rest & -a_rest).bit_length() - 1
                    stars.append((c, b_rest))
                    star_index.setdefault(c, len(stars) - 1)
                elif b_rest.bit_count() == 1:
                    c = (b_rest & -b_rest).bit_length() - 1
                    stars.append((c, a_rest))
                    star_index.setdefault(c, len(stars) - 1)
                else:
                    nonstars.insert(idx, (a_rest, b_rest))
            break

    return [(1 << c, leaves) for c, leaves in stars] + nonstars


def swap_polish_reference(adj, n: int, smask: int, rng, moves: int, hits: Counter | None = None):
    """Reference for ``bipart.graphs._swap_polish``: the list-based plateau walk.

    Returns the same (size, mask) and consumes the same ``rng`` draws.  When
    ``hits`` is given, it counts the branches taken: "insert" (a free vertex
    added), "swap", "no-tight" (the walk stops) and "kick" (a stale plateau),
    and "max-count" keeps the largest neighbour count any vertex reached.
    """
    hits = Counter() if hits is None else hits
    cnt = [(adj[v] & smask).bit_count() for v in range(n)]
    hits["max-count"] = max(hits["max-count"], *cnt)
    s = smask

    def add(v: int) -> None:
        nonlocal s
        s |= 1 << v
        for u in iter_bits(adj[v]):
            cnt[u] += 1
            hits["max-count"] = max(hits["max-count"], cnt[u])

    def remove(v: int) -> None:
        nonlocal s
        s &= ~(1 << v)
        for u in iter_bits(adj[v]):
            cnt[u] -= 1

    best_mask, best_size = s, s.bit_count()
    stale = 0
    for _ in range(moves):
        frees = [v for v in range(n) if cnt[v] == 0 and not (s >> v) & 1]
        if frees:
            hits["insert"] += 1
            add(rng.choice(frees))
            if s.bit_count() > best_size:
                best_size, best_mask = s.bit_count(), s
                stale = 0
            continue
        tights = [v for v in range(n) if cnt[v] == 1 and not (s >> v) & 1]
        if not tights:
            hits["no-tight"] += 1
            break
        hits["swap"] += 1
        v = rng.choice(tights)
        u = ((adj[v] & s) & -(adj[v] & s)).bit_length() - 1
        remove(u)
        add(v)
        stale += 1
        if stale > 350:
            hits["kick"] += 1
            members = list(iter_bits(s))
            for x in rng.sample(members, min(2, len(members))):
                remove(x)
            stale = 0
    return best_size, best_mask


def beam_reference(adj, n: int, rng, incumbent: int, hits: Counter | None = None) -> tuple[int, int]:
    """Reference for ``bipart.graphs._beam_with_exact_finish``: the list-based beam.

    Lists each pool with ``iter_bits``, samples and key-sorts the list, and runs
    the exact finisher on the global rows.  Returns the same (size, mask) and
    consumes the same ``rng`` draws.  When ``hits`` is given, it counts the
    branches taken: "finish" (a pool solved exactly), "whole" (a pool listed
    whole), "sample-set" and "sample-list" (a pool sampled above 277 members,
    where ``random.sample`` picks into a set, or at or below, where it draws
    from a list copy), and "wide-level" (a level with more pools to rank than
    the library ranks at once).
    """
    hits = Counter() if hits is None else hits
    beam = [((1 << n) - 1, 0, 0)]
    best_size, best_mask = incumbent, 0
    while beam:
        deeper = []
        for pool, smask, size in beam:
            if pool.bit_count() <= _FINISH_AT:
                hits["finish"] += 1
                got, gmask, _, _ = _alpha_branch_and_bound(adj, pool, 250_000, (best_size - size, 0))
                if size + got > best_size:
                    best_size, best_mask = size + got, smask | gmask
            else:
                deeper.append((pool, smask, size))
        if len(deeper) > _RANK_CHUNK:
            hits["wide-level"] += 1
        children = {}
        for pool, smask, size in deeper:
            bits = list(iter_bits(pool))
            if len(bits) <= _BEAM_SAMPLE:
                hits["whole"] += 1
                cand = bits
            else:
                hits["sample-set" if len(bits) > 277 else "sample-list"] += 1
                cand = rng.sample(bits, _BEAM_SAMPLE)
            cand.sort(key=lambda v: ((adj[v] & pool).bit_count(), v))
            for v in cand[:_BEAM_BRANCH]:
                ns = smask | (1 << v)
                if ns not in children:
                    children[ns] = (pool & ~adj[v] & ~(1 << v), ns, size + 1)
        ranked = sorted(children.items(), key=lambda kv: (-kv[1][0].bit_count(), rng.random()))
        beam = [state for _, state in ranked[:_BEAM_WIDTH]]
    return best_size, best_mask
