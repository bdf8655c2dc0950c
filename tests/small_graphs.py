"""Every graph on at most 7 vertices, one per isomorphism class.

Classes on n vertices grow from those on n - 1: each gets a new vertex n - 1
joined to each of the 2^(n-1) subsets of the old vertices, and one graph per
canonical form is kept.  The canonical form is the smallest upper-triangle
code over the vertex orders that sort the vertices by (degree, sorted
neighbour degrees); that key is invariant under isomorphism, so isomorphic
graphs meet the same set of codes.  The class counts are 1, 1, 2, 4, 11, 34,
156 and 1,044 for n = 0..7 (OEIS A000088).

Deliberately independent of the library's own search code: only ``Graph``
is used, to hand the classes to the code under test.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from bipart.graphs import Graph


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def code_of(rows: list[int], order: list[int]) -> int:
    """Upper-triangle code of the graph relabelled so position i holds order[i]:
    bit k is set iff the k-th pair (i, j), i < j in lexicographic order, is an edge."""
    code = 0
    for k, (i, j) in enumerate(_pairs(len(order))):
        if (rows[order[i]] >> order[j]) & 1:
            code |= 1 << k
    return code


def rows_of(n: int, code: int) -> list[int]:
    """The adjacency rows that ``code_of`` encodes, in positional labels."""
    rows = [0] * n
    for k, (i, j) in enumerate(_pairs(n)):
        if (code >> k) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def canonical_code(rows: list[int]) -> int:
    n = len(rows)
    degree = [row.bit_count() for row in rows]
    key = [(degree[v], sorted(degree[w] for w in range(n) if (rows[v] >> w) & 1)) for v in range(n)]
    cells: list[list[int]] = []
    for v in sorted(range(n), key=key.__getitem__):
        if cells and key[cells[-1][0]] == key[v]:
            cells[-1].append(v)
        else:
            cells.append([v])
    return min(
        code_of(rows, [v for cell in choice for v in cell])
        for choice in product(*(permutations(cell) for cell in cells))
    )


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[int, ...]:
    """Canonical codes of the graphs on n vertices, ascending."""
    if n <= 1:
        return (0,)
    found = set()
    for code in graph_classes(n - 1):
        rows = rows_of(n - 1, code)
        for nbrs in range(1 << (n - 1)):
            grown = [row | ((nbrs >> v) & 1) << (n - 1) for v, row in enumerate(rows)]
            found.add(canonical_code(grown + [nbrs]))
    return tuple(sorted(found))


def graph_of(n: int, code: int) -> Graph:
    return Graph(n, tuple(rows_of(n, code)))
