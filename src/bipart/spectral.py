"""Adjacency-spectrum inertia and the Graham-Pollak lower bound.

The number of edge-disjoint complete bipartite subgraphs needed to
partition E(G) is at least max(n+, n-), the larger count of positive or
negative adjacency eigenvalues.  Inertia is computed with a symmetric
eigenvalue solver (LAPACK via numpy), which is backward stable; the
contract here is the sign counts within a tolerance, not a particular
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _packed, _unpacked

__all__ = [
    "InertiaSignature",
    "default_tolerance",
    "inertia",
    "inertia_from_rows",
    "graham_pollak_lower_bound",
]


@dataclass(frozen=True)
class InertiaSignature:
    """Counts of positive, zero-classified, and negative adjacency eigenvalues.

    An eigenvalue counts as zero iff |lambda| <= tol.  ``ambiguous`` is set
    when some |lambda| falls in (tol, 2*tol], i.e. the zero classification
    would flip under a doubled tolerance.
    """

    n_plus: int
    n_zero: int
    n_minus: int
    tol: float
    ambiguous: bool = False

    def __post_init__(self) -> None:
        if self.n_plus < 0 or self.n_zero < 0 or self.n_minus < 0:
            raise ValueError("inertia counts must be nonnegative")


def default_tolerance(n: int) -> float:
    # Adjacency eigenvalues are algebraic integers, so true zeros are exact;
    # 1e-8 * n sits far above rounding noise at the scales handled here.
    return 1e-8 * max(n, 1)


def _eigenvalues(rows: Sequence[int], n: int) -> np.ndarray:
    """Ascending adjacency eigenvalues of the graph given by bitmask rows."""
    try:
        return np.linalg.eigvalsh(_unpacked(_packed(rows, n), n).astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigenvalue computation failed to converge: {exc}") from exc


def inertia_from_rows(rows: Sequence[int], n: int, tol: float | None = None) -> InertiaSignature:
    """Inertia of the graph given directly by adjacency bitmask rows."""
    if tol is None:
        tol = default_tolerance(n)
    if not 0 < tol < np.inf:  # also refuses nan
        raise ValueError("tolerance must be finite and positive")
    eigenvalues = _eigenvalues(rows, n)
    n_plus = int(np.count_nonzero(eigenvalues > tol))
    n_minus = int(np.count_nonzero(eigenvalues < -tol))
    n_zero = n - n_plus - n_minus
    magnitudes = np.abs(eigenvalues)
    ambiguous = bool(np.any((magnitudes > tol) & (magnitudes <= 2 * tol)))
    return InertiaSignature(n_plus, n_zero, n_minus, tol, ambiguous)


def _gp_bound(rows: Sequence[int], n: int) -> int:
    """max(n+, n-) of the graph given by bitmask rows, at the default tolerance.

    The counts of :func:`inertia_from_rows` without the signature, for the
    whole-graph bound and for each node of the exact partition search.
    """
    eigenvalues = _eigenvalues(rows, n)
    tol = default_tolerance(n)
    return max(int(np.count_nonzero(eigenvalues > tol)), int(np.count_nonzero(eigenvalues < -tol)))


def inertia(g: Graph, tol: float | None = None) -> InertiaSignature:
    """Eigenvalue sign counts of the adjacency matrix of g."""
    return inertia_from_rows(g.adj, g.n, tol)


def graham_pollak_lower_bound(g: Graph) -> int:
    """max(n+, n-): a lower bound on the size of any biclique edge partition."""
    return _gp_bound(g.adj, g.n)
