"""Adjacency-spectrum inertia and the Graham-Pollak lower bound.

The number of edge-disjoint complete bipartite subgraphs needed to
partition E(G) is at least max(n+, n-), the larger count of positive or
negative adjacency eigenvalues.  Inertia is computed with a symmetric
eigenvalue solver (LAPACK via numpy), which is backward stable; the
contract here is the sign counts within a tolerance, not a particular
algorithm.  ``_eigenvalues`` is this module's one call into the solver.
It takes a stack of matrices, so ``_gp_bounds`` bounds many matrices in one
call; ``graham_pollak_lower_bound``, the whole-graph bound and the exact
partition search's root bound, is a stack of one.  The search makes the
other call: ``partition._update_bounds`` decomposes a node's matrix once
(``numpy.linalg.eigh``) and reads the inertia of its children from that.
The children it cannot read, and small blocks, go to ``_gp_bounds``.  A
``Graph`` is read from ``Graph.packed``.
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


def _matrix(packed: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each packed row as float64 0/1 entries; of n packed
    adjacency rows, the adjacency matrix."""
    return _unpacked(packed, n).astype(np.float64)


def _eigenvalues(matrices: np.ndarray, n: int) -> np.ndarray:
    """Ascending eigenvalues of each symmetric n x n float64 matrix of a stack,
    along the last axis."""
    try:
        return np.linalg.eigvalsh(matrices)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigenvalue computation failed to converge: {exc}") from exc


def _gp_bounds(matrices: np.ndarray) -> list[int]:
    """max(n+, n-) of each matrix of a (k, n, n) float64 stack, at the default
    tolerance, from one eigen-solve.

    The counts of :func:`inertia_from_rows` without the signature, for the
    whole-graph bound and for the nodes of the exact partition search that
    its rank-2 update does not bound.
    """
    n = matrices.shape[-1]
    eigenvalues = _eigenvalues(matrices, n)
    tol = default_tolerance(n)
    n_plus = np.count_nonzero(eigenvalues > tol, axis=-1)
    n_minus = np.count_nonzero(eigenvalues < -tol, axis=-1)
    return np.maximum(n_plus, n_minus).tolist()


def _signature(packed: np.ndarray, n: int, tol: float | None) -> InertiaSignature:
    """Inertia of the graph given by n packed rows."""
    if tol is None:
        tol = default_tolerance(n)
    if not 0 < tol < np.inf:  # also refuses nan
        raise ValueError("tolerance must be finite and positive")
    eigenvalues = _eigenvalues(_matrix(packed, n), n)
    n_plus = int(np.count_nonzero(eigenvalues > tol))
    n_minus = int(np.count_nonzero(eigenvalues < -tol))
    n_zero = n - n_plus - n_minus
    magnitudes = np.abs(eigenvalues)
    ambiguous = bool(np.any((magnitudes > tol) & (magnitudes <= 2 * tol)))
    return InertiaSignature(n_plus, n_zero, n_minus, tol, ambiguous)


def inertia_from_rows(rows: Sequence[int], n: int, tol: float | None = None) -> InertiaSignature:
    """Inertia of the graph given directly by adjacency bitmask rows."""
    return _signature(_packed(rows, n), n, tol)


def inertia(g: Graph, tol: float | None = None) -> InertiaSignature:
    """Eigenvalue sign counts of the adjacency matrix of g."""
    return _signature(g.packed, g.n, tol)


def graham_pollak_lower_bound(g: Graph) -> int:
    """max(n+, n-): a lower bound on the size of any biclique edge partition."""
    return _gp_bounds(_matrix(g.packed, g.n)[None])[0]
