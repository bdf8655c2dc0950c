"""Adjacency-spectrum inertia and the Graham-Pollak lower bound.

The number of edge-disjoint complete bipartite subgraphs needed to
partition E(G) is at least max(n+, n-), the larger count of positive or
negative adjacency eigenvalues.  Inertia is computed with a symmetric
eigenvalue solver (LAPACK via numpy), which is backward stable; the
contract here is the sign counts within a tolerance, not a particular
algorithm.  ``_eigenvalues`` is the call into the solver for whole
matrices.  It takes a stack of matrices, so ``_gp_bounds`` bounds many
matrices in one call; ``graham_pollak_lower_bound``, the whole-graph bound
and the exact partition search's root bound, is a stack of one below
``_SLICE_MIN`` vertices, the size from which slicing the spectrum measured
about 40 % below one full solve.  From there on
``_sliced_gp_bound`` takes one half-size ``eigh`` of the leading block and
a half-size ``eigvalsh`` of a Schur complement for one sign, and for the
other only while the first count is below n/2, as n+ + n- <= n; its guard
hands the graph back to the whole-matrix solve when rounding could flip a
count or a solver fails to converge.  The search makes the other call:
``partition._update_bounds`` decomposes a node's matrix once
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


# Graphs of fewer vertices skip _sliced_gp_bound.  On a dense graph its cost,
# a half-size eigh, two half-size products and one half-size eigvalsh, falls
# below one full eigvalsh from 500 vertices on.  What that saves exceeds the
# half-size eigh, about 30 % of a full solve, that a graph the guard sends
# back after the eigh wastes from about 800 on, but only from 1000 by more
# than the spread between runs (G(n, 1/2) and G(n, 0.995) at n = 500-1000,
# fourteen runs each in alternated order, 2-core x86-64, numpy 2.4 on one
# OpenBLAS thread).
_SLICE_MIN = 1000


def _sliced_gp_bound(packed: np.ndarray, n: int) -> int | None:
    """max(n+, n-) of the graph given by n packed rows at the default
    tolerance, by spectrum slicing; None when the guard cannot vouch for
    the counts.

    By Sylvester's law of inertia #{lambda > sigma} = n+(A - sigma I), and by
    Haynsworth's inertia additivity (Haynsworth 1968) that is
    n+(A11 - sigma I) + n+(S(sigma)) for the leading block A11 = A[:h, :h],
    h = n // 2, and its Schur complement
    S(sigma) = A22 - sigma I - A12^T (A11 - sigma I)^-1 A12.  With
    A11 = Q L Q^T and W = Q^T A12 that is
    S(sigma) = A22 - sigma I - W^T (L - sigma I)^-1 W, so one half-size
    ``eigh`` and one product serve both shifts: sigma = tol counts n+ and
    sigma = -tol counts n-, each with one half-size ``eigvalsh``.  The sign
    with more eigenvalues of A11 beyond its shift goes first, minus on a tie
    (the bulk of a dense spectrum sits at -p); by Cauchy interlacing it
    mostly has the larger count.  As n+ + n- <= n, a first count c with
    2c >= n is max(n+, n-): the other shift, and its guard, are skipped.  The
    blocks come from the packed rows; the n x n float64 matrix is never built.

    The guard returns None, for the whole-matrix solve, when

    - ``eigh`` or ``eigvalsh`` fails to converge;
    - A11 has an eigenvalue within tol of a shift (|lambda| <= 2 tol), before
      any product.  A singular A11 (isolated or twin vertices among the first
      h, K_{m,m} split between its sides) always has one; a zero row of A11,
      a vertex with no neighbour among the first h as in most sparse graphs,
      is caught before the ``eigh``;
    - S(sigma) has an eigenvalue mu with |mu| <= 64 eps n (sum_k ||w_k||^2 /
      |lambda_k - sigma| + max |mu| + n), w_k the rows of W: within 64 n
      units in the last place of the magnitudes that the product, ``eigh``
      carried through (L - sigma I)^-1, and ``eigvalsh`` combine.
    """
    tol = default_tolerance(n)
    h = n // 2
    top = _unpacked(packed[:h], n)
    a11 = top[:, :h]
    if not a11.any(axis=1).all():  # a zero row: A11 is singular
        return None
    try:
        lam, q = np.linalg.eigh(a11.astype(np.float64))
    except np.linalg.LinAlgError:
        return None
    if np.any(np.abs(lam) <= 2 * tol):
        return None
    w = q.T @ top[:, h:].astype(np.float64)
    del q, top, a11
    weights = np.einsum("ij,ij->i", w, w)
    a22 = _unpacked(packed[h:], n)[:, h:].astype(np.float64)
    diagonal = np.diag_indices(n - h)
    counts = []
    first = 1 if np.count_nonzero(lam > tol) > np.count_nonzero(lam < -tol) else -1
    for sign in (first, -first):
        sigma = sign * tol
        shifted = lam - sigma
        schur = a22 - w.T @ (w / shifted[:, None])
        schur[diagonal] -= sigma
        try:
            mu = np.linalg.eigvalsh(schur)
        except np.linalg.LinAlgError:
            return None
        rounding = 64 * np.finfo(np.float64).eps * n * (
            weights @ (1 / np.abs(shifted)) + np.abs(mu).max() + n)
        if np.any(np.abs(mu) <= rounding):
            return None
        counts.append(np.count_nonzero(sign * shifted > 0) + np.count_nonzero(sign * mu > 0))
        if 2 * counts[-1] >= n:  # n+ + n- <= n: the other count is no larger
            return int(counts[-1])
    return int(max(counts))


def graham_pollak_lower_bound(g: Graph) -> int:
    """max(n+, n-): a lower bound on the size of any biclique edge partition."""
    if g.n >= _SLICE_MIN:
        bound = _sliced_gp_bound(g.packed, g.n)
        if bound is not None:
            return bound
    return _gp_bounds(_matrix(g.packed, g.n)[None])[0]
