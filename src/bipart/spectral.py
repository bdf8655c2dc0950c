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
count or a solver fails to converge.  The exact search bounds its sibling
blocks through ``_child_bounds``: ``_update_bounds`` decomposes a node's
matrix once (``numpy.linalg.eigh``) and reads its children's inertia from
that; the children it cannot read, and small blocks, go to ``_gp_bounds``.
A ``Graph`` is read from ``Graph.packed``.
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


def _eigenvalues(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, along the last axis, of each symmetric float64 matrix of a stack."""
    try:
        return np.linalg.eigvalsh(matrices)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigenvalue computation failed to converge: {exc}") from exc


def _gp_bounds(matrices: np.ndarray) -> list[int]:
    """max(n+, n-) of each matrix of a (k, n, n) float64 stack, at the default
    tolerance, from one eigen-solve.

    The counts of :func:`inertia_from_rows` without the signature, for the
    whole-graph bound and for the children of the exact partition search
    that ``_update_bounds`` does not read.
    """
    n = matrices.shape[-1]
    eigenvalues = _eigenvalues(matrices)
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
    eigenvalues = _eigenvalues(_matrix(packed, n))
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
    k = len(sides)
    a_sides, b_sides = zip(*sides)
    stacked = _matrix(_packed((*rows, *a_sides, *b_sides), n), n)
    parent, u, v = stacked[:n], stacked[n:n + k], stacked[n + k:]
    if k < _UPDATE_MIN:
        return _direct_bounds(parent, u, v)
    bounds, unsure = _update_bounds(parent, u, v)
    if unsure.any():
        bounds[unsure] = _direct_bounds(parent, u[unsure], v[unsure])
    return bounds.tolist()
