"""Worst-case biaffine instances, minimax polynomials and the Krylov oracle.

The complexity floor R^2 D^2 / (2*floor(k/2)+1)^2 is realized three
independent ways, which must agree (``sandwich`` returns all three):

* the closed form R/(2m+1) for the minimax value of |t p(t)| over degree-k
  polynomials with p(0) = 1, built from an odd Chebyshev polynomial and
  certified by closed-form dual weights on its 2m+2 extremal nodes,
* the exact minimum residual over the order-(k-1) Krylov subspace of the
  constructed hard instance (least squares on the instance's orthonormal
  basis, a weighted DCT-I matrix in closed form), and
* the residual of the optimal polynomial solver (the Chebyshev
  semi-iterative method), which attains the floor on every matrix of
  norm <= R.

The minimax polynomial exists only as its three-term recurrence; nothing
expands it into powers of t, so all three agree to 1e-8 at every depth
(tested up to k = 1000).

Span-respecting algorithm runs are checked against the instance floor at
every step whose consumed oracle budget fits the instance's design depth.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algorithms import Trace
from .core import CertificateError, ContractError, Point, SaddleProblem, check_count

__all__ = [
    "MinimaxPoly",
    "minimax_poly",
    "chebyshev_nodes",
    "dual_weights",
    "HardInstance",
    "build_hard_instance",
    "krylov_min_residual",
    "chebyshev_solver",
    "sandwich",
    "LowerBoundReport",
    "verify_lower_bound",
]


@dataclass(frozen=True)
class MinimaxPoly:
    """The degree-k minimizer of max |t p(t)| over [-R, R] with p(0) = 1.

    The polynomial is even of degree 2m, m = floor(k/2); its weighted values
    t p(t) equioscillate with magnitude m_star = R/(2m+1) at 2m+2 nodes.
    Calls evaluate it by the three-term recurrence of ``_semi_iterate``.
    """

    k: int
    m: int
    R: float
    m_star: float

    def __call__(self, t):
        out = _minimax_values(self.m, self.R, np.asarray(t, dtype=float))
        return out if out.ndim else float(out)


def chebyshev_nodes(k: int, R: float = 1.0) -> np.ndarray:
    """The 2m+2 extremal nodes R cos((2m+1-j) pi / (2m+1)), increasing."""
    m = k // 2
    j = np.arange(2 * m + 2)
    return R * np.cos((2 * m + 1 - j) * np.pi / (2 * m + 1))


def minimax_poly(k: int, R: float = 1.0) -> MinimaxPoly:
    """The polynomial p(t) = ((-1)^m/(2m+1)) (R/t) T_{2m+1}(t/R), m = floor(k/2)."""
    check_count("k", k, 1)
    _check_radius(R)
    m = k // 2
    return MinimaxPoly(k=k, m=m, R=R, m_star=R / (2 * m + 1))


def _check_radius(R) -> None:
    """R must be finite and > 0, with R^2 and the semi-iteration's 2/R^2 finite.

    Both are checked as products, which give inf where a power would raise
    OverflowError.
    """
    r2 = float(R) * float(R) if 0 < R <= sys.float_info.max else 0.0
    if not (0 < r2 < math.inf and 2 / r2 < math.inf):
        raise ContractError(f"need finite R > 0 with R^2 and 2/R^2 finite, got R={R!r}")


def _semi_iterate(m: int, R: float, v, B, Bt):
    """m steps of the Chebyshev semi-iterative method for B z = v, ||B|| <= R.

    With x^2 = s/R^2, the polynomials S_0 = 1, S_1 = 4x^2 - 3,
    S_{j+1} = 2(2x^2 - 1) S_j - S_{j-1} satisfy x S_j(x^2) = T_{2j+1}(x), so
    P_j = (-1)^j S_j / (2j+1) is the degree-2j minimax residual polynomial
    (P_j(0) = 1).  Normalised, the recurrence reads
    P_{j+1} = a_j (1 - 2x^2) P_j - b_j P_{j-1} with a_j - b_j = 1 and
    P_{-1} = P_0 = 1; the iterates z_j follow it with residuals
    r_j = v - B z_j = P_j(B B^T) v.  ``B`` and ``Bt`` apply B and B^T.
    Returns (z_m, r_m).
    """
    z = z_prev = 0.0
    r = r_prev = v
    for j in range(m):
        a, b = 2 * (2 * j + 1) / (2 * j + 3), (2 * j - 1) / (2 * j + 3)
        g = (2 / R**2) * Bt(r)
        z, z_prev = a * (z + g) - b * z_prev, z
        r, r_prev = a * (r - B(g)) - b * r_prev, r
    return z, r


def _minimax_values(m: int, R: float, t: np.ndarray) -> np.ndarray:
    """p(t): the semi-iteration's residual for the scalar equations t z = 1."""
    return _semi_iterate(m, R, np.ones_like(t), lambda u: t * u, lambda u: t * u)[1]


def _kkt_residual_cheb(mu: np.ndarray, k: int) -> float:
    """Worst KKT residual of dual weights on the unit nodes, in the Chebyshev basis.

    The minimax polynomial p minimizes sum_j mu_j t_j^2 p(t_j)^2 over p(0) = 1
    exactly when the weights are stationary against every q with q(0) = 0.
    Since t_j p(t_j) = s_j / (2m+1) with alternating signs s_j, that is
    sum_j mu_j s_j t_j (T_i(t_j) - T_i(0)) = 0 for i = 1..2m.  Also checks
    the simplex and the objective 1/(2m+1)^2.  Any non-finite value gives
    inf.
    """
    m = k // 2
    t = chebyshev_nodes(k, 1.0)
    s = (-1.0) ** (m + 1 + np.arange(len(t)))
    w = mu * s * t
    x = np.append(t, 0.0)
    T_prev, T = np.ones_like(x), x
    w_sum = w.sum()
    stationarity = []
    for _ in range(2 * m):
        stationarity.append(T[:-1] @ w - T[-1] * w_sum)
        T_prev, T = T, 2 * x * T - T_prev
    pv = _minimax_values(m, 1.0, t)
    res = np.abs([
        *stationarity,
        mu.sum() - 1.0,
        min(mu.min(), 0.0),
        np.sum(mu * t * t * pv * pv) - 1.0 / (2 * m + 1) ** 2,
    ])
    return float(res.max()) if np.all(np.isfinite(res)) else np.inf


def dual_weights(k: int) -> np.ndarray:
    """Simplex weights certifying optimality of the minimax polynomial.

    Closed form: mu_j proportional to delta_j / t_j^2 on the unit nodes,
    delta = 1/2 at the two end nodes and 1 elsewhere, normalised to sum 1.
    delta_j (-1)^j are the barycentric weights of the Chebyshev-Lobatto
    points of degree 2m+1, so sum_j mu_j s_j t_j q(t_j) vanishes for every
    q with q(0) = 0 of degree <= 2m (Berrut & Trefethen, SIAM Rev. 2004).
    Weights are scale-free in R.  They are checked in the Chebyshev basis;
    failure raises CertificateError.
    """
    check_count("k", k, 1)
    t = chebyshev_nodes(k, 1.0)
    mu = 1.0 / t**2
    mu[[0, -1]] *= 0.5
    mu /= mu.sum()
    res = _kkt_residual_cheb(mu, k)
    if not res < 1e-12:
        raise CertificateError(f"dual weights for k={k} failed the KKT check (residual {res:.2e})")
    return mu


@dataclass(frozen=True)
class HardInstance:
    """Symmetric linear-equation instance plus its embedded biaffine saddle.

    ``diag`` is the diagonal of A; its first 2m+2 entries, ``lambdas``, are
    the nonzero eigenvalues and the rest are zero.  ``saddle`` is the
    biaffine problem <A x - b, y - x*> with x* = D sqrt(mu) on the support,
    mu = ``dual_weights(k)``: x* is the minimum-norm solution of A x = b, and
    the saddle point nearest the origin is (x*, x*).  ``krylov_basis`` is
    built on first use and kept.  Instances come from ``build_hard_instance``.
    """

    k: int
    m: int
    n: int
    R: float
    D: float
    diag: np.ndarray
    b: np.ndarray
    saddle: SaddleProblem = field(repr=False)

    @property
    def lambdas(self) -> np.ndarray:
        return self.diag[: 2 * self.m + 2]

    @property
    def A(self) -> np.ndarray:
        return np.diag(self.diag)

    @cached_property
    def krylov_basis(self) -> np.ndarray:
        """Read-only orthonormal basis of the whole Krylov space of (A, b).

        b_i^2 are the Chebyshev-Lobatto quadrature weights of the nodes
        lambdas / R, at which Chebyshev polynomials are discretely
        orthogonal (Mason & Handscomb, Chebyshev Polynomials, 2003).  So the
        columns q_j proportional to b * T_j(A/R), j = 0..2m+1, with the
        signs Gram-Schmidt gives, are orthonormal: the weighted DCT-I matrix
        of ``_dct1_basis``.  The leading d columns span the depth-d space, so
        one basis serves every depth.  Before it is kept, it is checked
        against the instance's own arrays (``_krylov_residual``); a residual
        past 1e-12 raises CertificateError.  A zero b gets no columns.
        """
        if not self.b.any():
            Q = np.zeros((self.n, 0))
        else:
            Q = _dct1_basis(self.n, self.m)
            res = _krylov_residual(Q, self.lambdas / self.R, self.b)
            if not res <= 1e-12:
                raise CertificateError(
                    f"closed-form Krylov basis for k={self.k} does not span the Krylov "
                    f"space of this instance (residual {res:.2e})"
                )
        Q.flags.writeable = False
        return Q

    @property
    def floor(self) -> float:
        """The complexity floor R^2 D_z^2 / (2m+1)^2 in the joint space."""
        Dz2 = 2 * self.D**2
        return self.R**2 * Dz2 / (2 * self.m + 1) ** 2


def _check_sizes(k: int, n: int, R: float, D: float) -> None:
    """Counts, and R and D whose derived quantities are all finite floats.

    Besides R^2 and 2/R^2 (``_check_radius``), the layer forms 2 D^2
    (||z*||^2) and the floor 2 R^2 D^2/(2m+1)^2, in that order of
    operations; |b| <= R D follows.
    """
    check_count("k", k, 1)
    check_count("n", n, 1)
    if n < k + 2:
        raise ContractError(f"need n >= k + 2, got k={k}, n={n}")
    _check_radius(R)
    N = 2 * (k // 2) + 1
    dz2 = 2 * (float(D) * float(D)) if 0 <= D <= sys.float_info.max else math.inf
    if not float(R) * float(R) * dz2 / (N * N) < math.inf:
        raise ContractError(
            f"need finite D >= 0 with 2 D^2 and the floor 2 R^2 D^2/(2m+1)^2 finite, "
            f"got R={R}, D={D}"
        )


def build_hard_instance(k: int, R: float = 1.0, D: float = 1.0, n: int | None = None) -> HardInstance:
    """Construct the depth-k worst-case instance in ambient dimension n >= k+2."""
    n = k + 2 if n is None else n
    _check_sizes(k, n, R, D)
    m = k // 2
    x_star = np.zeros(n)
    x_star[: 2 * m + 2] = D * np.sqrt(dual_weights(k))
    diag = np.zeros(n)
    diag[: 2 * m + 2] = chebyshev_nodes(k, R)
    b = diag * x_star
    # G(x, y) = (A y - b, b - A x) = c1 * (y, x) - c0, bit for bit
    c1, c0 = np.concatenate([diag, -diag]), np.concatenate([b, -b])
    swap = np.r_[n : 2 * n, :n]  # (x, y) -> (y, x)

    def op(z: np.ndarray) -> np.ndarray:
        g = np.multiply(c1, z.reshape(2 * n)[swap])  # reshape: a wrong length raises
        return np.subtract(g, c0, g)

    def val(z: np.ndarray) -> float:
        x, y = z[:n], z[n:]
        return float((diag * x - b) @ (y - x_star))

    saddle = SaddleProblem(
        name=f"hard-biaffine-k{k}",
        dim_x=n,
        dim_y=n,
        operator=op,
        lipschitz=R,
        saddle_point=Point(np.concatenate([x_star, x_star]), n),
        value=val,
    )
    return HardInstance(k=k, m=m, n=n, R=R, D=D, diag=diag, b=b, saddle=saddle)


# Entries per temporary of ``_dct1_basis`` and ``_krylov_residual``, which
# work a block of rows or columns at a time.  At 128 KB a temporary adds
# nothing to the peak RSS of a deep ``lowerbound`` run; blocks of 64 columns
# (0.5 MB at k = 1000) added about 0.6 MB to it.
_BASIS_BLOCK_ENTRIES = 2**14


def _dct1_basis(n: int, m: int) -> np.ndarray:
    """The weighted DCT-I matrix Q[i, j] = sign(t_i) sqrt(delta_i) cos(j theta_i) / sqrt(c_j).

    N = 2m+1, theta_i = (N-i) pi / N and t_i = cos(theta_i) on the N+1
    support rows, zero rows beyond; delta_i = 1/2 at i in {0, N} and 1
    otherwise, c_j = N at j in {0, N} and N/2 otherwise.  Each cosine is
    cos(pi r / N) with r = (N-i) j mod 2N reduced in integers, since
    cos(j theta_i) would carry an argument error growing with j; the 2N
    distinct values are computed once and gathered.  Returns an (n, N+1)
    array.
    """
    N = 2 * m + 1
    cosines = np.cos(np.arange(2 * N) * np.pi / N)
    i = np.arange(N + 1)
    row = np.where(i <= m, -1.0, 1.0)  # sign(t_i): t_i < 0 exactly for i <= m
    row[0] = -math.sqrt(0.5)
    row[N] = math.sqrt(0.5)
    col = np.full(N + 1, math.sqrt(2 / N))
    col[0] = col[N] = math.sqrt(1 / N)
    Q = np.zeros((n, N + 1))
    block = max(1, _BASIS_BLOCK_ENTRIES // (N + 1))
    for lo in range(0, N + 1, block):
        r = (N - i[lo : lo + block, None]) * i
        r %= 2 * N
        S = Q[lo : lo + len(r)]
        np.take(cosines, r, out=S)
        S *= row[lo : lo + len(r), None]
        S *= col
    return Q


def _krylov_residual(Q: np.ndarray, t: np.ndarray, b: np.ndarray) -> float:
    """Worst deviation of Q from the orthonormal Krylov basis of (diag(t), b).

    ``t`` is the instance's diagonal on the N+1 support rows divided by R.
    Checks that column 0 is b/||b|| on all rows, and that on the support
    t * q_j = (s_{j-1} q_{j-1} + s_{j+1} q_{j+1}) / (2 s_j), s = sqrt(c), which
    is t T_j = (T_{j-1} + T_{j+1})/2 with T_{-1} = T_1 and, at the Lobatto
    nodes, T_{N+1} = T_{N-1}.  By induction the leading d columns then span
    the depth-d Krylov space of these floats.  O(n N), in column blocks.
    """
    N = len(t) - 1
    bs = b / np.abs(b).max()  # no overflow or underflow in the norm
    res = float(np.abs(Q[:, 0] - bs / math.sqrt(bs.dot(bs))).max())
    s = np.full(N + 1, math.sqrt(N / 2))
    s[0] = s[N] = math.sqrt(N)
    nb = np.abs(np.arange(-1, N + 2))  # column j's neighbours sit at j and j+2
    nb[-1] = N - 1
    block = max(1, _BASIS_BLOCK_ENTRIES // (N + 1))
    for lo in range(0, N + 1, block):
        hi = min(lo + block, N + 1)
        W = Q[: N + 1, nb[lo : hi + 2]] * s[nb[lo : hi + 2]]
        d = t[:, None] * Q[: N + 1, lo:hi]
        d -= (W[:, :-2] + W[:, 2:]) / (2 * s[lo:hi])
        res = max(res, float(np.abs(d).max()))
    return res


def _krylov_basis(apply, b: np.ndarray, depth: int) -> np.ndarray:
    """Orthonormal columns Q spanning {b, A b, ..., A^(depth-1) b}; ``apply`` is v -> A v.

    Classical Gram-Schmidt applied twice keeps the columns orthonormal to
    working precision despite the ill-conditioning of raw power bases
    ("twice is enough": Giraud, Langou & Rozloznik, 2005).  Stops early if
    the Krylov space degenerates (the span is unchanged by degeneration), so
    Q has at most ``depth`` columns, and never more than its n rows.
    """
    nb = float(np.linalg.norm(b))
    Q = np.empty((len(b), min(depth, len(b))))
    w = b
    for j in range(Q.shape[1]):
        P = Q[:, :j]
        v = w - P @ (P.T @ w)
        v -= P @ (P.T @ v)
        nv = float(np.linalg.norm(v))
        if nv <= 1e-14 * nb:
            return Q[:, :j]
        Q[:, j] = v / nv
        w = apply(Q[:, j])
    return Q


def krylov_min_residual(A: np.ndarray, b: np.ndarray, k: int) -> float:
    """Exact min of ||A x - b||^2 over the order-(k-1) Krylov subspace of b.

    If the Krylov space degenerates early, the minimum over the achieved
    subspace is returned.
    """
    check_count("k", k, 1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not b.any():
        return 0.0
    Q = _krylov_basis(lambda v: A @ v, b, k)
    return _lstsq_residual(A @ Q, b)


def _lstsq_residual(AQ: np.ndarray, b: np.ndarray) -> float:
    """min over c of ||AQ c - b||^2, with A Q given and c from least squares."""
    coef, *_ = np.linalg.lstsq(AQ, b, rcond=None)
    r = AQ @ coef - b
    return float(r @ r)


def chebyshev_solver(B: np.ndarray, v: np.ndarray, k: int, R: float) -> np.ndarray:
    """The optimal degree-k polynomial iterate for B z = v with ||B|| <= R.

    Runs m = floor(k/2) steps of the Chebyshev semi-iterative method (Golub &
    Varga 1961), the three-term recurrence of the minimax polynomial in
    x^2 = B B^T / R^2, using 2m <= k matrix products.  The iterate is
    q(B^T B) B^T v with p(sqrt(s)) = 1 - s q(s), so its residual satisfies
    ||B z - v||^2 <= R^2 D^2 / (2m+1)^2 whenever v = B z_star with
    ||z_star|| <= D.
    """
    check_count("k", k, 1)
    _check_radius(R)
    B = np.asarray(B, dtype=float)
    v = np.asarray(v, dtype=float)
    if k < 2:
        return np.zeros(B.shape[1])
    return _semi_iterate(k // 2, R, v, lambda u: B @ u, lambda u: B.T @ u)[0]


def sandwich(instance: HardInstance) -> tuple[float, float, float]:
    """(closed form, Krylov optimum, Chebyshev residual) at the instance's depth k.

    The closed form is R^2 D^2/(2m+1)^2; the Krylov optimum is the least
    squares residual over the first k columns of ``krylov_basis``; the
    Chebyshev residual is ||A z - b||^2 at the semi-iteration's m-th iterate
    (z = 0 for k < 2).  A is applied as its diagonal, so no dense matrix is
    built.  The closed form and the Chebyshev residual are bit for bit those
    of the dense reference (``chebyshev_solver`` on ``instance.A``).  The
    basis comes from Chebyshev theory, but the Krylov leg still solves a
    numerical least squares over it, on the instance's own diag and b, so
    its agreement with the other two legs tests the basis, the nodes and
    the weights together; it matches ``krylov_min_residual`` (a CGS2 basis
    of its own) to rounding.  A closed form that is not a finite float > 0
    (D = 0, or R^2 D^2 underflowing) raises ContractError.
    """
    R, D, m, d, b = float(instance.R), float(instance.D), instance.m, instance.diag, instance.b
    target = R**2 * D**2 / (2 * m + 1) ** 2
    if not 0 < target < math.inf:
        raise ContractError(
            f"closed form R^2 D^2/(2m+1)^2 is {target} for R={R}, D={D}: "
            "need a finite float > 0"
        )
    kry = _lstsq_residual(d[:, None] * instance.krylov_basis[:, : instance.k], b)
    z = _semi_iterate(m, R, b, lambda u: d * u, lambda u: d * u)[0]
    return target, kry, float(np.sum((d * z - b) ** 2))


class StepCheck(NamedTuple):
    k_iter: int
    grad_sq: float
    in_span: bool


@dataclass(frozen=True)
class LowerBoundReport:
    steps: list
    applicable: bool
    verdict: bool
    floor: float
    message: str = ""


# Iterates whose span is checked by one projection.  Bounded so that the
# (n, 2 * block) temporaries stay small next to the basis at deep k.
_SPAN_BLOCK = 32


def verify_lower_bound(
    instance: HardInstance,
    trace: Trace,
    k: int | None = None,
    span_tol: float = 1e-8,
) -> LowerBoundReport:
    """Check an algorithm run against the instance's complexity floor.

    For every stored iterate whose consumed oracle budget e_j is at most the
    design depth k, verifies ||G(z^j)||^2 >= R^2 ||z0 - z*||^2 / (2 floor(k/2)+1)^2
    and that both blocks of z^j - z0 lie in the order-(e_j - 1) Krylov space
    of (A, b) up to a projection residual of span_tol * ||block||.  Iterates
    beyond the design depth carry no guarantee and are skipped.  A trace that
    leaves the Krylov span is reported inapplicable rather than failed; one
    whose run passed its iterates to ``keep`` raises ContractError, as do a
    k that is not an integer >= 1, a span_tol that is not finite and > 0,
    and a trace whose z0 is not 2n long.

    The span is read off the instance's ``krylov_basis``, built once per
    instance, whose first e_j columns span iterate j's reachable space.  Up
    to 32 checked iterates are projected at a time: their x- and y-blocks
    form the columns of B, C = Q^T B has its rows at and beyond each
    column's budget zeroed, and the column norms of B - Q C are compared
    against the tolerance.
    """
    k = instance.k if k is None else k
    check_count("k", k, 1)
    if not (isinstance(span_tol, numbers.Real) and 0 < span_tol < math.inf):
        raise ContractError(f"span_tol must be finite and > 0, got {span_tol!r}")
    n = instance.n
    z0 = trace.z0
    if np.shape(z0) != (2 * n,):
        raise ContractError(f"trace z0 has shape {np.shape(z0)}, the instance needs ({2 * n},)")
    if not trace.iterates:
        raise ContractError(
            "this trace kept no iterates to check: its run passed them to keep"
        )
    zs = instance.saddle.saddle_point.coords
    Dz2 = float(np.sum((z0 - zs) ** 2))
    floor = instance.R**2 * Dz2 / (2 * (k // 2) + 1) ** 2
    if Dz2 == 0.0:
        return LowerBoundReport([], True, True, 0.0, "started at the saddle point; bound is trivially 0")
    if math.sqrt(z0.dot(z0)) > 1e-12 * (1.0 + math.sqrt(zs.dot(zs))):
        return LowerBoundReport(
            [], False, False, floor,
            "instance is built relative to z0 = 0; translate the problem first",
        )

    budgets = trace.oracle_calls[trace.stored_ks]
    checked = np.flatnonzero(budgets <= k)
    in_span = np.empty(len(checked), dtype=bool)
    Q = instance.krylov_basis
    rows = np.arange(Q.shape[1])[:, None]
    for lo in range(0, len(checked), _SPAN_BLOCK):
        sel = checked[lo : lo + _SPAN_BLOCK]
        d = np.array([trace.iterates[i] for i in sel], dtype=float)
        d -= z0
        B = d.reshape(2 * len(sel), n).T  # a view: columns x_1, y_1, x_2, y_2, ...
        C = Q.T @ B
        C[rows >= np.repeat(budgets[sel], 2)] = 0.0
        off = Q @ C
        off -= B  # minus the part of each column off its reachable span
        nrm = np.sqrt(np.einsum("ij,ij->j", B, B))
        resid = np.sqrt(np.einsum("ij,ij->j", off, off))
        ok = (nrm == 0.0) | (resid <= span_tol * nrm)
        in_span[lo : lo + len(sel)] = ok.reshape(-1, 2).all(axis=1)

    ks = trace.stored_ks[checked]
    gsq = trace.grad_sq[ks]
    verdict = bool((gsq >= floor * (1 - 1e-9)).all())
    steps = list(map(StepCheck, ks.tolist(), gsq.tolist(), in_span.tolist()))
    if not in_span.all():
        return LowerBoundReport(
            steps, False, False, floor,
            "trace left the reachable Krylov span; the bound does not apply",
        )
    return LowerBoundReport(steps, True, verdict, floor)
