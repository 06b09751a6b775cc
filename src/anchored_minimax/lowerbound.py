"""Worst-case biaffine instances, minimax polynomials and the Krylov oracle.

The complexity floor R^2 D^2 / (2*floor(k/2)+1)^2 is realized three
independent ways, which must agree:

* the closed form R/(2m+1) for the minimax value of |t p(t)| over degree-k
  polynomials with p(0) = 1, built from an odd Chebyshev polynomial and
  certified by closed-form dual weights on its 2m+2 extremal nodes,
* the exact minimum residual over the order-(k-1) Krylov subspace of the
  constructed hard instance (least squares on an orthonormal basis), and
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

import io
from dataclasses import dataclass, field

import numpy as np

from .algorithms import Trace
from .core import CertificateError, ContractError, Point, SaddleProblem

__all__ = [
    "chebyshev_eval",
    "MinimaxPoly",
    "minimax_poly",
    "chebyshev_nodes",
    "dual_weights",
    "HardInstance",
    "build_hard_instance",
    "krylov_min_residual",
    "chebyshev_solver",
    "LowerBoundReport",
    "verify_lower_bound",
    "save_instance",
    "load_instance",
]


def chebyshev_eval(N: int, t):
    """T_N(t) by the three-term recurrence T_{N+1} = 2 t T_N - T_{N-1}."""
    if N < 0:
        raise ContractError("N must be >= 0")
    t = np.asarray(t, dtype=float)
    prev = np.ones_like(t)
    if N == 0:
        return prev if prev.ndim else float(prev)
    cur = t.copy()
    for _ in range(N - 1):
        prev, cur = cur, 2 * t * cur - prev
    return cur if cur.ndim else float(cur)


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

    def nodes(self) -> np.ndarray:
        return chebyshev_nodes(self.k, self.R)


def chebyshev_nodes(k: int, R: float = 1.0) -> np.ndarray:
    """The 2m+2 extremal nodes R cos((2m+1-j) pi / (2m+1)), increasing."""
    m = k // 2
    j = np.arange(2 * m + 2)
    return R * np.cos((2 * m + 1 - j) * np.pi / (2 * m + 1))


def minimax_poly(k: int, R: float = 1.0) -> MinimaxPoly:
    """The polynomial p(t) = ((-1)^m/(2m+1)) (R/t) T_{2m+1}(t/R), m = floor(k/2)."""
    if k < 1:
        raise ContractError("k must be >= 1")
    if not R > 0:
        raise ContractError("R must be > 0")
    m = k // 2
    return MinimaxPoly(k=k, m=m, R=R, m_star=R / (2 * m + 1))


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
    stationarity = []
    for _ in range(2 * m):
        stationarity.append(T[:-1] @ w - T[-1] * w.sum())
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
    if k < 1:
        raise ContractError("k must be >= 1")
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
    the nonzero eigenvalues and the rest are zero.  ``x_star`` is the
    minimum-norm solution of A x = b, and ``saddle`` the biaffine problem
    <A x - b, y - c> with c = x_star, whose saddle point nearest the origin
    is (x_star, x_star).
    """

    k: int
    m: int
    n: int
    R: float
    D: float
    diag: np.ndarray
    mu: np.ndarray
    x_star: np.ndarray
    b: np.ndarray
    saddle: SaddleProblem = field(repr=False)

    @property
    def lambdas(self) -> np.ndarray:
        return self.diag[: 2 * self.m + 2]

    @property
    def A(self) -> np.ndarray:
        return np.diag(self.diag)

    @property
    def floor(self) -> float:
        """The complexity floor R^2 D_z^2 / (2m+1)^2 in the joint space."""
        Dz2 = 2 * self.D**2
        return self.R**2 * Dz2 / (2 * self.m + 1) ** 2


def _embed_saddle(n: int, a_diag: np.ndarray, b: np.ndarray, c: np.ndarray, R: float, k: int) -> SaddleProblem:
    def op(z: np.ndarray) -> np.ndarray:
        x, y = z[:n], z[n:]
        return np.concatenate([a_diag * y - b, b - a_diag * x])

    def val(z: np.ndarray) -> float:
        x, y = z[:n], z[n:]
        return float((a_diag * x - b) @ (y - c))

    return SaddleProblem(
        name=f"hard-biaffine-k{k}",
        dim_x=n,
        dim_y=n,
        operator=op,
        lipschitz=R,
        saddle_point=Point(np.concatenate([c, c]), n),
        value=val,
    )


def _check_sizes(k: int, n: int, R: float, D: float) -> None:
    if k < 1 or n < k + 2:
        raise ContractError(f"need k >= 1 and n >= k + 2, got k={k}, n={n}")
    if not (0 < R < np.inf and 0 <= D < np.inf):
        raise ContractError(f"need finite R > 0 and D >= 0, got R={R}, D={D}")


def build_hard_instance(k: int, R: float = 1.0, D: float = 1.0, n: int | None = None) -> HardInstance:
    """Construct the depth-k worst-case instance in ambient dimension n >= k+2."""
    n = k + 2 if n is None else n
    _check_sizes(k, n, R, D)
    return _assemble_instance(k, n, R, D, chebyshev_nodes(k, R), dual_weights(k))


def _assemble_instance(k, n, R, D, lam, mu) -> HardInstance:
    m = k // 2
    x_star = np.zeros(n)
    x_star[: 2 * m + 2] = D * np.sqrt(mu)
    diag = np.zeros(n)
    diag[: 2 * m + 2] = lam
    b = diag * x_star
    return HardInstance(
        k=k, m=m, n=n, R=R, D=D, diag=diag,
        mu=np.asarray(mu, dtype=float),
        x_star=x_star, b=b, saddle=_embed_saddle(n, diag, b, x_star, R, k),
    )


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
    if k < 1:
        raise ContractError("k must be >= 1")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not b.any():
        return 0.0
    Q = _krylov_basis(lambda v: A @ v, b, k)
    AQ = A @ Q
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
    if k < 1 or not R > 0:
        raise ContractError("k must be >= 1 and R > 0")
    B = np.asarray(B, dtype=float)
    v = np.asarray(v, dtype=float)
    if k < 2:
        return np.zeros(B.shape[1])
    return _semi_iterate(k // 2, R, v, lambda u: B @ u, lambda u: B.T @ u)[0]


@dataclass(frozen=True)
class StepCheck:
    k_iter: int
    span_used: int
    grad_sq: float
    floor: float
    margin: float
    per_depth_bound: float
    in_span: bool


@dataclass(frozen=True)
class LowerBoundReport:
    steps: list
    applicable: bool
    verdict: bool
    floor: float
    message: str = ""


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
    whose run passed its iterates to ``keep`` raises ContractError.

    The per-depth curve R^2 D_z^2/(2 floor(e_j/2)+1)^2 is reported for
    information only: the depth-k instance does not (and can not) enforce it
    at intermediate depths.
    """
    if not trace.iterates:
        raise ContractError(
            "this trace kept no iterates to check: its run passed them to keep"
        )
    k = instance.k if k is None else k
    zs = instance.saddle.saddle_point.coords
    z0 = trace.z0
    Dz2 = float(np.sum((z0 - zs) ** 2))
    floor = instance.R**2 * Dz2 / (2 * (k // 2) + 1) ** 2
    if Dz2 == 0.0:
        return LowerBoundReport([], True, True, 0.0, "started at the saddle point; bound is trivially 0")
    if np.linalg.norm(z0) > 1e-12 * (1.0 + np.linalg.norm(zs)):
        return LowerBoundReport(
            [], False, False, floor,
            "instance is built relative to z0 = 0; translate the problem first",
        )

    n = instance.n
    depth_max = min(int(k), 2 * len(instance.lambdas))
    Q = _krylov_basis(lambda v: instance.diag * v, instance.b, depth_max)

    def in_span(block: np.ndarray, depth: int) -> bool:
        nrm = float(np.linalg.norm(block))
        if nrm == 0.0:
            return True
        Qd = Q[:, :depth]
        r = block - Qd @ (Qd.T @ block)
        return float(np.linalg.norm(r)) <= span_tol * nrm

    steps: list[StepCheck] = []
    all_in_span = True
    verdict = True
    for idx, j in enumerate(trace.stored_ks.tolist()):
        e = int(trace.oracle_calls[j])
        if e > k:
            continue
        z = trace.iterates[idx]
        gsq = float(trace.grad_sq[j])
        ok_span = in_span(z[:n] - z0[:n], e) and in_span(z[n:] - z0[n:], e)
        all_in_span &= ok_span
        per_depth = instance.R**2 * Dz2 / (2 * (e // 2) + 1) ** 2
        ok = gsq >= floor * (1 - 1e-9)
        verdict &= ok
        steps.append(StepCheck(j, e, gsq, floor, gsq - floor, per_depth, ok_span))
    if not all_in_span:
        return LowerBoundReport(
            steps, False, False, floor,
            "trace left the reachable Krylov span; the bound does not apply",
        )
    return LowerBoundReport(steps, True, verdict, floor)


def save_instance(instance: HardInstance, path) -> None:
    """Write a self-describing text file from which runs reproduce exactly."""
    with open(path, "w") as f:
        f.write(_instance_text(instance))


def _instance_text(instance: HardInstance) -> str:
    buf = io.StringIO()
    buf.write("# hard biaffine instance\n")
    buf.write(f"k={instance.k}\n")
    buf.write(f"n={instance.n}\n")
    buf.write(f"R={instance.R:.17g}\n")
    buf.write(f"D={instance.D:.17g}\n")
    buf.write("lambdas=" + ",".join(f"{v:.17g}" for v in instance.lambdas) + "\n")
    buf.write("mu=" + ",".join(f"{v:.17g}" for v in instance.mu) + "\n")
    return buf.getvalue()


def load_instance(path) -> HardInstance:
    """Read a file written by ``save_instance``; bad fields raise ContractError."""
    fields: dict[str, str] = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            fields[key] = val

    def parse(key, conv):
        try:
            return conv(fields[key])
        except KeyError as exc:
            raise ContractError(f"instance file missing field {exc}") from exc
        except ValueError as exc:
            raise ContractError(f"instance field {key}: {exc}") from exc

    k, n = parse("k", int), parse("n", int)
    R, D = parse("R", float), parse("D", float)
    _check_sizes(k, n, R, D)
    size = 2 * (k // 2) + 2
    lam, mu = (
        parse(key, lambda text: np.array([float(v) for v in text.split(",")]))
        for key in ("lambdas", "mu")
    )
    for key, val in (("lambdas", lam), ("mu", mu)):
        if len(val) != size or not np.all(np.isfinite(val)):
            raise ContractError(f"instance field {key}: need {size} finite values, got {len(val)}")
    if mu.min() < 0 or abs(mu.sum() - 1.0) > 1e-12:
        raise ContractError("instance field mu must be nonnegative and sum to 1 within 1e-12")
    return _assemble_instance(k, n, R, D, lam, mu)
