"""Runtime-verifiable proof objects for the anchored extragradient rates.

Three families of certificates:

* the step-size polynomial conditions that the constant-step proof assumes,
* the Lyapunov sequence V_k = A_k ||G(z^k)||^2 + B_k <G(z^k), z^k - z0>,
  nonincreasing along any anchored run whose coefficients obey the
  recurrences A_k = alpha_k B_k / (2 beta_k), B_{k+1} = B_k / (1 - beta_k),
* the constant-step proof chain: per-iteration 3x3 matrices S_k that must be
  PSD and singular, driven by a scalar recursion A_k -> A_{k+1} that must
  stay inside the interval [ell_k, u_k].

Everything is checked numerically at run time; a certificate that fails to
verify raises or reports, it is never silently accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import Trace
from .core import CertificateError, ContractError, SaddleProblem

__all__ = [
    "check_eag_c_stepsize",
    "lyapunov_sequence",
    "LyapunovReport",
    "check_lyapunov_monotone",
    "IntervalChain",
    "interval_quantities",
    "EagCCertificate",
    "EagCReport",
    "eag_c_certificate",
    "s_matrix",
    "certificate_null_vector",
]


def check_eag_c_stepsize(alphaR: float) -> bool:
    """True iff the constant step size satisfies both polynomial conditions.

    1 - 3aR - (aR)^2 - (aR)^3 >= 0  and  1 - 8aR + (aR)^2 - 2(aR)^3 >= 0.
    Both hold on (0, 1/(8R)]; the second fails slightly below 0.1265.
    """
    a = alphaR
    if not a > 0:
        raise ContractError("alphaR must be > 0")
    return (1 - 3 * a - a**2 - a**3 >= 0) and (1 - 8 * a + a**2 - 2 * a**3 >= 0)


def lyapunov_sequence(trace: Trace, problem: SaddleProblem) -> np.ndarray:
    """V_k along a stored anchored run, from the run's own oracle values.

    ``run`` records ||G(z^k)||^2 (``grad_sq``), alpha_k (``alphas``) and
    <G(z^k), z^k - z0> (``anchor_inner``) densely, each from the G it
    evaluates anyway, so V costs no second oracle pass; ``problem`` is not
    evaluated. Each inner product is taken fresh at its own iterate rather
    than accumulated, so the sequence does not drift over long runs. The
    returned array is aligned with ``trace.stored_ks`` (all of 0..iters for a
    dense trace); on a thinned trace the subsequence check is still valid,
    since monotonicity of the full sequence implies it on any subsequence.

    For beta_k = 1/(k+delta) the coefficient recurrences have the closed
    forms B_k = (k+delta-1)/(delta-1) and
    A_k = alpha_k (k+delta)(k+delta-1)/(2(delta-1)), used here directly.
    """
    if trace.alphas is None:
        raise ContractError("trace has no recorded step sizes; run an anchored method")
    if trace.anchor_inner is None:
        raise ContractError(
            "trace has no recorded anchor inner products; run an anchored method"
        )
    ks = trace.stored_ks
    k = ks.astype(float)
    delta = trace.anchor_delta
    dm1 = delta - 1.0
    B = (k + delta - 1.0) / dm1
    A = trace.alphas[ks] * (k + delta) * (k + delta - 1.0) / (2.0 * dm1)
    return A * trace.grad_sq[ks] + B * trace.anchor_inner[ks]


@dataclass(frozen=True)
class LyapunovReport:
    violations: list
    first_violation: int | None
    passed: bool
    tol: float


def check_lyapunov_monotone(V: np.ndarray, scale: float) -> LyapunovReport:
    """Verdict per step: V_{k+1} <= V_k + 1e-10 * scale."""
    tol = 1e-10 * scale
    jumps = np.diff(V)
    bad = np.nonzero(jumps > tol)[0]
    violations = [(int(k), float(jumps[k])) for k in bad]
    return LyapunovReport(
        violations=violations,
        first_violation=int(bad[0]) if len(bad) else None,
        passed=len(bad) == 0,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# constant-step proof chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalChain:
    """The interval [ell, u] for A_k and the ordered comparison quantities."""

    ell: float
    upper: float
    mid: float              # alpha (k+1)(k+2) / 2
    tau1_floor: float       # alpha (k+1)(k+1+alpha(k+2)) / (2(1+alpha))
    tau_cmp: float          # (alpha (k+1)^2 - alpha^3 k(k+2)) / (2(1-alpha^2))
    tau2_a: float           # alpha (k+1)(k+1-alpha(k+2)) / (2(1-alpha))
    tau2_b: float           # alpha^2 (k+1)(k+2) / (1+alpha)
    tau1_ceiling: float     # (alpha^2 (k+1)(k+2) + alpha^3 (k+2)^2) / (2(1+alpha))


def _float_k(k):
    """A numpy int k (array or scalar) as float64; a Python int unchanged.

    int64 overflows in (k + 2) ** 2 above about 3e9, where Python ints are
    exact. float64 holds every k below 2^53 exactly, and each float product
    then rounds as the scalar call's int-to-float conversion does, so array
    and scalar calls agree bit for bit.
    """
    return k.astype(float) if isinstance(k, (np.ndarray, np.integer)) else k


def interval_quantities(k, alphaR: float) -> IntervalChain:
    """Evaluate the interval endpoints and the full inequality chain.

    Requires alphaR in (0, 1/2] and k >= 0, an int or an int array (each entry
    bit for bit its scalar value). Raises CertificateError at the first k where
    u > mid > ell >= tau1_floor >= tau_cmp >= max(tau2_a, tau2_b) >= tau1_ceiling fails.
    """
    a = alphaR
    if not 0 < a <= 0.5:
        raise ContractError(f"alphaR = {a} outside (0, 1/2]")
    if np.any(np.asarray(k) < 0):
        raise ContractError("k must be >= 0")
    k = _float_k(k)
    ell = a * (k + 2) * (k + 1 + k * a) / (2 * (1 + a))
    upper = a * (k + 2) * (k + 1 - k * a) / (2 * (1 - a))
    mid = a * (k + 1) * (k + 2) / 2
    tau1_floor = a * (k + 1) * (k + 1 + a * (k + 2)) / (2 * (1 + a))
    tau_cmp = (a * (k + 1) ** 2 - a**3 * k * (k + 2)) / (2 * (1 - a * a))
    tau2_a = a * (k + 1) * (k + 1 - a * (k + 2)) / (2 * (1 - a))
    tau2_b = a * a * (k + 1) * (k + 2) / (1 + a)
    tau1_ceiling = (a * a * (k + 1) * (k + 2) + a**3 * (k + 2) ** 2) / (2 * (1 + a))
    eps = 1e-12 * np.maximum(1.0, mid)
    tau2 = np.maximum(tau2_a, tau2_b)
    ok = (
        (upper > mid)
        & (mid > ell)
        & (ell >= tau1_floor - eps)
        & (tau1_floor >= tau_cmp - eps)
        & (tau_cmp >= tau2 - eps)
        & (tau2 >= tau1_ceiling - eps)
    )
    if not np.all(ok):
        k_bad = int(np.ravel(k)[np.argmin(np.ravel(ok))])
        raise CertificateError(
            f"comparison chain broke at k={k_bad}, alphaR={a}; this contradicts "
            "the interval analysis and indicates float catastrophe"
        )
    return IntervalChain(ell, upper, mid, tau1_floor, tau_cmp, tau2_a, tau2_b, tau1_ceiling)


def _tau_case1(k, a: float, A):
    k = _float_k(k)
    num = (k + 2) ** 2 * (2 * (1 - a) * A - a * (k + 1) * (k + 1 - a * (k + 2)))
    den = 2 * (a * (k + 2) * (k + 1 - k * a) - 2 * (1 - a) * A)
    return num / den


def _a_next_case1(k: int, a: float, A: float) -> float:
    return (a * (k + 2) ** 2 / (1 - a)) * (
        1 - a * (k + 1 + a * (k + 2)) ** 2 / (4 * ((1 - a) * A + a * a * (k + 1) * (k + 2)))
    )


def _tau_case2(k, a: float, A):
    k = _float_k(k)
    num = (k + 2) ** 2 * (2 * (1 + a) * A - a * (k + 1) * (k + 1 + a * (k + 2)))
    den = 4 * (1 + a) * A - 2 * a * (k + 2) * (k + 1 + k * a)
    return num / den


def _a_next_case2(k: int, a: float, A: float) -> float:
    return (a * (k + 2) ** 2 / (1 + a)) * (
        1 - a * (k + 1 - a * (k + 2)) ** 2 / (4 * ((1 + a) * A - a * a * (k + 1) * (k + 2)))
    )


def s_matrix(k, alphaR: float, A_k, tau_k, A_next) -> np.ndarray:
    """The symmetric 3x3 slack matrix whose PSD-ness certifies one iteration.

    Row/column order: coefficients on G(z^k), G(z^{k+1/2}), G(z^{k+1}) in the
    quadratic form lower-bounding V_k - V_{k+1}, with R normalized to 1.
    Scalars give one matrix; arrays (k an int array) the stack of them, bit for bit.
    """
    a, k = alphaR, _float_k(k)
    s11 = A_k - a * a * tau_k
    s12 = a * a * tau_k - 0.5 * a * (k + 1) * (k + 2)
    s22 = tau_k * (1 - a * a)
    s23 = 0.5 * a * (k + 2) ** 2 - tau_k
    s33 = tau_k - A_next
    S = np.stack(np.broadcast_arrays(s11, s12, 0.0, s12, s22, s23, 0.0, s23, s33), -1)
    return S.reshape(S.shape[:-1] + (3, 3))


def certificate_null_vector(k: int, alphaR: float, A_k: float) -> np.ndarray:
    """The analytic null vector of the case-1 slack matrix."""
    a = alphaR
    E4 = 2 * (1 - a) * A_k + a * a * (k + 1) * (k + 2) - a**3 * (k + 2) ** 2
    E5 = (1 - a) * A_k + a * a * (k + 1) * (k + 2)
    E7 = k + 1 + a * (k + 2)
    return np.array([a * (k + 2) * E7 / (2 * E5), E4 / (2 * (1 - a) * E5), 1.0])


# steps per batched eigvalsh/det call: batching removes the per-step numpy
# dispatch; a bounded block keeps the temporaries, and so peak memory, small
EAGC_BLOCK = 1024
CASE_TAGS = ("I_minus", "I_plus")  # a step's case tag, indexed by EagCReport.case2


@dataclass(frozen=True)
class EagCCertificate:
    """One step of an EagCReport, with its S_k rebuilt by ``s_matrix``."""

    k: int
    A_k: float
    tau_k: float
    S: np.ndarray
    min_eig: float
    det: float
    scale: float  # max |S_ij|; the PSD tolerance is relative to it
    case_tag: str
    ell: float
    upper: float
    interval_ok: bool
    verdict: bool


@dataclass(frozen=True)
class EagCReport:
    """The proof chain for k = 0..K-1 as parallel columns of length K.

    ``A`` has K+1 entries, as A_K closes S_{K-1}; ``case2`` marks the case-2
    steps. S_k is not stored: ``report[k]`` and ``iter(report)`` rebuild
    per-step views from the columns, S_k by the same ``s_matrix`` call.
    """

    alphaR: float
    A: np.ndarray
    tau: np.ndarray
    case2: np.ndarray
    ell: np.ndarray
    upper: np.ndarray
    min_eig: np.ndarray
    det: np.ndarray
    scale: np.ndarray
    verdict: np.ndarray

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, k: int) -> EagCCertificate:
        k = range(len(self))[k]  # IndexError past either end
        return next(self._views(k, k + 1))

    def __iter__(self):
        for lo in range(0, len(self), EAGC_BLOCK):
            yield from self._views(lo, min(lo + EAGC_BLOCK, len(self)))

    def _views(self, lo: int, hi: int):
        S = s_matrix(np.arange(lo, hi), self.alphaR, self.A[lo:hi], self.tau[lo:hi],
                     self.A[lo + 1:hi + 1])
        cols = (self.A, self.tau, self.min_eig, self.det, self.scale, self.case2, self.ell,
                self.upper, self.verdict)
        # interval_ok: an A_k outside its interval raised instead
        for k, S_k, (A_k, tau_k, m, d, sc, c2, ell, u, v) in zip(
                range(lo, hi), S, zip(*(c[lo:hi].tolist() for c in cols))):
            yield EagCCertificate(k, A_k, tau_k, S_k, m, d, sc, CASE_TAGS[c2], ell, u, True, v)


def eag_c_certificate(alphaR: float, K: int, tol_psd: float = 1e-9) -> EagCReport:
    """Verify the constant-step proof chain numerically for k = 0..K-1.

    Starts from A_0 = ell_0 = alpha/(1+alpha), applies the case-1 recursion
    while A_k stays in the lower half-interval and the case-2 recursion
    otherwise, and checks at every step that S_k is PSD up to a relative
    eigenvalue tolerance and that A_k stays inside [ell_k, u_k].  R is
    normalized to 1, so alphaR is the only scale.

    Raises CertificateError if A_k ever leaves its interval, which would
    contradict the induction the rate proof rests on, and ContractError if
    some k < K has an interval no wider than twice the membership slack,
    where the membership test could not fail.
    """
    a = alphaR
    if not check_eag_c_stepsize(a):
        raise ContractError(f"alphaR = {a} fails the step-size conditions")
    if K < 1:
        raise ContractError("K must be >= 1")
    k_vac = _first_vacuous_k(a)
    if k_vac < K:
        raise ContractError(
            f"alphaR = {a}: at k={k_vac} the interval [ell_k, u_k] is no wider than "
            "twice its membership slack, so the interval check would be vacuous"
        )
    A = np.empty(K + 1)
    case2 = np.empty(K, dtype=bool)
    tau, ell, upper, min_eig, det, scale = (np.empty(K) for _ in range(6))
    A[0] = A_k = a / (1 + a)
    for lo in range(0, K, EAGC_BLOCK):
        sl = slice(lo, min(lo + EAGC_BLOCK, K))
        ks = np.arange(sl.start, sl.stop)
        chain = interval_quantities(ks, a)
        ell[sl], upper[sl] = chain.ell, chain.upper
        # only the A_k recursion is sequential
        for k, ell_k, u_k, mid in zip(ks.tolist(), chain.ell.tolist(),
                                      chain.upper.tolist(), chain.mid.tolist()):
            tol_int = 1e-12 * max(1.0, mid)
            if not ell_k - tol_int <= A_k <= u_k + tol_int:
                raise CertificateError(f"A_{k} = {A_k} left [{ell_k}, {u_k}]; "
                                       "the proof induction is contradicted")
            c2 = case2[k] = not A_k <= mid
            A_k = _a_next_case2(k, a, A_k) if c2 else _a_next_case1(k, a, A_k)
            A[k + 1] = A_k
        # tau by case mask: case 2's formula divides by zero at A_k = ell_k
        for on, tau_case in ((~case2[sl], _tau_case1), (case2[sl], _tau_case2)):
            tau[sl][on] = tau_case(ks[on], a, A[sl][on])
        S = s_matrix(ks, a, A[sl], tau[sl], A[sl.start + 1:sl.stop + 1])
        min_eig[sl] = np.linalg.eigvalsh(S)[:, 0]
        det[sl] = np.linalg.det(S)
        scale[sl] = np.abs(S).max(axis=(1, 2))
    return EagCReport(a, A, tau, case2, ell, upper, min_eig, det, scale,
                      min_eig >= -tol_psd * scale)


def _first_vacuous_k(a: float) -> int:
    """First k where u_k - ell_k = a^2 (k+2)/(1-a^2) <= 2e-12 max(1, mid_k).

    While mid_k <= 1 the slack is fixed and the width grows, so only k = 0 can
    fail there. Past that, width / (2 slack) = a / (1e-12 (1-a^2) (k+1)); for
    an a that passes k = 0 (a > 1e-6) it reaches 1 beyond k = 1e6, where
    mid_k > 1 indeed.
    """
    if not 2 * a * a / (1 - a * a) > 2e-12 * max(1.0, a):
        return 0
    return math.ceil(a / (1e-12 * (1 - a * a))) - 1
