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

    k: int
    alphaR: float
    ell: float
    upper: float
    mid: float              # alpha (k+1)(k+2) / 2
    tau1_floor: float       # alpha (k+1)(k+1+alpha(k+2)) / (2(1+alpha))
    tau_cmp: float          # (alpha (k+1)^2 - alpha^3 k(k+2)) / (2(1-alpha^2))
    tau2_a: float           # alpha (k+1)(k+1-alpha(k+2)) / (2(1-alpha))
    tau2_b: float           # alpha^2 (k+1)(k+2) / (1+alpha)
    tau1_ceiling: float     # (alpha^2 (k+1)(k+2) + alpha^3 (k+2)^2) / (2(1+alpha))
    chain_holds: bool


def interval_quantities(k: int, alphaR: float) -> IntervalChain:
    """Evaluate the interval endpoints and the full inequality chain.

    Requires alphaR in (0, 1/2]. Asserts
    u > mid > ell >= tau1_floor >= tau_cmp >= max(tau2_a, tau2_b) >= tau1_ceiling.
    """
    a = alphaR
    if not 0 < a <= 0.5:
        raise ContractError(f"alphaR = {a} outside (0, 1/2]")
    if k < 0:
        raise ContractError("k must be >= 0")
    return IntervalChain(k, a, *_interval_chain(k, a), True)


def _interval_chain(k, a: float) -> tuple:
    """(ell, upper, mid, tau1_floor, tau_cmp, tau2_a, tau2_b, tau1_ceiling) at k.

    ``k`` is an int or an int array; the arithmetic is the same either way,
    so a block of steps gets the per-step values bit for bit. Raises
    CertificateError at the first k where the comparison chain breaks.
    """
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
        k_bad = np.ravel(k)[np.argmin(np.ravel(ok))]
        raise CertificateError(
            f"comparison chain broke at k={k_bad}, alphaR={a}; this contradicts "
            "the interval analysis and indicates float catastrophe"
        )
    return ell, upper, mid, tau1_floor, tau_cmp, tau2_a, tau2_b, tau1_ceiling


def _tau_case1(k: int, a: float, A: float) -> float:
    num = (k + 2) ** 2 * (2 * (1 - a) * A - a * (k + 1) * (k + 1 - a * (k + 2)))
    den = 2 * (a * (k + 2) * (k + 1 - k * a) - 2 * (1 - a) * A)
    return num / den


def _a_next_case1(k: int, a: float, A: float) -> float:
    return (a * (k + 2) ** 2 / (1 - a)) * (
        1 - a * (k + 1 + a * (k + 2)) ** 2 / (4 * ((1 - a) * A + a * a * (k + 1) * (k + 2)))
    )


def _tau_case2(k: int, a: float, A: float) -> float:
    num = (k + 2) ** 2 * (2 * (1 + a) * A - a * (k + 1) * (k + 1 + a * (k + 2)))
    den = 4 * (1 + a) * A - 2 * a * (k + 2) * (k + 1 + k * a)
    return num / den


def _a_next_case2(k: int, a: float, A: float) -> float:
    return (a * (k + 2) ** 2 / (1 + a)) * (
        1 - a * (k + 1 - a * (k + 2)) ** 2 / (4 * ((1 + a) * A - a * a * (k + 1) * (k + 2)))
    )


def s_matrix(k: int, alphaR: float, A_k: float, tau_k: float, A_next: float) -> np.ndarray:
    """The symmetric 3x3 slack matrix whose PSD-ness certifies one iteration.

    Row/column order: coefficients on G(z^k), G(z^{k+1/2}), G(z^{k+1}) in the
    quadratic form lower-bounding V_k - V_{k+1}, with R normalized to 1.
    """
    a = alphaR
    s11 = A_k - a * a * tau_k
    s12 = a * a * tau_k - 0.5 * a * (k + 1) * (k + 2)
    s22 = tau_k * (1 - a * a)
    s23 = 0.5 * a * (k + 2) ** 2 - tau_k
    s33 = tau_k - A_next
    return np.array([[s11, s12, 0.0], [s12, s22, s23], [0.0, s23, s33]])


def certificate_null_vector(k: int, alphaR: float, A_k: float) -> np.ndarray:
    """The analytic null vector of the case-1 slack matrix."""
    a = alphaR
    E4 = 2 * (1 - a) * A_k + a * a * (k + 1) * (k + 2) - a**3 * (k + 2) ** 2
    E5 = (1 - a) * A_k + a * a * (k + 1) * (k + 2)
    E7 = k + 1 + a * (k + 2)
    return np.array([a * (k + 2) * E7 / (2 * E5), E4 / (2 * (1 - a) * E5), 1.0])


# steps per batched eigvalsh/det call: batching removes the per-step numpy
# dispatch; a bounded block keeps the per-step buffers small and each block's
# S stack under the allocator's mmap threshold, so repeated calls reuse memory
EAGC_BLOCK = 1024


@dataclass(frozen=True)
class EagCCertificate:
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


def eag_c_certificate(
    alphaR: float,
    K: int,
    tol_psd: float = 1e-9,
) -> list[EagCCertificate]:
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
    # the A_k recursion is sequential; the 3x3 checks run a block at a time
    certs: list[EagCCertificate] = []
    A = a / (1 + a)
    for lo in range(0, K, EAGC_BLOCK):
        ks = range(lo, min(lo + EAGC_BLOCK, K))
        ell, upper, mid = (q.tolist() for q in _interval_chain(np.array(ks), a)[:3])
        S = np.empty((len(ks), 3, 3))
        steps = []  # (A_k, tau_k, case, ell, u) per k of the block
        for i, k in enumerate(ks):
            tol_int = 1e-12 * max(1.0, mid[i])
            if not ell[i] - tol_int <= A <= upper[i] + tol_int:
                raise CertificateError(
                    f"A_{k} = {A} left [{ell[i]}, {upper[i]}]; "
                    "the proof induction is contradicted"
                )
            if A <= mid[i]:
                case, tau, A_next = "I_minus", _tau_case1(k, a, A), _a_next_case1(k, a, A)
            else:
                case, tau, A_next = "I_plus", _tau_case2(k, a, A), _a_next_case2(k, a, A)
            S[i] = s_matrix(k, a, A, tau, A_next)
            steps.append((A, tau, case, ell[i], upper[i]))
            A = A_next
        certs += _check_block(S, lo, steps, tol_psd)
    return certs


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


def _check_block(
    S: np.ndarray, lo: int, steps: list[tuple], tol_psd: float
) -> list[EagCCertificate]:
    """Certificates for k = lo.. from the block's stacked S, one eigvalsh and det call."""
    min_eig = np.linalg.eigvalsh(S)[:, 0]
    scale = np.abs(S).max(axis=(1, 2))
    verdict = min_eig >= -tol_psd * scale
    return [
        EagCCertificate(
            k=k,
            A_k=A_k,
            tau_k=tau_k,
            S=S[k - lo],
            min_eig=m,
            det=d,
            scale=sc,
            case_tag=case,
            ell=ell,
            upper=upper,
            interval_ok=True,  # an A_k outside its interval raised in the loop
            verdict=v,
        )
        for k, (A_k, tau_k, case, ell, upper), m, d, sc, v in zip(
            range(lo, lo + len(S)),
            steps,
            min_eig.tolist(),
            np.linalg.det(S).tolist(),
            scale.tolist(),
            verdict.tolist(),
        )
    ]
