"""Anchored extragradient solvers and baselines, run loops, rate constants.

The two accelerated methods and extragradient share the update

    z_half = z_k + beta_k (z0 - z_k) - alpha_k G(z_k)
    z_next = z_k + beta_k (z0 - z_k) - alpha_k G(z_half)

with beta_k = 1/(k + delta), delta = 2 by default, and beta_k = 0 for
extragradient. The constant-step variant keeps alpha fixed; the varying-step
variant drives alpha_k by a recurrence that decreases monotonically to a
positive limit and admits a cleaner Lyapunov proof. Baselines: extragradient,
optimistic descent (Popov), simultaneous descent with anchoring (SimGD-A),
alternating descent-ascent, and plain simultaneous descent. The table
``_METHODS`` holds each one's cost, step-size check, step and rate bound.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import ContractError, NumericalDivergenceError, Point, SaddleProblem, check_count

__all__ = [
    "AlgoKind",
    "AlgoConfig",
    "Trace",
    "eag_v_alpha_next",
    "eag_v_alpha_limit",
    "store_plan",
    "run",
    "theoretical_bound",
]

DENSE_STORE_LIMIT = 10_000


class AlgoKind(str, Enum):
    EAG_C = "eag-c"
    EAG_V = "eag-v"
    EG = "eg"
    POPOV = "popov"
    SIMGD_A = "simgd-a"
    ALT_GDA = "alt-gda"
    SIM_GD = "sim-gd"


@dataclass(frozen=True)
class AlgoConfig:
    """Algorithm selection and parameters.

    ``alpha0`` is the step size (or initial step size for the varying-step
    method) in units of 1/R. ``anchor_delta`` sets beta_k = 1/(k + delta);
    all stated rate guarantees use delta = 2. ``simgd_p`` and ``simgd_gamma``
    only affect SimGD-A. Every float must be finite and ``iters`` an int.
    """

    kind: AlgoKind
    alpha0: float
    iters: int
    anchor_delta: float = 2.0
    simgd_p: float = 0.51
    simgd_gamma: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.alpha0 < math.inf:
            raise ContractError(f"alpha0 must be finite and > 0, got {self.alpha0!r}")
        check_count("iters", self.iters, 1)
        if not 1 < self.anchor_delta < math.inf:
            raise ContractError(
                f"anchor_delta must be finite and > 1, got {self.anchor_delta!r}"
            )
        if not 0.5 < self.simgd_p < 1:
            raise ContractError("simgd_p must lie in (1/2, 1)")
        if not 0 < self.simgd_gamma < math.inf:
            raise ContractError("simgd_gamma must be finite and > 0")


@dataclass
class Trace:
    """Per-iteration record of a run.

    ``grad_sq`` and ``oracle_calls`` are dense over k = 0..iters;
    ``oracle_calls[k]`` is the number of operator evaluations the algorithm
    consumed to *produce* z^k (recomputations for recording are not counted).
    Anchored runs also record ``alphas`` and ``anchor_inner[k] =
    <G(z^k), z^k - z0>``, both dense, from the same G the step uses.
    Iterates are kept at ``stored_ks = store_plan(iters, dense)``, the rows
    the CLI emits, unless the run passed them to a ``keep`` callback, which
    leaves ``iterates`` empty and makes ``iterate`` raise. Half-iterates are
    not stored; ``half_ks`` and ``half_iterates`` stay empty, kept only for
    the benchmark's size count.
    """

    kind: AlgoKind
    z0: np.ndarray
    stored_ks: np.ndarray
    iterates: list[np.ndarray]
    grad_sq: np.ndarray
    oracle_calls: np.ndarray
    alphas: np.ndarray | None = None
    anchor_inner: np.ndarray | None = None
    anchor_delta: float = 2.0
    half_ks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    half_iterates: list[np.ndarray] = field(default_factory=list)

    @property
    def iters(self) -> int:
        return len(self.grad_sq) - 1

    def iterate(self, k: int) -> np.ndarray:
        if not self.iterates:
            raise ContractError(
                f"this trace kept no iterates, so not iterate {k}: "
                "its run passed them to keep"
            )
        idx = np.searchsorted(self.stored_ks, k)
        if idx >= len(self.stored_ks) or self.stored_ks[idx] != k:
            raise ContractError(f"iterate {k} was thinned out of this trace")
        return self.iterates[idx]


def store_plan(iters: int, dense: bool) -> np.ndarray:
    """The iteration indices a run keeps and the CLI emits, ascending.

    Every k for ``dense`` or up to DENSE_STORE_LIMIT iterations; beyond that
    k <= 1000, round(1.1^j) for j >= 0, and the final k.
    """
    if dense or iters <= DENSE_STORE_LIMIT:
        return np.arange(iters + 1)
    ks = set(range(1001))
    v = 1.0
    while v <= iters:
        ks.add(int(round(v)))
        v *= 1.1
    ks.add(iters)
    return np.array(sorted(k for k in ks if k <= iters))


def _extragradient(op, base: np.ndarray, g: np.ndarray, alpha: np.ndarray,
                   t: np.ndarray) -> np.ndarray:
    """z_next = base - alpha G(base - alpha g), through the half-iterate.

    ``g`` is G(z_k) and ``base`` is z_k - beta_k (z_k - z0); EG has base = z_k.
    ``alpha`` is a 0-d array and ``t`` the step's scratch, which holds the
    half-iterate while ``op`` reads it; z_next is the one new array.
    """
    zh = np.subtract(base, np.multiply(g, alpha, t), t)
    return np.subtract(base, np.multiply(np.asarray(op(zh), dtype=float), alpha, t))


def eag_v_alpha_next(alpha_k: float, k: int, R: float, delta: float = 2.0) -> float:
    """Varying-step recurrence for beta_k = 1/(k+delta); strictly decreasing.

    alpha_{k+1} = alpha_k (1 - (a^2 / (1 - a^2)) / ((k+delta-1)(k+delta+1)))
    with a = alpha_k R; at delta = 2 the denominator is (k+1)(k+3).
    """
    a = alpha_k * R
    if not 0 < a < 1:  # checked before squaring: a tiny a squares to 0
        raise ContractError(f"alpha_k * R = {a} outside (0, 1)")
    return alpha_k * (1.0 - (a * a / (1.0 - a * a)) / ((k + delta - 1) * (k + delta + 1)))


def _eag_v_alphas(alpha0: float, R: float, iters: int, delta: float = 2.0) -> list[float]:
    """alpha_0..alpha_iters of the varying-step method; alpha0 * R must lie in (0, 3/4)."""
    if not 0 < alpha0 * R < 0.75:
        raise ContractError(f"varying-step method needs alpha0 * R in (0, 3/4), got {alpha0 * R}")
    alphas = [alpha0]
    for k in range(iters):
        alphas.append(eag_v_alpha_next(alphas[-1], k, R, delta))
    return alphas


# recurrence steps taken before the closed-form tail
ALPHA_LIMIT_STEPS = 4096


def eag_v_alpha_limit(alpha0: float, R: float) -> float:
    """Limit of the varying-step sequence (delta = 2).

    Requires alpha0 * R in (0, 3/4), which guarantees monotone decrease to a
    positive limit. Steps the recurrence K = ALPHA_LIMIT_STEPS times, then
    takes the rest in log space, ln alpha_inf = ln alpha_K - sum_{k>=K}
    c_k / ((k+1)(k+3)) with c = (alpha R)^2 / (1 - (alpha R)^2), using the
    closed form sum_{k>=K} 1/((k+1)(k+3)) = (1/(K+1) + 1/(K+2)) / 2. c moves
    by O(c/K) relative along the tail, so it is averaged over the tail's two
    ends, which cancels that to first order. Agrees with 4*10^6 recurrence
    steps to 4e-11 relative, the rounding of those steps themselves.
    """
    a = _eag_v_alphas(alpha0, R, ALPHA_LIMIT_STEPS)[-1]
    K = ALPHA_LIMIT_STEPS
    S = 0.5 * (1.0 / (K + 1) + 1.0 / (K + 2))

    def c(alpha: float) -> float:
        aR2 = (alpha * R) ** 2
        return aR2 / (1.0 - aR2)

    c_K = c(a)
    return a * math.exp(-0.5 * (c_K + c(a * math.exp(-c_K * S))) * S)


def check_eag_c_stepsize(alphaR: float) -> bool:
    """True iff the constant step size satisfies both polynomial conditions.

    1 - 3aR - (aR)^2 - (aR)^3 >= 0  and  1 - 8aR + (aR)^2 - 2(aR)^3 >= 0.
    Both hold on (0, 1/(8R)]; the second fails slightly below 0.1265.
    """
    a = alphaR
    if not a > 0:
        raise ContractError("alphaR must be > 0")
    return (1 - 3 * a - a**2 - a**3 >= 0) and (1 - 8 * a + a**2 - 2 * a**3 >= 0)


def _eag_c_alphas(config: AlgoConfig, R: float) -> list[float]:
    if not check_eag_c_stepsize(config.alpha0 * R):
        warnings.warn(f"alpha * R = {config.alpha0 * R} fails the constant-step size "
                      "conditions; no convergence guarantee applies", RuntimeWarning, stacklevel=3)
    return [config.alpha0] * (config.iters + 1)


# Each step builder allocates its scratch once per run, shaped like z0, and
# holds its step sizes in 0-d arrays set in place: numpy converts a Python
# float on every call, a 0-d float64 array it reads as is.
def _eag(config: AlgoConfig, problem: SaddleProblem, z0: np.ndarray, alphas: list[float]):
    op, delta = problem.operator, config.anchor_delta
    base, t, a, beta = np.empty_like(z0), np.empty_like(z0), np.empty(()), np.empty(())

    def step(k, z, g, d):
        a[()], beta[()] = alphas[k], 1.0 / (k + delta)
        return _extragradient(op, np.subtract(z, np.multiply(d, beta, base), base), g, a, t)
    return step


def _eg(config: AlgoConfig, problem: SaddleProblem, z0: np.ndarray, alphas: None):
    op, a, t = problem.operator, np.array(config.alpha0, float), np.empty_like(z0)
    return lambda k, z, g, d: _extragradient(op, z, g, a, t)


def _popov(config: AlgoConfig, problem: SaddleProblem, z0: np.ndarray, alphas: None):
    a, s, t, g_prev = np.array(config.alpha0, float), np.empty_like(z0), np.empty_like(z0), None

    def step(k, z, g, d):
        nonlocal g_prev
        # G(z^{-1}) := G(z^0), so the first step is a plain gradient step
        np.subtract(z, np.multiply(g, a, s), s)
        np.multiply(np.subtract(g, g if g_prev is None else g_prev, t), a, t)
        g_prev = g
        return np.subtract(s, t)
    return step


def _simgd_a(config: AlgoConfig, problem: SaddleProblem, z0: np.ndarray, alphas: None):
    p, gamma = config.simgd_p, config.simgd_gamma
    c, e, s, t = np.empty(()), np.empty(()), np.empty_like(z0), np.empty_like(z0)

    def step(k, z, g, d):
        # z - (1-p)/(k+1)^p g + (1-p) gamma/(k+1) (z0 - z)
        c[()], e[()] = (1 - p) / (k + 1) ** p, (1 - p) * gamma / (k + 1)
        np.subtract(z, np.multiply(g, c, s), s)
        return np.add(s, np.multiply(np.subtract(z0, z, t), e, t))
    return step


def _alt_gda(config: AlgoConfig, problem: SaddleProblem, z0: np.ndarray, alphas: None):
    op, nx = problem.operator, problem.dim_x
    a, w = np.array(config.alpha0, float), np.empty_like(z0)

    def step(k, z, g, d):
        zn = np.empty_like(z)
        w[:nx] = np.subtract(z[:nx], np.multiply(g[:nx], a, zn[:nx]), zn[:nx])
        w[nx:] = z[nx:]
        g_mid = np.asarray(op(w), dtype=float)
        # y-block of G is -grad_y L, so ascent in y subtracts it
        np.subtract(z[nx:], np.multiply(g_mid[nx:], a, zn[nx:]), zn[nx:])
        return zn
    return step


def _sim_gd(config: AlgoConfig, problem: SaddleProblem, z0: np.ndarray, alphas: None):
    a, t = np.array(config.alpha0, float), np.empty_like(z0)
    return lambda k, z, g, d: np.subtract(z, np.multiply(g, a, t))


def _eag_c_rate(alpha: float, R: float, delta: float, alpha_inf: float | None = None):
    a = alpha * R
    if delta != 2.0 or not check_eag_c_stepsize(a):
        return None
    const = 4 * (1 + a + a * a) / (alpha**2 * (1 + a))
    return lambda k, D: const * D * D / (k + 1) ** 2


def _eag_v_rate(alpha0: float, R: float, delta: float, alpha_inf: float | None = None):
    if delta != 2.0:
        return None
    if alpha_inf is None:
        ainf = eag_v_alpha_limit(alpha0, R)  # checks alpha0 * R
    elif 0 < alpha0 * R < 0.75 and 0 < alpha_inf <= alpha0:
        ainf = alpha_inf
    else:
        raise ContractError(f"varying-step bound needs alpha0 * R in (0, 3/4) and alpha_inf "
                            f"in (0, alpha0], got {alpha0 * R} and {alpha_inf}")
    const = 4 * (1 + alpha0 * ainf * R * R) / ainf**2
    return lambda k, D: const * D * D / ((k + 1) * (k + 2))


def _eg_rate(alpha: float, R: float, delta: float, alpha_inf: float | None = None):
    a = alpha * R
    return (lambda k, D: D * D / (alpha**2 * (1 - a * a) * (k + 1))) if a < 1 else None


@dataclass(frozen=True)
class _Method:
    """A row of the method table: all that tells one method from another.

    ``alphas(config, R)`` checks the step size and gives an anchored method's
    alpha_0..alpha_iters, else None. ``step(config, problem, z0, alphas)``
    builds ``(k, z, G(z), d) -> z^{k+1}``, d = z - z0 if anchored, else None.
    ``rate(alpha, R, delta, alpha_inf)`` is the published bound as a function
    of (k, D), None where no theorem covers the run: the anchored rates need
    delta = 2, EAG-C's its step-size conditions, and extragradient's alpha R < 1.
    """

    cost: int  # operator calls per iteration
    step: Callable
    alphas: Callable[[AlgoConfig, float], list[float] | None] = lambda config, R: None
    rate: Callable = lambda alpha, R, delta, alpha_inf=None: None
    varying: bool = False  # the step size changes with k
    alpha_default: float | None = None  # the step size if a caller gives none


_METHODS = {
    AlgoKind.EAG_C: _Method(2, _eag, _eag_c_alphas, _eag_c_rate),
    AlgoKind.EAG_V: _Method(2, _eag, lambda config, R: _eag_v_alphas(
        config.alpha0, R, config.iters, config.anchor_delta), _eag_v_rate, varying=True),
    AlgoKind.EG: _Method(2, _eg, rate=_eg_rate),
    AlgoKind.POPOV: _Method(1, _popov),
    AlgoKind.SIMGD_A: _Method(1, _simgd_a, alpha_default=1.0),  # steps from p and gamma
    AlgoKind.ALT_GDA: _Method(2, _alt_gda),
    AlgoKind.SIM_GD: _Method(1, _sim_gd),
}


def run(
    problem: SaddleProblem,
    config: AlgoConfig,
    z0: Point,
    dense: bool = False,
    keep: Callable[[np.ndarray], None] | None = None,
) -> Trace:
    """Run an algorithm for config.iters iterations and record a Trace.

    Deterministic given (problem, config, z0). Every pass k = 0..iters
    evaluates G(z^k) once and records it; passes k < iters then update z.
    Raises NumericalDivergenceError naming the iteration if an iterate goes
    non-finite. A bad step size or step-size schedule raises ContractError
    before the first operator call. Anchored methods record alphas and
    anchor_inner (length iters + 1).

    The iterates at ``store_plan(iters, dense)`` go to ``Trace.iterates``, or,
    if ``keep`` is given, each to ``keep(z)`` in that order, leaving
    ``Trace.iterates`` empty. ``z`` is a fresh array that the run never
    writes again, so ``keep`` may hold it or read it and let it go.
    """
    if z0.dim != problem.dim or z0.split != problem.dim_x:
        raise ContractError("z0 does not match problem dimensions")
    kind, K, z0c = config.kind, config.iters, z0.coords
    method = _METHODS[kind]
    schedule = method.alphas(config, problem.lipschitz)
    step = method.step(config, problem, z0c, schedule)

    op = problem.operator
    plan = store_plan(K, dense)
    store = None if len(plan) == K + 1 else set(plan.tolist())

    grad_sq = np.empty(K + 1)
    oracle_calls = method.cost * np.arange(K + 1, dtype=np.int64)
    iterates: list[np.ndarray] = []
    keep = iterates.append if keep is None else keep
    alphas = None if schedule is None else np.array(schedule, dtype=float)
    anchor_inner = None if schedule is None else np.empty(K + 1)
    z, d = z0c.copy(), None if schedule is None else np.empty_like(z0c)

    # divergence is detected per iteration and raised with a diagnostic, so
    # numpy's own overflow warnings are redundant noise here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K + 1):
            # any inf or nan entry makes the sum of squares non-finite; only
            # an overflowing but finite z needs the entrywise test
            if not math.isfinite(z.dot(z)) and not np.isfinite(z).all():
                raise NumericalDivergenceError(
                    f"{kind.value} produced a non-finite iterate at iteration {k}"
                )
            if store is None or k in store:
                keep(z)  # every z is a fresh array, never written
            g = np.asarray(op(z), dtype=float)
            grad_sq[k] = g.dot(g)
            if d is not None:
                anchor_inner[k] = g.dot(np.subtract(z, z0c, d))
            if k == K:
                break
            z = step(k, z, g, d)

    return Trace(
        kind=kind,
        z0=z0c.copy(),
        stored_ks=plan,
        iterates=iterates,
        grad_sq=grad_sq,
        oracle_calls=oracle_calls,
        alphas=alphas,
        anchor_inner=anchor_inner,
        anchor_delta=config.anchor_delta,
    )


def theoretical_bound(
    kind: AlgoKind,
    k: int | np.ndarray,
    R: float,
    D: float,
    alpha: float,
    alpha_inf: float | None = None,
) -> float:
    """Published rate bound on ||G(z^k)||^2 for a method at step size alpha.

    Constant-step: 4(1+aR+a^2R^2)/(a^2(1+aR)) * D^2/(k+1)^2.
    Varying-step (a0 = alpha): 4(1+a0*ainf*R^2)/ainf^2 * D^2/((k+1)(k+2)).
    Extragradient (best iterate): D^2/(a^2 (1-a^2R^2) (k+1)).
    A method without one, or an alpha its theorem does not cover, raises
    ContractError (see ``_Method``).

    ``k`` is an int or an int array; the formula broadcasts over it and gives
    each element the scalar call's value bit for bit. Every k must be >= 0,
    R finite and > 0, and D finite and >= 0.
    """
    if np.any(np.asarray(k) < 0):
        raise ContractError("k must be >= 0")
    if not (0 < R < math.inf and 0 <= D < math.inf):
        raise ContractError(f"need finite R > 0 and D >= 0, got R = {R}, D = {D}")
    bound = _METHODS[kind].rate(alpha, R, 2.0, alpha_inf)
    if bound is None:
        raise ContractError(f"no published rate bound for {kind.value} at alpha * R = {alpha * R}")
    return bound(k, D)
