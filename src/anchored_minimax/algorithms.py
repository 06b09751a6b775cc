"""Anchored extragradient solvers and baselines, run loops, rate constants.

The two accelerated methods and extragradient share the update

    z_half = z_k + beta_k (z0 - z_k) - alpha_k G(z_k)
    z_next = z_k + beta_k (z0 - z_k) - alpha_k G(z_half)

with anchoring coefficients beta_k = 1/(k + delta), delta = 2 by default,
and beta_k = 0 for extragradient.
The constant-step variant keeps alpha fixed; the varying-step variant drives
alpha_k by a recurrence that decreases monotonically to a positive limit and
admits a cleaner Lyapunov proof. Baselines: extragradient, optimistic descent
(Popov), simultaneous descent with anchoring (SimGD-A), alternating
descent-ascent, and plain simultaneous descent.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    ContractError,
    NumericalDivergenceError,
    OracleCounter,
    Point,
    SaddleProblem,
)

__all__ = [
    "AlgoKind",
    "AlgoConfig",
    "Trace",
    "eag_step",
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


# joint operator evaluations consumed per iteration
_EVALS_PER_ITER = {
    AlgoKind.EAG_C: 2,
    AlgoKind.EAG_V: 2,
    AlgoKind.EG: 2,
    AlgoKind.POPOV: 1,
    AlgoKind.SIMGD_A: 1,
    AlgoKind.ALT_GDA: 2,
    AlgoKind.SIM_GD: 1,
}


@dataclass(frozen=True)
class AlgoConfig:
    """Algorithm selection and parameters.

    ``alpha0`` is the step size (or initial step size for the varying-step
    method) in units of 1/R. ``anchor_delta`` sets beta_k = 1/(k + delta);
    all stated rate guarantees use delta = 2. ``simgd_p`` and ``simgd_gamma``
    only affect SimGD-A.
    """

    kind: AlgoKind
    alpha0: float
    iters: int
    anchor_delta: float = 2.0
    simgd_p: float = 0.51
    simgd_gamma: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha0 > 0:
            raise ContractError("alpha0 must be > 0")
        if self.iters < 1:
            raise ContractError("iters must be >= 1")
        if not self.anchor_delta > 1:
            raise ContractError("anchor_delta must be > 1")
        if not 0.5 < self.simgd_p < 1:
            raise ContractError("simgd_p must lie in (1/2, 1)")
        if not self.simgd_gamma > 0:
            raise ContractError("simgd_gamma must be > 0")


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
    problem_name: str
    z0: np.ndarray
    stored_ks: np.ndarray
    iterates: list[np.ndarray]
    grad_sq: np.ndarray
    oracle_calls: np.ndarray
    alphas: np.ndarray | None = None
    anchor_inner: np.ndarray | None = None
    anchor_delta: float = 2.0
    metadata: dict = field(default_factory=dict)
    half_ks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    half_iterates: list[np.ndarray] = field(default_factory=list)

    @property
    def iters(self) -> int:
        return len(self.grad_sq) - 1

    @property
    def is_dense(self) -> bool:
        return len(self.stored_ks) == self.iters + 1

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


def eag_step(
    problem: SaddleProblem,
    z_k: Point,
    z0: Point,
    k: int,
    alpha_k: float,
    beta_k: float,
    counter: OracleCounter | None = None,
) -> tuple[Point, Point]:
    """One anchored extragradient step; exactly two operator evaluations.

    With beta_k = 0 this reduces bitwise to an extragradient step.
    """
    if not 0 <= beta_k < 1:
        raise ContractError("beta_k must lie in [0, 1)")
    if not alpha_k > 0:
        raise ContractError("alpha_k must be > 0")
    z = z_k.coords
    g = np.asarray(problem.operator(z), dtype=float)
    zh, zn = _extragradient(problem.operator, z - beta_k * (z - z0.coords), g, alpha_k)
    if counter is not None:
        counter.count(2)
    return Point(zh, problem.dim_x), Point(zn, problem.dim_x)


def _extragradient(op, base: np.ndarray, g: np.ndarray, alpha: float):
    """(z_half, z_next) = (base - alpha g, base - alpha G(base - alpha g)).

    ``g`` is G(z_k) and ``base`` is z_k - beta_k (z_k - z0); EG has base = z_k.
    Arrays multiply on the left: the same product, without the Python
    float's reflected-operand detour.
    """
    zh = base - g * alpha
    return zh, base - np.asarray(op(zh), dtype=float) * alpha


def eag_v_alpha_next(alpha_k: float, k: int, R: float, delta: float = 2.0) -> float:
    """Varying-step recurrence for beta_k = 1/(k+delta); strictly decreasing.

    alpha_{k+1} = alpha_k (1 - (a^2 / (1 - a^2)) / ((k+delta-1)(k+delta+1)))
    with a = alpha_k R; at delta = 2 the denominator is (k+1)(k+3).
    """
    a = alpha_k * R
    if not 0 < a < 1:  # checked before squaring: a tiny a squares to 0
        raise ContractError(f"alpha_k * R = {a} outside (0, 1)")
    return alpha_k * (1.0 - (a * a / (1.0 - a * a)) / ((k + delta - 1) * (k + delta + 1)))


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
    if not 0 < alpha0 * R < 0.75:
        raise ContractError(f"alpha0 * R = {alpha0 * R} outside (0, 3/4)")
    a = alpha0
    for k in range(ALPHA_LIMIT_STEPS):
        a = eag_v_alpha_next(a, k, R)
    K = ALPHA_LIMIT_STEPS
    S = 0.5 * (1.0 / (K + 1) + 1.0 / (K + 2))

    def c(alpha: float) -> float:
        aR2 = (alpha * R) ** 2
        return aR2 / (1.0 - aR2)

    c_K = c(a)
    return a * math.exp(-0.5 * (c_K + c(a * math.exp(-c_K * S))) * S)


def run(
    problem: SaddleProblem,
    config: AlgoConfig,
    z0: Point,
    counter: OracleCounter | None = None,
    dense: bool = False,
    keep: Callable[[np.ndarray], None] | None = None,
) -> Trace:
    """Run an algorithm for config.iters iterations and record a Trace.

    Deterministic given (problem, config, z0). Every pass k = 0..iters
    evaluates G(z^k) once and records it; passes k < iters then update z.
    Raises NumericalDivergenceError naming the iteration if an iterate goes
    non-finite. For the varying-step method, alpha_k * R < 1 is asserted
    every iteration; anchored methods record alphas and anchor_inner
    (length iters + 1).

    The iterates at ``store_plan(iters, dense)`` go to ``Trace.iterates``, or,
    if ``keep`` is given, each to ``keep(z)`` in that order, leaving
    ``Trace.iterates`` empty. ``z`` is a fresh array that the run never
    writes again, so ``keep`` may hold it or read it and let it go.
    """
    if z0.dim != problem.dim or z0.split != problem.dim_x:
        raise ContractError("z0 does not match problem dimensions")
    R = problem.lipschitz
    kind, K = config.kind, config.iters
    _validate_stepsize(config, R)

    counter = counter if counter is not None else OracleCounter()
    op = problem.operator
    plan = store_plan(K, dense)
    store = None if len(plan) == K + 1 else set(plan.tolist())
    varying = kind == AlgoKind.EAG_V
    anchored = varying or kind == AlgoKind.EAG_C
    cost, nx = _EVALS_PER_ITER[kind], problem.dim_x

    e0 = counter.evals
    grad_sq = np.empty(K + 1)
    oracle_calls = e0 + cost * np.arange(K + 1, dtype=np.int64)
    iterates: list[np.ndarray] = []
    keep = iterates.append if keep is None else keep
    alphas = np.empty(K + 1) if anchored else None
    anchor_inner = np.empty(K + 1) if anchored else None

    z0c = z0.coords
    z = z0c.copy()
    a, delta = config.alpha0, config.anchor_delta
    g_prev = None

    # divergence is detected per iteration and raised with a diagnostic, so
    # numpy's own overflow warnings are redundant noise here. The counter is
    # settled once, to the k updates completed, however the loop ends.
    k = 0
    try:
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
                if anchored:
                    alphas[k] = a
                    d = z - z0c
                    anchor_inner[k] = g.dot(d)
                if k == K:
                    break
                if anchored:
                    if varying and not a * R < 1:
                        raise NumericalDivergenceError(
                            f"alpha_{k} * R = {a * R} >= 1; "
                            "varying-step hypothesis broken"
                        )
                    z = _extragradient(op, z - d * (1.0 / (k + delta)), g, a)[1]
                    if varying:
                        a = eag_v_alpha_next(a, k, R, delta)
                elif kind == AlgoKind.EG:
                    z = _extragradient(op, z, g, a)[1]
                elif kind == AlgoKind.POPOV:
                    # G(z^{-1}) := G(z^0), so the first step is a plain gradient step
                    z = z - a * g - a * (g - (g if g_prev is None else g_prev))
                    g_prev = g
                elif kind == AlgoKind.SIMGD_A:
                    p, gamma = config.simgd_p, config.simgd_gamma
                    z = (
                        z - (1 - p) / (k + 1) ** p * g
                        + (1 - p) * gamma / (k + 1) * (z0c - z)
                    )
                elif kind == AlgoKind.ALT_GDA:
                    x_new = z[:nx] - a * g[:nx]
                    g_mid = np.asarray(op(np.concatenate([x_new, z[nx:]])), dtype=float)
                    # y-block of G is -grad_y L, so ascent in y subtracts it
                    z = np.concatenate([x_new, z[nx:] - a * g_mid[nx:]])
                else:  # SIM_GD
                    z = z - a * g
    finally:
        counter.evals = e0 + cost * k

    return Trace(
        kind=kind,
        problem_name=problem.name,
        z0=z0c.copy(),
        stored_ks=plan,
        iterates=iterates,
        grad_sq=grad_sq,
        oracle_calls=oracle_calls,
        alphas=alphas,
        anchor_inner=anchor_inner,
        anchor_delta=delta,
        metadata={"alpha0": config.alpha0, "R": R},
    )


def _validate_stepsize(config: AlgoConfig, R: float) -> None:
    aR = config.alpha0 * R
    if config.kind == AlgoKind.EAG_V:
        if not 0 < aR < 0.75:
            raise ContractError(
                f"varying-step method requires alpha0 * R in (0, 3/4), got {aR}"
            )
    elif config.kind == AlgoKind.EAG_C:
        from .certificates import check_eag_c_stepsize

        if not check_eag_c_stepsize(aR):
            warnings.warn(
                f"alpha * R = {aR} fails the constant-step size conditions; "
                "no convergence guarantee applies",
                RuntimeWarning,
                stacklevel=3,
            )


def theoretical_bound(
    kind: AlgoKind,
    k: int | np.ndarray,
    R: float,
    D: float,
    alpha: float | None = None,
    alpha0: float | None = None,
    alpha_inf: float | None = None,
) -> float:
    """Published rate bound on ||G(z^k)||^2 for the given method.

    Constant-step: 4(1+aR+a^2R^2)/(a^2(1+aR)) * D^2/(k+1)^2.
    Varying-step:  4(1+a0*ainf*R^2)/ainf^2 * D^2/((k+1)(k+2)).
    Extragradient (best iterate): D^2/(a^2 (1-a^2R^2) (k+1)).

    ``k`` is an int or an int array; the formula broadcasts over it and gives
    each element the scalar call's value bit for bit.
    """
    if kind == AlgoKind.EAG_C:
        if alpha is None:
            raise ContractError("constant-step bound needs alpha")
        a = alpha * R
        const = 4 * (1 + a + a * a) / (alpha**2 * (1 + a))
        return const * D * D / (k + 1) ** 2
    if kind == AlgoKind.EAG_V:
        if alpha0 is None:
            raise ContractError("varying-step bound needs alpha0")
        ainf = alpha_inf if alpha_inf is not None else eag_v_alpha_limit(alpha0, R)
        const = 4 * (1 + alpha0 * ainf * R * R) / ainf**2
        return const * D * D / ((k + 1) * (k + 2))
    if kind == AlgoKind.EG:
        if alpha is None:
            raise ContractError("extragradient bound needs alpha")
        a = alpha * R
        if not a < 1:
            raise ContractError(f"extragradient bound needs alpha * R < 1, got {a}")
        return D * D / (alpha**2 * (1 - a * a) * (k + 1))
    raise ContractError(f"no published rate bound for {kind}")
