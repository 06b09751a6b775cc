"""Anchored extragradient solvers and baselines, run loops, rate constants.

The two accelerated methods share the update

    z_half = z_k + beta_k (z0 - z_k) - alpha_k G(z_k)
    z_next = z_k + beta_k (z0 - z_k) - alpha_k G(z_half)

with anchoring coefficients beta_k = 1/(k + delta), delta = 2 by default.
The constant-step variant keeps alpha fixed; the varying-step variant drives
alpha_k by a recurrence that decreases monotonically to a positive limit and
admits a cleaner Lyapunov proof. Baselines: extragradient, optimistic descent
(Popov), simultaneous descent with anchoring (SimGD-A), alternating
descent-ascent, and plain simultaneous descent.
"""

from __future__ import annotations

import warnings
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
    "eg_step",
    "eag_v_alpha_next",
    "eag_v_alpha_limit",
    "BaselineState",
    "baseline_step",
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
    Iterates are stored densely up to DENSE_STORE_LIMIT points and thinned to
    powers of two (plus the final iterate) beyond that; ``stored_ks`` lists
    the indices kept.
    """

    kind: AlgoKind
    problem_name: str
    z0: np.ndarray
    stored_ks: np.ndarray
    iterates: list[np.ndarray]
    half_ks: np.ndarray
    half_iterates: list[np.ndarray]
    grad_sq: np.ndarray
    oracle_calls: np.ndarray
    alphas: np.ndarray | None = None
    anchor_inner: np.ndarray | None = None
    anchor_delta: float = 2.0
    metadata: dict = field(default_factory=dict)

    @property
    def iters(self) -> int:
        return len(self.grad_sq) - 1

    @property
    def is_dense(self) -> bool:
        return len(self.stored_ks) == self.iters + 1

    def iterate(self, k: int) -> np.ndarray:
        idx = np.searchsorted(self.stored_ks, k)
        if idx >= len(self.stored_ks) or self.stored_ks[idx] != k:
            raise ContractError(f"iterate {k} was thinned out of this trace")
        return self.iterates[idx]


def _store_plan(iters: int, dense: bool) -> np.ndarray:
    if dense or iters + 1 <= DENSE_STORE_LIMIT:
        return np.arange(iters + 1)
    ks = set(range(DENSE_STORE_LIMIT))
    p = 1
    while p <= iters:
        ks.add(p)
        p *= 2
    ks.add(iters)
    return np.array(sorted(k for k in ks if k <= iters))


def eg_step(
    problem: SaddleProblem,
    z_k: Point,
    alpha: float,
    counter: OracleCounter | None = None,
) -> tuple[Point, Point]:
    """One extragradient step; exactly two operator evaluations."""
    zh, zn = _eag_step_raw(problem.operator, z_k.coords, z_k.coords, 0.0, alpha)
    if counter is not None:
        counter.count(2)
    return Point(zh, problem.dim_x), Point(zn, problem.dim_x)


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
    zh, zn = _eag_step_raw(problem.operator, z_k.coords, z0.coords, beta_k, alpha_k)
    if counter is not None:
        counter.count(2)
    return Point(zh, problem.dim_x), Point(zn, problem.dim_x)


def _eag_step_raw(op, z, z0, beta, alpha):
    base = z + beta * (z0 - z)
    zh = base - alpha * np.asarray(op(z), dtype=float)
    zn = base - alpha * np.asarray(op(zh), dtype=float)
    return zh, zn


def eag_v_alpha_next(alpha_k: float, k: int, R: float) -> float:
    """Varying-step recurrence for beta_k = 1/(k+2); strictly decreasing.

    alpha_{k+1} = alpha_k (1 - alpha_k^2 R^2 / ((k+1)(k+3)(1 - alpha_k^2 R^2))).
    """
    a = alpha_k * R
    if not 0 < a < 1:
        raise ContractError(f"alpha_k * R = {a} outside (0, 1)")
    return alpha_k * (1.0 - (a * a / (1.0 - a * a)) / ((k + 1) * (k + 3)))


def _alpha_next_general(alpha_k: float, k: int, R: float, delta: float) -> float:
    """General anchored recurrence for beta_k = 1/(k+delta)."""
    aR = alpha_k * R
    if not 0 < aR < 1:  # checked before squaring: a tiny aR squares to 0
        raise ContractError(f"alpha_k * R = {aR} outside (0, 1)")
    a2 = aR**2
    bk = 1.0 / (k + delta)
    bk1 = 1.0 / (k + 1 + delta)
    return alpha_k * bk1 * (1.0 - a2 - bk * bk) / (bk * (1.0 - bk) * (1.0 - a2))


def eag_v_alpha_limit(
    alpha0: float,
    R: float,
    tol: float = 1e-12,
    max_k: int = 10**6,
) -> float:
    """Limit of the varying-step sequence, by iterating the recurrence.

    Requires alpha0 * R in (0, 3/4), which guarantees monotone decrease to a
    positive limit. Stops once the relative step falls below ``tol``.
    """
    if not 0 < alpha0 * R < 0.75:
        raise ContractError(f"alpha0 * R = {alpha0 * R} outside (0, 3/4)")
    a = alpha0
    for k in range(max_k):
        nxt = eag_v_alpha_next(a, k, R)
        if abs(a - nxt) < tol * a:
            return nxt
        a = nxt
    assert a > 0
    return a


@dataclass
class BaselineState:
    """State threaded through baseline_step.

    ``g_prev`` holds G(z^{k-1}) for optimistic descent; at k = 0 it is
    initialized to G(z^0), which makes the first step a plain gradient step.
    """

    z: np.ndarray
    z0: np.ndarray
    k: int = 0
    g_prev: np.ndarray | None = None
    g_last: np.ndarray | None = None
    evals: int = 0


def baseline_step(
    kind: AlgoKind,
    problem: SaddleProblem,
    state: BaselineState,
    config: AlgoConfig,
) -> BaselineState:
    """Advance one of the non-anchored-extragradient baselines by one step."""
    op = problem.operator
    alpha = config.alpha0
    z, z0, k = state.z, state.z0, state.k
    nx = problem.dim_x
    if kind == AlgoKind.EG:
        g = np.asarray(op(z), dtype=float)
        zh = z - alpha * g
        zn = z - alpha * np.asarray(op(zh), dtype=float)
        used = 2
    elif kind == AlgoKind.POPOV:
        g = np.asarray(op(z), dtype=float)
        g_prev = state.g_prev if state.g_prev is not None else g
        zn = z - alpha * g - alpha * (g - g_prev)
        state.g_prev = g
        used = 1
    elif kind == AlgoKind.SIMGD_A:
        p, gamma = config.simgd_p, config.simgd_gamma
        g = np.asarray(op(z), dtype=float)
        zn = z - (1 - p) / (k + 1) ** p * g + (1 - p) * gamma / (k + 1) * (z0 - z)
        used = 1
    elif kind == AlgoKind.ALT_GDA:
        g = np.asarray(op(z), dtype=float)
        x_new = z[:nx] - alpha * g[:nx]
        z_mid = np.concatenate([x_new, z[nx:]])
        g_mid = np.asarray(op(z_mid), dtype=float)
        # y-block of G is -grad_y L, so ascent in y subtracts it
        y_new = z[nx:] - alpha * g_mid[nx:]
        zn = np.concatenate([x_new, y_new])
        used = 2
    elif kind == AlgoKind.SIM_GD:
        g = np.asarray(op(z), dtype=float)
        zn = z - alpha * g
        used = 1
    else:
        raise ContractError(f"{kind} is not a baseline; use run() or eag_step()")
    state.g_last = g
    state.z = zn
    state.k = k + 1
    state.evals += used
    return state


def run(
    problem: SaddleProblem,
    config: AlgoConfig,
    z0: Point,
    counter: OracleCounter | None = None,
    dense: bool = False,
    store_ks: set[int] | None = None,
) -> Trace:
    """Run an algorithm for config.iters iterations and record a Trace.

    Deterministic given (problem, config, z0). Raises
    NumericalDivergenceError naming the iteration if an iterate goes
    non-finite. For the varying-step method, alpha_k * R < 1 is asserted
    every iteration; anchored methods record alphas and anchor_inner
    (length iters + 1).
    """
    if z0.dim != problem.dim or z0.split != problem.dim_x:
        raise ContractError("z0 does not match problem dimensions")
    R = problem.lipschitz
    kind, K = config.kind, config.iters
    _validate_stepsize(config, R)

    counter = counter if counter is not None else OracleCounter()
    op = problem.operator
    if store_ks is not None:
        store = {k for k in store_ks if 0 <= k < K} | {0}
    else:
        store = set(_store_plan(K, dense).tolist())
    is_eag = kind in (AlgoKind.EAG_C, AlgoKind.EAG_V)
    two_call = is_eag or kind == AlgoKind.EG

    grad_sq = np.empty(K + 1)
    oracle_calls = np.empty(K + 1, dtype=np.int64)
    stored_ks: list[int] = []
    iterates: list[np.ndarray] = []
    half_ks: list[int] = []
    half_iterates: list[np.ndarray] = []
    alphas = np.empty(K + 1) if is_eag else None
    anchor_inner = np.empty(K + 1) if is_eag else None

    z = z0.coords.copy()
    z0c = z0.coords
    a = config.alpha0
    delta = config.anchor_delta
    state = BaselineState(z=z, z0=z0c) if not is_eag else None

    # divergence is detected per iteration and raised with a diagnostic, so
    # numpy's own overflow warnings are redundant noise here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            if not np.isfinite(z).all():
                raise NumericalDivergenceError(
                    f"{kind.value} produced a non-finite iterate at iteration {k}"
                )
            oracle_calls[k] = counter.evals
            if k in store:
                stored_ks.append(k)
                iterates.append(z.copy())
            if is_eag:
                alphas[k] = a
                if kind == AlgoKind.EAG_V and not a * R < 1:
                    raise NumericalDivergenceError(
                        f"alpha_{k} * R = {a * R} >= 1; varying-step hypothesis broken"
                    )
                g = np.asarray(op(z), dtype=float)
                grad_sq[k] = g.dot(g)
                d = z - z0c
                anchor_inner[k] = g.dot(d)
                beta = 1.0 / (k + delta)
                base = z - beta * d
                zh = base - a * g
                zn = base - a * np.asarray(op(zh), dtype=float)
                counter.count(2)
                if k in store:
                    half_ks.append(k)
                    half_iterates.append(zh)
                if kind == AlgoKind.EAG_V:
                    a = (
                        eag_v_alpha_next(a, k, R)
                        if delta == 2.0
                        else _alpha_next_general(a, k, R, delta)
                    )
                z = zn
            else:
                state = baseline_step(kind, problem, state, config)
                g = state.g_last
                grad_sq[k] = g.dot(g)
                counter.count(_EVALS_PER_ITER[kind])
                if two_call and k in store:
                    half_ks.append(k)
                    half_iterates.append(z - config.alpha0 * g)
                z = state.z

    if not np.isfinite(z).all():
        raise NumericalDivergenceError(
            f"{kind.value} produced a non-finite iterate at iteration {K}"
        )
    oracle_calls[K] = counter.evals
    if alphas is not None:
        alphas[K] = a
    stored_ks.append(K)
    iterates.append(z.copy())
    g = np.asarray(op(z), dtype=float)  # recording only, not an algorithm call
    grad_sq[K] = g.dot(g)
    if anchor_inner is not None:
        anchor_inner[K] = g.dot(z - z0c)

    return Trace(
        kind=kind,
        problem_name=problem.name,
        z0=z0c.copy(),
        stored_ks=np.asarray(stored_ks),
        iterates=iterates,
        half_ks=np.asarray(half_ks),
        half_iterates=half_iterates,
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
    k: int,
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
