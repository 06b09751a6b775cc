"""Benchmark saddle problems and the continuous-time reference flows.

Shipped problems: a two-dimensional Huber-smoothed worst case (smoothness 1,
saddle at the origin), the Lagrangian of a linearly constrained QP with
banded constraint matrix, the scaled bilinear coupling, and a seeded family
of random monotone linear operators; ``load_preset`` also names the
lower-bound instances of ``build_hard_instance``.  The two flows for
L(x, y) = x y — the resolvent-regularized flow and the anchored flow — have
exact closed forms, which the fixed-step RK4 integrator must reproduce; each
side serves as the oracle for the other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ContractError, NumericalDivergenceError, Point, SaddleProblem, check_count
from .lowerbound import build_hard_instance

__all__ = [
    "HuberSaddleParams",
    "make_huber_saddle",
    "make_ouyang_qp",
    "make_bilinear",
    "make_random_monotone",
    "FlowKind",
    "FlowSpec",
    "flow_closed_form",
    "FlowTrajectory",
    "integrate_flow",
    "load_preset",
    "preset_names",
    "PRESET_STEP_SIZES",
]


@dataclass(frozen=True)
class HuberSaddleParams:
    """Parameters of the Huber-smoothed 2-d saddle; requires 0 < eps < delta < 1."""

    delta: float = 1e-2
    epsilon: float = 5e-5

    def __post_init__(self) -> None:
        if not 0 < self.delta < 1:
            raise ContractError("delta must lie in (0, 1)")
        if not 0 < self.epsilon < self.delta:
            raise ContractError("epsilon must lie in (0, delta)")
        if self.epsilon >= self.delta / 10:
            warnings.warn(
                "epsilon is not << delta; the bilinear approximation is poor",
                RuntimeWarning,
                stacklevel=3,
            )


def _huber(u: float, eps: float) -> float:
    return eps * abs(u) - 0.5 * eps * eps if abs(u) >= eps else 0.5 * u * u


def _huber_grad(u: float, eps: float) -> float:
    # continuous at |u| = eps (eps * sign(u) = u), so the branch choice there
    # is immaterial
    return eps * math.copysign(1.0, u) if abs(u) >= eps else u


def make_huber_saddle(params: HuberSaddleParams | None = None) -> SaddleProblem:
    """(1-delta) f_eps(x) + delta x y - (1-delta) f_eps(y); smoothness 1."""
    p = params if params is not None else HuberSaddleParams()
    d, e = p.delta, p.epsilon

    def op(z: np.ndarray) -> np.ndarray:
        x, y = z[0], z[1]
        return np.array(
            [(1 - d) * _huber_grad(x, e) + d * y, -d * x + (1 - d) * _huber_grad(y, e)]
        )

    def val(z: np.ndarray) -> float:
        x, y = z[0], z[1]
        return (1 - d) * _huber(x, e) + d * x * y - (1 - d) * _huber(y, e)

    return SaddleProblem(
        name="huber-saddle",
        dim_x=1,
        dim_y=1,
        operator=op,
        lipschitz=1.0,
        saddle_point=Point(np.zeros(2), 1),
        value=val,
    )


def _ouyang_apply(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write A v into ``out`` in O(n) and return it.

    A is symmetric: (A v)_i = (v_{n-1-i} - v_{n-2-i}) / 4 for i < n-1 and
    (A v)_{n-1} = v_0 / 4, a reversed first difference. Each entry takes one
    rounding (the scaling by 1/4 is exact), as in the dense product.
    """
    np.subtract(v[:0:-1], v[-2::-1], out=out[:-1])
    out[-1] = v[0]
    out *= 0.25
    return out


def make_ouyang_qp(n: int = 200) -> SaddleProblem:
    """Lagrangian of a linearly constrained QP: L = x'Hx/2 - h'x - <Ax-b, y>.

    ||A|| <= 1/2 and ||H|| <= 1/2, so the saddle operator is 1-smooth; the
    declared constant is 1. The operator is matrix-free: with H = 2 A^T A it
    is G(x, y) = (A^T (2 A x - y) - h, A x - b), one application of A and one
    of A^T = A, O(n) per call (see ``_ouyang_apply`` for A). Here
    b = (1/4, ..., 1/4) and h = (0, ..., 0, 1/4). The saddle point has a
    closed form: x* = (1, ..., n) solves A x = b, and y* = (-1/2, ..., -1/2)
    solves A^T y = 2 A^T b - h = H x* - h, both exact in floating point.
    """
    check_count("n", n, 2)
    b = np.full(n, 0.25)
    h = np.zeros(n)
    h[-1] = 0.25
    xs = np.arange(1.0, n + 1)
    ys = np.full(n, -0.5)

    def op(z: np.ndarray) -> np.ndarray:
        # a fresh output on every call: callers keep earlier values of G
        g = np.empty(2 * n)
        gx, gy = g[:n], g[n:]
        _ouyang_apply(z[:n], gy)
        _ouyang_apply(2.0 * gy - z[n:], gx)
        gx -= h
        gy -= b
        return g

    def val(z: np.ndarray) -> float:
        x, y = z[:n], z[n:]
        ax = _ouyang_apply(x, np.empty(n))  # x'Hx/2 = ||Ax||^2
        return float(ax @ ax - h @ x - (ax - b) @ y)

    return SaddleProblem(
        name=f"ouyang-qp-{n}",
        dim_x=n,
        dim_y=n,
        operator=op,
        lipschitz=1.0,
        saddle_point=Point(np.concatenate([xs, ys]), n),
        value=val,
    )


def make_bilinear(scale: float = 1.0) -> SaddleProblem:
    """L(x, y) = scale * x y on R x R; the operator is a scaled rotation."""
    if not scale > 0:
        raise ContractError("scale must be > 0")

    def op(z: np.ndarray) -> np.ndarray:
        return np.array([scale * z[1], -scale * z[0]])

    return SaddleProblem(
        name="bilinear",
        dim_x=1,
        dim_y=1,
        operator=op,
        lipschitz=scale,
        saddle_point=Point(np.zeros(2), 1),
        value=lambda z: float(scale * z[0] * z[1]),
    )


class _SingularDraw(ContractError):
    """A drawn operator matrix is singular, so no saddle point is recorded."""


def _monotone_linear_problem(
    P1: np.ndarray, P2: np.ndarray, C: np.ndarray, v: np.ndarray, R: float, name: str
) -> SaddleProblem:
    """Affine monotone operator z -> M z + v with M = [[P1, C], [-C', P2]].

    P1, P2 must be positive semidefinite; the skew coupling contributes
    nothing to <Mz, z>, so the operator is monotone. M is rescaled to
    spectral norm R exactly (power iteration would only approach the norm
    from below, which could push the true constant past the declared one).
    """
    nx, ny = P1.shape[0], P2.shape[0]
    M = np.block([[P1, C], [-C.T, P2]])
    nrm = np.linalg.norm(M, 2)
    if nrm == 0:
        raise ContractError("operator matrix is zero")
    M = M * (R / nrm)
    try:
        zs = np.linalg.solve(M, -v)
        if not np.linalg.norm(M @ zs + v) <= 1e-10 * max(1.0, R * np.linalg.norm(zs)):
            raise np.linalg.LinAlgError("inaccurate solve")
        saddle = Point(zs, nx)
    except np.linalg.LinAlgError as exc:
        raise _SingularDraw(f"operator matrix is singular; no recorded saddle ({exc})")

    def op(z: np.ndarray) -> np.ndarray:
        return M.dot(z) + v  # bit-equal to M @ z, without the matmul gufunc's overhead

    def val(z: np.ndarray) -> float:
        x, y = z[:nx], z[nx:]
        vx, vy = v[:nx], v[nx:]
        s = R / nrm
        return float(
            0.5 * s * x @ (P1 @ x) + s * x @ (C @ y) - 0.5 * s * y @ (P2 @ y)
            + vx @ x - vy @ y
        )

    return SaddleProblem(
        name=name,
        dim_x=nx,
        dim_y=ny,
        operator=op,
        lipschitz=R,
        saddle_point=saddle,
        value=val,
    )


def make_random_monotone(n: int, R: float = 1.0, seed: int = 0) -> SaddleProblem:
    """Random monotone linear saddle operator on R^n x R^n with norm R.

    Diagonal blocks are random Gram matrices, the coupling block is dense
    Gaussian. If the matrix comes out singular with an incompatible offset
    (no saddle exists), the draw is retried with a shifted seed; n and R are
    checked first, so a bad one raises ContractError instead of a retry.
    """
    check_count("n", n, 1)
    if not 0 < R < math.inf:
        raise ContractError(f"R must be finite and > 0, got {R!r}")
    attempt = seed
    while True:
        rng = np.random.default_rng(attempt)
        G1 = rng.normal(size=(n, n))
        G2 = rng.normal(size=(n, n))
        P1 = G1 @ G1.T / n
        P2 = G2 @ G2.T / n
        C = rng.normal(size=(n, n))
        v = rng.normal(size=2 * n)
        try:
            return _monotone_linear_problem(
                P1, P2, C, v, R, f"random-monotone-{n}-{seed}"
            )
        except _SingularDraw:
            attempt += 10_000


# ---------------------------------------------------------------------------
# continuous-time flows for L(x, y) = x y
# ---------------------------------------------------------------------------


class FlowKind(str, Enum):
    MOREAU_YOSIDA = "moreau-yosida"
    ANCHORED = "anchored"


@dataclass(frozen=True)
class FlowSpec:
    """A flow on R^2 for the unit bilinear coupling.

    The anchored flow dz/dt = -G(z) + (z0 - z)/t is singular at t = 0, so
    evaluation requires t > 0; ``t_start`` sets where integration begins.
    ``lam`` is the resolvent parameter of the regularized flow and is unused
    for the anchored kind. Every float must be finite and ``steps`` an int.
    """

    kind: FlowKind
    z0: tuple[float, float]
    t_end: float
    steps: int
    lam: float = 0.01
    t_start: float = 1e-2

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (*self.z0, self.lam)):
            raise ContractError(f"z0 = {self.z0} and lam = {self.lam} must be finite")
        if self.kind == FlowKind.MOREAU_YOSIDA and not self.lam > 0:
            raise ContractError("lam must be > 0")
        if not 0 < self.t_start < self.t_end < math.inf:
            raise ContractError("need 0 < t_start < t_end < inf")
        check_count("steps", self.steps, 1)


def flow_closed_form(spec: FlowSpec, t) -> np.ndarray:
    """Exact solution of the flow at time t (vectorized over t).

    Anchored: x(t) = (y0 cos t + x0 sin t - y0)/t and the matching y(t);
    finite as t -> 0+ with limit z0. Regularized: a spiral contracting by
    exp(-lam t/(1+lam^2)) while rotating at rate 1/(1+lam^2).
    """
    t = np.asarray(t, dtype=float)
    x0, y0 = spec.z0
    if spec.kind == FlowKind.ANCHORED:
        if np.any(t <= 0):
            raise ContractError("anchored flow requires t > 0")
        x = (y0 * np.cos(t) + x0 * np.sin(t) - y0) / t
        y = (y0 * np.sin(t) - x0 * np.cos(t) + x0) / t
    else:
        lam = spec.lam
        w = t / (1 + lam * lam)
        decay = np.exp(-lam * w)
        x = decay * (x0 * np.cos(w) - y0 * np.sin(w))
        y = decay * (y0 * np.cos(w) + x0 * np.sin(w))
    return np.stack([x, y], axis=-1)


def _flow_rhs(spec: FlowSpec):
    """The flow field (t, (x, y)) -> (dx/dt, dy/dt), on Python floats."""
    x0, y0 = float(spec.z0[0]), float(spec.z0[1])
    if spec.kind == FlowKind.ANCHORED:
        def rhs(t: float, z) -> tuple[float, float]:
            x, y = z
            return -y + (x0 - x) / t, x + (y0 - y) / t
    else:
        lam = spec.lam
        c = 1.0 / (1 + lam * lam)
        def rhs(t: float, z) -> tuple[float, float]:
            # -G_lam(z) for the resolvent-regularized operator of [[0,1],[-1,0]]
            x, y = z
            return -c * (lam * x + y), -c * (-x + lam * y)
    return rhs


@dataclass(frozen=True)
class FlowTrajectory:
    ts: np.ndarray
    zs: np.ndarray


def integrate_flow(spec: FlowSpec) -> FlowTrajectory:
    """Classical fixed-step RK4 from t_start to t_end, stepped on Python floats.

    The initial value is the closed form evaluated at t_start: for the
    anchored flow that is the unique solution approaching z0 as t -> 0+
    (starting at the raw anchor value instead would integrate a different
    trajectory). Divergence beyond 1e9 times the initial scale aborts with
    a suggestion to increase ``steps``.
    """
    rhs = _flow_rhs(spec)
    h = (spec.t_end - spec.t_start) / spec.steps
    z = flow_closed_form(spec, spec.t_start)
    limit = 1e9 * (np.linalg.norm(z) + 1.0)
    ts = spec.t_start + h * np.arange(spec.steps + 1)
    zs = np.empty((spec.steps + 1, 2))
    zs[0] = z
    t = spec.t_start
    x, y = z.tolist()
    for i in range(spec.steps):
        a1, b1 = rhs(t, (x, y))
        a2, b2 = rhs(t + h / 2, (x + h / 2 * a1, y + h / 2 * b1))
        a3, b3 = rhs(t + h / 2, (x + h / 2 * a2, y + h / 2 * b2))
        a4, b4 = rhs(t + h, (x + h * a3, y + h * b3))
        x = x + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        y = y + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
        t = spec.t_start + (i + 1) * h
        if not (math.isfinite(x) and math.isfinite(y)) or math.hypot(x, y) > limit:
            raise NumericalDivergenceError(
                f"flow integration blew up at step {i + 1} (t ~ {t:.3g}); "
                f"try more than {spec.steps} steps"
            )
        zs[i + 1] = x, y
    return FlowTrajectory(ts=ts, zs=zs)


# ---------------------------------------------------------------------------
# named presets
# ---------------------------------------------------------------------------

# step sizes used in the reference experiments, per problem and method
PRESET_STEP_SIZES: dict[str, dict[str, float]] = {
    "huber-default": {"eg": 0.1, "eag-c": 0.1, "popov": 0.1, "eag-v": 0.1},
    "ouyang-200": {"eg": 0.5, "popov": 0.5, "eag-c": 0.125, "eag-v": 0.618},
    "bilinear-unit": {"eg": 0.1, "eag-c": 0.1, "popov": 0.1, "eag-v": 0.618},
}


def preset_names() -> list[str]:
    return ["huber-default", "ouyang-200", "bilinear-unit", "random-monotone:<n>:<seed>",
            "hard:<k>[:<R>:<D>[:<n>]]"]


def _spec_fields(name: str, usage: str, types: tuple, counts: tuple[int, ...]) -> list:
    """The fields after a spec's first colon, converted by ``types`` in order.

    A count outside ``counts``, or a field its type rejects, raises
    ContractError naming ``usage``. ``int`` and ``float`` also take
    underscores, surrounding spaces and non-ASCII digits; those are refused
    here, so a mistyped spec cannot load as another problem.
    """
    fields = name.split(":")[1:]
    try:
        if len(fields) not in counts:
            raise ValueError(f"{len(fields)} fields")
        if any("_" in f or f.strip() != f or not f.isascii() for f in fields):
            raise ValueError("field with an underscore, a space or a non-ASCII character")
        return [conv(field) for conv, field in zip(types, fields)]
    except ValueError as exc:
        raise ContractError(f"bad preset {name!r}; use {usage}") from exc


def load_preset(name: str) -> tuple[SaddleProblem, Point]:
    """Resolve a preset name to (problem, default starting point).

    ``hard:<k>[:<R>:<D>[:<n>]]`` is the embedded saddle of
    ``build_hard_instance(k, R, D, n)``, with its defaults, started at 0.
    """
    if name == "huber-default":
        return make_huber_saddle(), Point(np.array([1.0, 1.0]) / math.sqrt(2.0), 1)
    if name == "ouyang-200":
        problem = make_ouyang_qp(200)
        return problem, Point(np.zeros(400), 200)
    if name == "bilinear-unit":
        return make_bilinear(1.0), Point(np.array([1.0, 0.0]), 1)
    if name.startswith("random-monotone:"):
        n, seed = _spec_fields(name, "random-monotone:<n>:<seed>", (int, int), (2,))
        problem = make_random_monotone(n, 1.0, seed)
        rng = np.random.default_rng(seed + 1)
        z0 = rng.normal(size=2 * n)
        return problem, Point(z0 / np.linalg.norm(z0), n)
    if name.startswith("hard:"):
        inst = build_hard_instance(*_spec_fields(
            name, "hard:<k>[:<R>:<D>[:<n>]]", (int, float, float, int), (1, 3, 4)
        ))
        return inst.saddle, Point(np.zeros(2 * inst.n), inst.n)
    raise ContractError(f"unknown preset {name!r}; known: {preset_names()}")
