"""Joint iterates, saddle problems, the operator oracle and basic diagnostics.

A saddle function L(x, y) is handled through its saddle operator
G(z) = (grad_x L, -grad_y L) evaluated at the joint iterate z = (x, y).
Zeros of G are exactly the saddle points, and ||G|| equals the gradient
norm of L, so every convergence statement in this package is phrased in
terms of ||G(z)||^2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ContractError",
    "NumericalDivergenceError",
    "CertificateError",
    "Point",
    "SaddleProblem",
    "eval_operator",
    "grad_sq_norm",
    "check_monotone",
    "MonotoneReport",
    "estimate_lipschitz",
    "check_gradient",
    "GradientCheckReport",
]


class ContractError(ValueError):
    """An input violates a documented precondition (dimensions, domains)."""


class NumericalDivergenceError(RuntimeError):
    """An iteration produced non-finite values; message names the iteration."""


class CertificateError(RuntimeError):
    """A numerical proof object failed to verify."""


@dataclass(frozen=True)
class Point:
    """Joint iterate z = (x, y) stored as one flat vector with a split index.

    The first ``split`` entries are the x-block, the rest the y-block. The
    backing array is made read-only, so points can be shared freely.
    """

    coords: np.ndarray
    split: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.coords, dtype=float)
        if arr.ndim != 1:
            raise ContractError(f"coords must be a flat vector, got shape {arr.shape}")
        if not 0 <= self.split <= arr.size:
            raise ContractError(f"split {self.split} outside [0, {arr.size}]")
        if not np.all(np.isfinite(arr)):
            raise ContractError("point has non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def x(self) -> np.ndarray:
        return self.coords[: self.split]

    @property
    def y(self) -> np.ndarray:
        return self.coords[self.split:]

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class SaddleProblem:
    """An evaluatable saddle operator with a declared smoothness constant.

    ``operator`` maps a flat joint vector to the flat operator value
    (grad_x L, -grad_y L); it must be pure.  Solvers call it on arrays they
    reuse, so it must neither keep nor modify its argument, and it must return
    a new array on every call.  ``lipschitz`` is the declared
    smoothness constant R (an upper bound on the true Lipschitz constant of
    the operator).  ``value`` optionally evaluates L itself, which enables
    finite-difference validation of the operator.  ``saddle_point``, when
    present, is validated at construction: ||G(z*)|| <= 1e-10 * max(1, R ||z*||).
    """

    name: str
    dim_x: int
    dim_y: int
    operator: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    saddle_point: Point | None = None
    value: Callable[[np.ndarray], float] | None = None

    def __post_init__(self) -> None:
        if self.dim_x <= 0 or self.dim_y <= 0:
            raise ContractError("dim_x and dim_y must be positive")
        if not 0 < self.lipschitz < math.inf:
            raise ContractError("lipschitz constant R must be finite and > 0")
        if self.saddle_point is not None:
            zs = self.saddle_point
            if zs.dim != self.dim or zs.split != self.dim_x:
                raise ContractError("saddle_point dimensions do not match problem")
            g = np.asarray(self.operator(zs.coords), dtype=float)
            tol = 1e-10 * max(1.0, self.lipschitz * float(np.linalg.norm(zs.coords)))
            if not np.linalg.norm(g) <= tol:  # a NaN residual fails too
                raise ContractError(
                    f"declared saddle point of {self.name!r} has ||G|| = "
                    f"{np.linalg.norm(g):.3e} > {tol:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.dim_x + self.dim_y

    def point(self, coords: Sequence[float]) -> Point:
        return Point(np.asarray(coords, dtype=float), self.dim_x)


def check_count(name: str, value, minimum: int) -> None:
    """Raise ContractError unless ``value`` is an integer >= ``minimum``; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ContractError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_dims(problem: SaddleProblem, z: Point) -> None:
    if z.dim != problem.dim or z.split != problem.dim_x:
        raise ContractError(
            f"point (dim={z.dim}, split={z.split}) does not match problem "
            f"{problem.name!r} (dim={problem.dim}, split={problem.dim_x})"
        )


def eval_operator(problem: SaddleProblem, z: Point) -> Point:
    """Evaluate G(z) = (grad_x L, -grad_y L)."""
    _check_dims(problem, z)
    g = np.asarray(problem.operator(z.coords), dtype=float)
    if g.shape != z.coords.shape:
        raise ContractError(
            f"operator of {problem.name!r} returned shape {g.shape}, "
            f"expected {z.coords.shape}"
        )
    return Point(g, problem.dim_x)


def grad_sq_norm(problem: SaddleProblem, z: Point) -> float:
    """Squared Euclidean norm ||G(z)||^2 (equals the squared gradient norm of L)."""
    g = eval_operator(problem, z).coords
    return float(g @ g)


@dataclass(frozen=True)
class MonotoneReport:
    inner_products: np.ndarray
    verdicts: np.ndarray
    tol: float
    passed: bool


def check_monotone(
    problem: SaddleProblem,
    pairs: Sequence[tuple[Point, Point]],
    tol: float = 1e-12,
) -> MonotoneReport:
    """Check <G(z1)-G(z2), z1-z2> >= -tol*||z1-z2||^2 on each pair.

    Violations are reported, not raised; the summary verdict is the
    conjunction over pairs, of which there must be at least one.
    """
    check_count("len(pairs)", len(pairs), 1)
    inners = np.empty(len(pairs))
    verdicts = np.empty(len(pairs), dtype=bool)
    for i, (z1, z2) in enumerate(pairs):
        _check_dims(problem, z1)
        _check_dims(problem, z2)
        g1 = np.asarray(problem.operator(z1.coords), dtype=float)
        g2 = np.asarray(problem.operator(z2.coords), dtype=float)
        dz = z1.coords - z2.coords
        inners[i] = (g1 - g2) @ dz
        verdicts[i] = inners[i] >= -tol * float(dz @ dz)
    return MonotoneReport(inners, verdicts, tol, bool(verdicts.all()))


def estimate_lipschitz(
    problem: SaddleProblem, samples: int, radius: float, seed: int
) -> float:
    """Empirical lower estimate of the operator's Lipschitz constant.

    Samples pairs uniformly in the centered box of half-width ``radius``;
    half of the pairs are short-range perturbations, which probe the local
    constant more sharply. Coincident pairs are resampled. The returned
    maximum ratio never exceeds the true constant, hence must not exceed
    problem.lipschitz * (1 + 1e-6) for an honestly declared problem. A
    non-finite ratio (an operator returning inf or NaN) gives math.inf.
    """
    check_count("samples", samples, 1)
    if not 0 < radius < math.inf:
        raise ContractError("radius must be finite and > 0")
    rng = np.random.default_rng(seed)
    n = problem.dim
    best = 0.0
    for i in range(samples):
        while True:
            z1 = rng.uniform(-radius, radius, size=n)
            if i % 2 == 0:
                step = rng.normal(size=n)
                z2 = z1 + 1e-3 * radius * step / max(np.linalg.norm(step), 1e-300)
            else:
                z2 = rng.uniform(-radius, radius, size=n)
            dz = z1 - z2
            nd = float(np.linalg.norm(dz))
            if nd > 0:
                break
        g1 = np.asarray(problem.operator(z1), dtype=float)
        g2 = np.asarray(problem.operator(z2), dtype=float)
        ratio = float(np.linalg.norm(g1 - g2)) / nd
        if not math.isfinite(ratio):
            return math.inf  # max() would drop a NaN
        best = max(best, ratio)
    return best


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    errors: np.ndarray
    passed: bool


def check_gradient(
    problem: SaddleProblem,
    points: Sequence[Point],
    h_scale: float = 1e-5,
    rtol: float = 1e-6,
) -> GradientCheckReport:
    """Compare the operator against central finite differences of L.

    Uses per-coordinate steps h_i = h_scale * max(1, |z_i|). Requires the
    problem to carry a ``value`` callable. The relative error at a point is
    ||G_fd - G|| / max(||G||, 1e-300); at least one point is required.
    """
    check_count("len(points)", len(points), 1)
    if problem.value is None:
        raise ContractError(f"problem {problem.name!r} has no value function")
    L = problem.value
    errs = np.empty(len(points))
    for idx, z in enumerate(points):
        _check_dims(problem, z)
        zc = z.coords
        g = np.asarray(problem.operator(zc), dtype=float)
        fd = np.empty_like(g)
        for i in range(zc.size):
            h = h_scale * max(1.0, abs(zc[i]))
            zp = zc.copy()
            zm = zc.copy()
            zp[i] += h
            zm[i] -= h
            d = (L(zp) - L(zm)) / (2 * h)
            # y-block of G carries the sign flip -grad_y L
            fd[i] = d if i < problem.dim_x else -d
        errs[idx] = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-300)
    worst = float(errs.max())
    return GradientCheckReport(worst, errs, worst <= rtol)
