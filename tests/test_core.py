import math

import numpy as np
import pytest

from anchored_minimax import (
    ContractError,
    Point,
    SaddleProblem,
    check_gradient,
    check_monotone,
    estimate_lipschitz,
    eval_operator,
    grad_sq_norm,
    load_preset,
    make_bilinear,
    make_huber_saddle,
    make_ouyang_qp,
    make_random_monotone,
)

from test_problems import affine_parts

SHIPPED = [
    "bilinear-unit",
    "huber-default",
    "ouyang-200",
    "random-monotone:8:0",
]


def shipped_problems():
    return [load_preset(name)[0] for name in SHIPPED]


def random_points(problem, count, radius, seed):
    rng = np.random.default_rng(seed)
    return [
        problem.point(rng.uniform(-radius, radius, size=problem.dim))
        for _ in range(count)
    ]


class TestPoint:
    def test_blocks(self):
        z = Point(np.array([1.0, 2.0, 3.0]), 2)
        assert z.x.tolist() == [1.0, 2.0]
        assert z.y.tolist() == [3.0]

    def test_join(self):
        xy = np.array([1.0, 2.0, 3.0])
        z = Point(xy, 2)
        xy[0] = 9.0  # the point holds its own copy of the joint vector
        assert z.split == 2 and z.coords.tolist() == [1.0, 2.0, 3.0]

    def test_split_bounds(self):
        with pytest.raises(ContractError):
            Point(np.array([1.0]), 2)
        with pytest.raises(ContractError):
            Point(np.array([1.0]), -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            Point(np.array([np.nan, 0.0]), 1)

    def test_read_only(self):
        z = Point(np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError):
            z.coords[0] = 5.0


class TestEvalOperator:
    def test_bilinear_by_hand(self):
        p = make_bilinear(1.0)
        g = eval_operator(p, p.point([1.0, 2.0]))
        assert g.coords.tolist() == [2.0, -1.0]

    def test_huber_near_one_one(self):
        p = make_huber_saddle()
        g = eval_operator(p, p.point([1.0, 1.0])).coords
        assert g[0] == pytest.approx(0.0100495, abs=1e-12)
        assert g[1] == pytest.approx(-0.0099505, abs=1e-12)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_vanishes_at_saddle(self, name):
        p, _ = load_preset(name)
        zs = p.saddle_point
        g = eval_operator(p, zs).coords
        scale = max(1.0, p.lipschitz * float(np.linalg.norm(zs.coords)))
        assert np.linalg.norm(g) <= 1e-10 * scale

    def test_dimension_mismatch(self):
        p = make_bilinear(1.0)
        with pytest.raises(ContractError):
            eval_operator(p, Point(np.zeros(3), 1))
        with pytest.raises(ContractError):
            eval_operator(p, Point(np.zeros(2), 2))


class TestGradSqNorm:
    def test_bilinear(self):
        p = make_bilinear(1.0)
        assert grad_sq_norm(p, p.point([3.0, 4.0])) == pytest.approx(25.0)

    def test_zero_at_saddle(self):
        p = make_ouyang_qp(20)
        assert grad_sq_norm(p, p.saddle_point) <= 1e-20 * max(
            1.0, np.sum(p.saddle_point.coords**2)
        )

    def test_skew_matches_matrix_product(self):
        # purely skew coupling, no offset: ||G(e1)||^2 = ||B e1||^2
        from anchored_minimax.problems import _monotone_linear_problem

        rng = np.random.default_rng(3)
        C = rng.normal(size=(3, 3))
        p = _monotone_linear_problem(
            np.zeros((3, 3)), np.zeros((3, 3)), C, np.zeros(6), 1.0, "skew"
        )
        B, _ = affine_parts(p)
        e1 = np.zeros(6)
        e1[0] = 1.0
        assert grad_sq_norm(p, p.point(e1)) == pytest.approx(float(np.sum((B @ e1) ** 2)))


class TestMonotone:
    def test_bilinear_inner_product_zero(self):
        p = make_bilinear(1.0)
        pairs = [
            (p.point([1.0, 2.0]), p.point([-3.0, 0.5])),
            (p.point([0.0, 0.0]), p.point([10.0, -7.0])),
        ]
        rep = check_monotone(p, pairs)
        assert rep.passed
        assert np.allclose(rep.inner_products, 0.0, atol=1e-14)

    def test_huber_random_pairs(self):
        p = make_huber_saddle()
        pts = random_points(p, 2000, 2.0, seed=11)
        pairs = list(zip(pts[::2], pts[1::2]))
        rep = check_monotone(p, pairs)
        assert rep.passed
        # zero inner products round to +-1e-19; anything genuinely negative
        # would be far larger in magnitude
        assert np.all(rep.inner_products >= -1e-15)

    def test_flipped_operator_fails(self):
        base = make_bilinear(1.0)
        flipped = SaddleProblem(
            name="anti",
            dim_x=1,
            dim_y=1,
            operator=lambda z: np.array([-z[1] - z[0], z[0] - z[1]]),
            lipschitz=2.0,
        )
        pts = random_points(flipped, 40, 1.0, seed=5)
        rep = check_monotone(flipped, list(zip(pts[::2], pts[1::2])))
        assert not rep.passed

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_monotone_thousand_pairs(self, name):
        p, _ = load_preset(name)
        rng = np.random.default_rng(29)
        pairs = []
        for _ in range(1000):
            z1 = p.point(rng.uniform(-2, 2, size=p.dim))
            z2 = p.point(rng.uniform(-2, 2, size=p.dim))
            pairs.append((z1, z2))
        rep = check_monotone(p, pairs, tol=1e-12)
        assert rep.passed

    def test_no_pairs_is_not_a_pass(self):
        with pytest.raises(ContractError, match="len\\(pairs\\) must be an integer >= 1"):
            check_monotone(make_bilinear(1.0), [])


class TestLipschitz:
    def test_bilinear_is_isometric(self):
        p = make_bilinear(1.0)
        est = estimate_lipschitz(p, samples=200, radius=2.0, seed=1)
        assert est <= 1.0 + 1e-12
        assert est >= 0.999

    def test_huber(self):
        p = make_huber_saddle()
        est = estimate_lipschitz(p, samples=500, radius=1.0, seed=2)
        assert est <= 1.0 * (1 + 1e-6)

    def test_ouyang(self):
        p = make_ouyang_qp(200)
        est = estimate_lipschitz(p, samples=200, radius=5.0, seed=3)
        assert est <= 1.0 * (1 + 1e-6)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_consistency_thousand_pairs(self, name):
        p, _ = load_preset(name)
        est = estimate_lipschitz(p, samples=1000, radius=3.0, seed=17)
        assert est <= p.lipschitz * (1 + 1e-6)

    def test_bad_arguments(self):
        p = make_bilinear(1.0)
        with pytest.raises(ContractError):
            estimate_lipschitz(p, samples=0, radius=1.0, seed=0)
        with pytest.raises(ContractError):
            estimate_lipschitz(p, samples=5, radius=0.0, seed=0)
        with pytest.raises(ContractError):
            estimate_lipschitz(p, samples=5, radius=np.inf, seed=0)

    @pytest.mark.parametrize("samples", [True, 2.5])
    def test_samples_must_be_a_count(self, samples):
        with pytest.raises(ContractError, match="samples must be an integer >= 1"):
            estimate_lipschitz(make_bilinear(1.0), samples=samples, radius=1.0, seed=0)

    def test_non_finite_operator_gives_infinite_estimate(self):
        # a NaN ratio would drop out of max() and leave any declared R honest
        bilinear = make_bilinear(1.0)

        def op(z):
            g = bilinear.operator(z)
            return np.full_like(g, np.nan) if z[0] > 0.5 else g

        p = SaddleProblem("nan-in-a-corner", 1, 1, op, 1.0)
        assert estimate_lipschitz(p, samples=200, radius=1.0, seed=0) == np.inf


class TestFiniteDifferences:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_central_differences(self, name):
        p, _ = load_preset(name)
        rng = np.random.default_rng(41)
        pts = []
        while len(pts) < 100:
            z = rng.uniform(-2, 2, size=p.dim)
            # keep clear of the curvature kinks of the Huber problem, where
            # central differences are not second-order
            if name == "huber-default" and np.any(np.abs(np.abs(z) - 5e-5) < 1e-3):
                continue
            pts.append(p.point(z))
        rep = check_gradient(p, pts, h_scale=1e-5, rtol=1e-6)
        assert rep.passed, f"max rel error {rep.max_rel_error:.3e}"

    def test_requires_value_function(self):
        p = SaddleProblem(
            name="no-value",
            dim_x=1,
            dim_y=1,
            operator=lambda z: np.array([z[1], -z[0]]),
            lipschitz=1.0,
        )
        with pytest.raises(ContractError):
            check_gradient(p, [p.point([1.0, 0.0])])

    def test_no_points_is_not_a_pass(self):
        with pytest.raises(ContractError, match="len\\(points\\) must be an integer >= 1"):
            check_gradient(make_bilinear(1.0), [])


def test_saddle_point_validated_at_construction():
    with pytest.raises(ContractError):
        SaddleProblem(
            name="wrong-saddle",
            dim_x=1,
            dim_y=1,
            operator=lambda z: np.array([z[1], -z[0]]),
            lipschitz=1.0,
            saddle_point=Point(np.array([1.0, 1.0]), 1),
        )


@pytest.mark.parametrize("R", [math.inf, math.nan, 0.0, -1.0])
def test_declared_lipschitz_must_be_finite_and_positive(R):
    with pytest.raises(ContractError, match="lipschitz constant R must be finite and > 0"):
        SaddleProblem("rotation", 1, 1, lambda z: np.array([z[1], -z[0]]), R)


def test_nan_residual_at_declared_saddle_is_rejected():
    # NaN > tol is false, so the check must be one that a NaN residual fails
    with pytest.raises(ContractError, match="declared saddle point"):
        SaddleProblem(
            name="nan-at-origin",
            dim_x=1,
            dim_y=1,
            operator=lambda z: np.full(2, np.nan),
            lipschitz=1.0,
            saddle_point=Point(np.zeros(2), 1),
        )


def test_infinite_bilinear_scale_is_rejected(recwarn):
    # R = inf is rejected before the operator runs: inf * 0 at the saddle
    # would give a NaN residual and a RuntimeWarning
    with pytest.raises(ContractError):
        make_bilinear(math.inf)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_random_monotone_block_form():
    p = make_random_monotone(5, R=1.5, seed=7)
    M, v = affine_parts(p)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        z = rng.normal(size=10)
        assert z @ (M @ z) >= -1e-10 * (z @ z)
    assert np.linalg.norm(M, 2) == pytest.approx(1.5, rel=1e-12)
    zs = p.saddle_point.coords
    assert np.linalg.norm(M @ zs + v) <= 1e-9
