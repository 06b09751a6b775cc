import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchored_minimax
from anchored_minimax import (
    AlgoConfig,
    AlgoKind,
    ContractError,
    FlowKind,
    FlowSpec,
    HuberSaddleParams,
    NumericalDivergenceError,
    check_eag_c_stepsize,
    check_gradient,
    flow_closed_form,
    integrate_flow,
    load_preset,
    make_bilinear,
    make_huber_saddle,
    make_ouyang_qp,
    make_random_monotone,
    run,
)
from anchored_minimax.problems import PRESET_STEP_SIZES, _ouyang_apply

EPS = np.finfo(float).eps


def ouyang_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The banded constraint data A, b, h and curvature H = 2 A^T A.

    The dense reference for the matrix-free operator of ``make_ouyang_qp``.
    """
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, n - 2 - i] = -0.25
        A[i, n - 1 - i] = 0.25
    A[n - 1, 0] = 0.25
    b = np.full(n, 0.25)
    h = np.zeros(n)
    h[n - 1] = 0.25
    H = 2 * A.T @ A
    return A, b, h, H


def affine_parts(problem) -> tuple[np.ndarray, np.ndarray]:
    """(M, v) of an affine operator G(z) = M z + v, read back from G itself:
    v = G(0), and column i of M is G(e_i) - v."""
    I = np.eye(problem.dim)
    v = problem.operator(np.zeros(problem.dim))
    return np.column_stack([problem.operator(e) - v for e in I]), v


def reference_rk4(spec: FlowSpec) -> np.ndarray:
    """Reference for integrate_flow: RK4 on numpy 2-vectors, one array per stage."""
    z0 = np.array(spec.z0)
    if spec.kind == FlowKind.ANCHORED:
        def rhs(t, z):
            return np.array([-z[1], z[0]]) + (z0 - z) / t
    else:
        lam = spec.lam
        c = 1.0 / (1 + lam * lam)
        def rhs(t, z):
            return np.array([-c * (lam * z[0] + z[1]), -c * (-z[0] + lam * z[1])])
    h = (spec.t_end - spec.t_start) / spec.steps
    z = flow_closed_form(spec, spec.t_start)
    limit = 1e9 * (np.linalg.norm(z) + 1.0)
    zs = np.empty((spec.steps + 1, 2))
    zs[0] = z
    t = spec.t_start
    for i in range(spec.steps):
        k1 = rhs(t, z)
        k2 = rhs(t + h / 2, z + h / 2 * k1)
        k3 = rhs(t + h / 2, z + h / 2 * k2)
        k4 = rhs(t + h, z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = spec.t_start + (i + 1) * h
        if not np.isfinite(z).all() or np.linalg.norm(z) > limit:
            raise NumericalDivergenceError(
                f"flow integration blew up at step {i + 1} (t ~ {t:.3g}); "
                f"try more than {spec.steps} steps"
            )
        zs[i + 1] = z
    return zs


def _assert_matches_dense(n: int, z: np.ndarray) -> None:
    """The matrix-free ouyang operator against the dense matrices.

    A x, A^T y and the y-block A x - b are equal bit for bit: each row of A
    and each column of A^T has at most two entries +-1/4, so the dense
    product rounds once, like the reversed difference. The x-block's two
    evaluation orders differ by at most 8 eps (|A|^T (2|A||x| + |y|) + |h|).
    """
    p = make_ouyang_qp(n)
    A, b, h, H = ouyang_matrices(n)
    x, y = z[:n], z[n:]
    assert np.array_equal(_ouyang_apply(x, np.empty(n)), A @ x)
    assert np.array_equal(_ouyang_apply(y, np.empty(n)), A.T @ y)
    g = p.operator(z)
    assert np.array_equal(g[n:], A @ x - b)
    absA = np.abs(A)
    bound = 8 * EPS * (absA.T @ (2 * absA @ np.abs(x) + np.abs(y)) + np.abs(h))
    assert np.all(np.abs(g[:n] - (H @ x - h - A.T @ y)) <= bound)


class TestHuberSaddle:
    def test_quadratic_branch_gradient(self):
        p = make_huber_saddle()
        eps, delta = HuberSaddleParams().epsilon, HuberSaddleParams().delta
        g = p.operator(np.array([eps / 2, 0.0]))
        # f'(eps/2) = eps/2 inside the quadratic region
        assert g[0] == pytest.approx((1 - delta) * eps / 2, rel=1e-14)

    def test_value_at_one_one(self):
        p = make_huber_saddle()
        g = p.operator(np.array([1.0, 1.0]))
        assert g[0] == pytest.approx(0.0100495, abs=1e-15)
        assert g[1] == pytest.approx(-0.0099505, abs=1e-15)

    def test_origin_is_saddle(self):
        p = make_huber_saddle()
        assert np.array_equal(p.operator(np.zeros(2)), np.zeros(2))

    def test_exact_form_outside_kink(self):
        p = make_huber_saddle()
        eps, delta = HuberSaddleParams().epsilon, HuberSaddleParams().delta
        rng = np.random.default_rng(8)
        for _ in range(200):
            z = rng.uniform(-2, 2, size=2)
            if min(abs(z[0]), abs(z[1])) < eps:
                continue
            expected = np.array(
                [
                    delta * z[1] + (1 - delta) * eps * np.sign(z[0]),
                    -delta * z[0] + (1 - delta) * eps * np.sign(z[1]),
                ]
            )
            assert np.allclose(p.operator(z), expected, atol=1e-18)

    def test_parameter_validation_and_advisory(self):
        with pytest.raises(ContractError):
            HuberSaddleParams(delta=0.0, epsilon=1e-5)
        with pytest.raises(ContractError):
            HuberSaddleParams(delta=1e-3, epsilon=1e-2)
        with pytest.warns(RuntimeWarning):
            HuberSaddleParams(delta=1e-2, epsilon=5e-3)  # not << delta


class TestOuyangQP:
    def test_dimensions_of_default_preset(self):
        p, z0 = load_preset("ouyang-200")
        assert p.dim_x == p.dim_y == 200
        assert np.array_equal(z0.coords, np.zeros(400))

    def test_matrix_norms(self):
        A, b, h, H = ouyang_matrices(200)
        assert np.linalg.norm(A, 2) <= 0.5 + 1e-12
        assert np.linalg.norm(H, 2) <= 0.5 + 1e-12

    def test_curvature_block_is_psd(self):
        _, _, _, H = ouyang_matrices(60)
        assert np.linalg.eigvalsh(H).min() >= -1e-12

    def test_operator_blocks_match_matrices(self):
        n = 8
        p = make_ouyang_qp(n)
        A, b, h, H = ouyang_matrices(n)
        rng = np.random.default_rng(2)
        z = rng.normal(size=2 * n)
        g = p.operator(z)
        x, y = z[:n], z[n:]
        assert np.allclose(g[:n], H @ x - h - A.T @ y, atol=1e-14)
        assert np.allclose(g[n:], A @ x - b, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 8, 60, 200, 513])
    def test_matrix_free_operator_matches_dense(self, n):
        A, _, _, _ = ouyang_matrices(n)
        assert np.array_equal(A, A.T)  # the operator applies A for A^T
        rng = np.random.default_rng(n)
        for scale in (1e-8, 1.0, 1e8):
            _assert_matches_dense(n, scale * rng.normal(size=2 * n))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-8, 8),
    )
    def test_matrix_free_operator_matches_dense_property(self, n, seed, exponent):
        z = np.random.default_rng(seed).normal(size=2 * n)
        _assert_matches_dense(n, 10.0**exponent * z)

    def test_operator_output_is_fresh(self):
        # Popov keeps G(z^{k-1}) across calls, so no call may reuse a buffer
        p = make_ouyang_qp(8)
        rng = np.random.default_rng(3)
        z1, z2 = rng.normal(size=16), rng.normal(size=16)
        g1 = p.operator(z1)
        kept = g1.copy()
        p.operator(z2)
        assert np.array_equal(g1, kept)

    def test_value_matches_operator(self):
        p = make_ouyang_qp(20)
        rng = np.random.default_rng(4)
        points = [p.point(rng.normal(size=40)) for _ in range(3)]
        assert check_gradient(p, points).passed

    def test_eag_v_run_matches_dense_operator(self):
        p, z0 = load_preset("ouyang-200")
        A, b, h, H = ouyang_matrices(200)

        def dense_op(z):
            x, y = z[:200], z[200:]
            return np.concatenate([H @ x - h - A.T @ y, A @ x - b])

        dense = replace(p, operator=dense_op)
        config = AlgoConfig(AlgoKind.EAG_V, 0.618, 2000)
        got = run(p, config, z0).grad_sq
        want = run(dense, config, z0).grad_sq
        assert np.all(np.abs(got - want) <= 1e-10 * want)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 400))
    def test_closed_form_saddle_equals_dense_solve(self, n):
        A, b, h, H = ouyang_matrices(n)
        xs = np.linalg.solve(A, b)
        ys = np.linalg.solve(A.T, H @ xs - h)
        want = np.concatenate([xs, ys])
        assert make_ouyang_qp(n).saddle_point.coords.tobytes() == want.tobytes()

    def test_feasibility_residual_vanishes_at_saddle(self):
        n = 30
        p = make_ouyang_qp(n)
        A, b, _, _ = ouyang_matrices(n)
        xs = p.saddle_point.coords[:n]
        assert np.allclose(A @ xs - b, 0.0, atol=1e-12)
        assert np.allclose(xs, np.arange(1, n + 1), atol=1e-10)

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ContractError):
            make_ouyang_qp(1)
        with pytest.raises(ContractError):
            make_ouyang_qp(2.0)


class TestBilinearAndRandom:
    def test_bilinear_by_hand(self):
        p = make_bilinear(1.0)
        assert p.operator(np.array([1.0, 0.0])).tolist() == [0.0, -1.0]

    def test_bilinear_scale(self):
        p = make_bilinear(2.5)
        assert p.lipschitz == 2.5
        assert p.operator(np.array([1.0, 1.0])).tolist() == [2.5, -2.5]

    def test_random_monotone_positive_form(self):
        p = make_random_monotone(6, R=1.0, seed=4)
        M, _ = affine_parts(p)
        rng = np.random.default_rng(1)
        zs = rng.normal(size=(1000, 12))
        quad = np.einsum("ij,ij->i", zs, zs @ M.T)
        assert np.all(quad >= -1e-10 * np.einsum("ij,ij->i", zs, zs))

    def test_pure_skew_block_form(self):
        from anchored_minimax.problems import _monotone_linear_problem

        rng = np.random.default_rng(5)
        C = rng.normal(size=(4, 4))
        p = _monotone_linear_problem(
            np.zeros((4, 4)), np.zeros((4, 4)), C, np.zeros(8), 1.0, "skew"
        )
        M, v = affine_parts(p)
        assert not v.any()
        assert np.allclose(M, -M.T, atol=1e-15)

    def test_deterministic_in_seed(self):
        a = make_random_monotone(5, seed=9)
        b = make_random_monotone(5, seed=9)
        for x, y in zip(affine_parts(a), affine_parts(b)):
            assert np.array_equal(x, y)

    def test_random_monotone_rejects_bad_size_or_norm(self):
        # in a subprocess with a timeout, so a retry loop that never ends
        # fails the test instead of hanging it
        script = (
            "import math\n"
            "from anchored_minimax import ContractError, make_random_monotone\n"
            "for n, R in [(4, math.inf), (4, 0.0), (4, -1.0), (4, math.nan),\n"
            "             (True, 1.0), (2.5, 1.0), (0, 1.0)]:\n"
            "    try:\n"
            "        make_random_monotone(n, R)\n"
            "        print('built', n, R)\n"
            "    except ContractError:\n"
            "        print('rejected')\n"
        )
        src = os.path.dirname(os.path.dirname(anchored_minimax.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout.split("\n") == ["rejected"] * 7 + [""], proc.stdout + proc.stderr


class TestClosedFormFlows:
    def test_anchored_from_unit_x(self):
        spec = FlowSpec(FlowKind.ANCHORED, z0=(1.0, 0.0), t_end=20.0, steps=10)
        ts = np.array([0.5, 1.0, np.pi, 10.0])
        zs = flow_closed_form(spec, ts)
        assert np.allclose(zs[:, 0], np.sin(ts) / ts, atol=1e-15)
        assert np.allclose(zs[:, 1], (1 - np.cos(ts)) / ts, atol=1e-15)
        assert zs[2, 0] == pytest.approx(0.0, abs=1e-16)  # x(pi) = 0

    def test_anchored_limit_is_anchor(self):
        spec = FlowSpec(FlowKind.ANCHORED, z0=(0.3, -0.7), t_end=1.0, steps=10)
        z = flow_closed_form(spec, 1e-8)
        assert np.allclose(z, [0.3, -0.7], atol=1e-7)

    def test_anchored_decays_like_inverse_time(self):
        spec = FlowSpec(FlowKind.ANCHORED, z0=(1.0, 0.0), t_end=1e6, steps=10)
        for t in (1e3, 1e4, 1e5):
            assert np.linalg.norm(flow_closed_form(spec, t)) <= 2.0 / t

    def test_anchored_rejects_nonpositive_time(self):
        spec = FlowSpec(FlowKind.ANCHORED, z0=(1.0, 0.0), t_end=1.0, steps=10)
        with pytest.raises(ContractError):
            flow_closed_form(spec, 0.0)
        with pytest.raises(ContractError):
            flow_closed_form(spec, np.array([0.5, -1.0]))

    def test_regularized_radius_decay_per_unit_time(self):
        lam = 0.01
        spec = FlowSpec(
            FlowKind.MOREAU_YOSIDA, z0=(1.0, 0.0), t_end=30.0, steps=10, lam=lam
        )
        ts = np.linspace(1.0, 25.0, 25)
        radii = np.linalg.norm(flow_closed_form(spec, ts), axis=1)
        ratios = radii[1:] / radii[:-1]
        assert np.allclose(ratios, np.exp(-lam / (1 + lam * lam)), rtol=1e-12)

    def test_regularized_solves_its_ode(self):
        # derivative of the closed form must equal the flow field
        from anchored_minimax.problems import _flow_rhs

        lam = 0.37
        spec = FlowSpec(
            FlowKind.MOREAU_YOSIDA, z0=(0.4, 1.1), t_end=10.0, steps=10, lam=lam
        )
        rhs = _flow_rhs(spec)
        for t in (0.2, 1.0, 4.5):
            h = 1e-6
            num = (flow_closed_form(spec, t + h) - flow_closed_form(spec, t - h)) / (2 * h)
            assert np.allclose(num, rhs(t, flow_closed_form(spec, t)), atol=1e-9)


class TestIntegrateFlow:
    @pytest.mark.parametrize("kind", [FlowKind.ANCHORED, FlowKind.MOREAU_YOSIDA])
    def test_rk4_tracks_closed_form(self, kind):
        spec = FlowSpec(kind, z0=(1.0, 0.0), t_end=20.0, steps=10_000, lam=0.01)
        traj = integrate_flow(spec)
        closed = flow_closed_form(spec, traj.ts)
        dev = np.linalg.norm(traj.zs - closed, axis=1).max()
        assert dev <= 1e-6

    def test_zero_initial_condition_stays_zero(self):
        spec = FlowSpec(FlowKind.ANCHORED, z0=(0.0, 0.0), t_end=5.0, steps=100)
        traj = integrate_flow(spec)
        assert np.all(traj.zs == 0.0)

    def test_coarse_run_finite(self):
        spec = FlowSpec(FlowKind.ANCHORED, z0=(1.0, 0.0), t_end=20.0, steps=10)
        traj = integrate_flow(spec)
        assert np.all(np.isfinite(traj.zs))
        closed = flow_closed_form(spec, traj.ts)
        assert np.linalg.norm(traj.zs - closed, axis=1).max() > 1e-6

    def test_blowup_suggests_smaller_step(self):
        spec = FlowSpec(
            FlowKind.MOREAU_YOSIDA, z0=(1.0, 0.0), t_end=5000.0, steps=2, lam=0.01
        )
        with pytest.raises(NumericalDivergenceError, match="steps"):
            integrate_flow(spec)

    @pytest.mark.parametrize("kind", list(FlowKind))
    @pytest.mark.parametrize(
        "z0, t_end, steps, lam, t_start",
        [
            ((1.0, 0.0), 20.0, 10_000, 0.01, 1e-2),
            ((1, 0), 20.0, 10_000, 0.01, 1e-2),
            ((3, -2), 7.5, 333, 0.37, 0.25),
            ((0.3, 1.7), 50.0, 1, 1.0, 1e-3),
            ((-0.6, 0.05), 1.0, 7, 0.01, 0.5),
            ((0.0, 0.0), 5.0, 100, 2.0, 1e-2),
        ],
    )
    def test_matches_numpy_reference_bitwise(self, kind, z0, t_end, steps, lam, t_start):
        spec = FlowSpec(kind, z0=z0, t_end=t_end, steps=steps, lam=lam, t_start=t_start)
        traj = integrate_flow(spec)
        assert traj.zs.shape == (steps + 1, 2)
        assert np.array_equal(traj.zs, reference_rk4(spec))

    @pytest.mark.parametrize("kind", list(FlowKind))
    @pytest.mark.parametrize("t_end, steps", [(5000.0, 2), (600.0, 20), (400.0, 100)])
    def test_blowup_at_reference_step(self, kind, t_end, steps):
        spec = FlowSpec(kind, z0=(1.0, 0.0), t_end=t_end, steps=steps, lam=0.01)
        with pytest.raises(NumericalDivergenceError) as expected:
            reference_rk4(spec)
        with pytest.raises(NumericalDivergenceError) as got:
            integrate_flow(spec)
        assert str(got.value) == str(expected.value)

    def test_spec_validation(self):
        with pytest.raises(ContractError):
            FlowSpec(FlowKind.ANCHORED, z0=(1.0, 0.0), t_end=0.005, steps=10)
        with pytest.raises(ContractError):
            FlowSpec(FlowKind.MOREAU_YOSIDA, z0=(1.0, 0.0), t_end=1.0, steps=0)
        with pytest.raises(ContractError):
            FlowSpec(FlowKind.MOREAU_YOSIDA, z0=(1.0, 0.0), t_end=1.0, steps=5, lam=0.0)

    @pytest.mark.parametrize("kind", list(FlowKind))
    @pytest.mark.parametrize(
        "field, value",
        [("t_end", np.inf), ("steps", True), ("steps", 2.5), ("z0", (np.inf, 0.0)),
         ("z0", (0.0, np.nan)), ("lam", np.inf)],
    )
    def test_spec_rejects_non_finite_and_non_integral(self, kind, field, value):
        args = dict(z0=(1.0, 0.0), t_end=1.0, steps=5, lam=0.01)
        with pytest.raises(ContractError):
            FlowSpec(kind, **{**args, field: value})


@pytest.mark.parametrize(
    "name",
    ["no-such-problem",
     "random-monotone:8",  # seed segment missing
     "hard:", "hard:x", "hard:6.5", "hard:6:1.3", "hard:6:1:1:9:1",
     "hard:6:nan:1", "hard:6:1:inf", "hard:6:1:1:7", "hard:0",
     # int and float take these, but a typo must not load as another problem
     "hard:1_0", "hard: 6", "random-monotone: 8:1", "hard:\u0666"],
)
def test_unknown_preset_rejected(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a Warning fails the test
        with pytest.raises(ContractError):
            load_preset(name)


@pytest.mark.parametrize("preset", sorted(PRESET_STEP_SIZES))
def test_preset_step_sizes_meet_rate_hypotheses(preset):
    # a preset step outside the theorem would drop the CLI's bound column
    problem, _ = load_preset(preset)
    R = problem.lipschitz
    steps = PRESET_STEP_SIZES[preset]
    assert check_eag_c_stepsize(steps["eag-c"] * R)
    assert 0 < steps["eag-v"] * R < 0.75
