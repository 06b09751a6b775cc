import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import cheb2poly

from anchored_minimax import (
    AlgoConfig,
    AlgoKind,
    CertificateError,
    ContractError,
    Point,
    build_hard_instance,
    chebyshev_nodes,
    chebyshev_solver,
    dual_weights,
    krylov_min_residual,
    load_preset,
    minimax_poly,
    run,
    sandwich,
    verify_lower_bound,
)
from anchored_minimax import lowerbound
from anchored_minimax.lowerbound import (
    LowerBoundReport,
    StepCheck,
    _kkt_residual_cheb,
    _krylov_basis,
)


def saddle_bytes(problem):
    """The saddle point and the operator at a fixed point, as bytes."""
    z = np.random.default_rng(0).normal(size=problem.dim)
    return problem.saddle_point.coords.tobytes() + problem.operator(z).tobytes()


def reference_report(instance, trace, k=None, span_tol=1e-8):
    """Reference for verify_lower_bound: a basis built per call and one
    projection per x- or y-block of each iterate."""
    k = instance.k if k is None else k
    zs = instance.saddle.saddle_point.coords
    z0 = trace.z0
    Dz2 = float(np.sum((z0 - zs) ** 2))
    floor = instance.R**2 * Dz2 / (2 * (k // 2) + 1) ** 2
    n = instance.n
    depth_max = min(int(k), 2 * len(instance.lambdas))
    Q = _krylov_basis(lambda v: instance.diag * v, instance.b, depth_max)

    def in_span(block, depth):
        nrm = float(np.linalg.norm(block))
        if nrm == 0.0:
            return True
        Qd = Q[:, :depth]
        r = block - Qd @ (Qd.T @ block)
        return float(np.linalg.norm(r)) <= span_tol * nrm

    steps, all_in_span, verdict = [], True, True
    for idx, j in enumerate(trace.stored_ks.tolist()):
        e = int(trace.oracle_calls[j])
        if e > k:
            continue
        z = trace.iterates[idx]
        gsq = float(trace.grad_sq[j])
        ok_span = in_span(z[:n] - z0[:n], e) and in_span(z[n:] - z0[n:], e)
        all_in_span &= ok_span
        ok = gsq >= floor * (1 - 1e-9)
        verdict &= ok
        steps.append(StepCheck(j, gsq, ok_span))
    if not all_in_span:
        return LowerBoundReport(
            steps, False, False, floor,
            "trace left the reachable Krylov span; the bound does not apply",
        )
    return LowerBoundReport(steps, True, verdict, floor)


class TestMinimaxPoly:
    def test_degree_one_is_constant(self):
        p = minimax_poly(1, R=2.0)
        assert p.m == 0
        grid = np.linspace(-2, 2, 101)
        assert np.array_equal(p(grid), np.ones_like(grid))
        assert p.m_star == 2.0

    def test_degree_two_closed_form(self):
        p = minimax_poly(2, R=1.0)
        grid = np.linspace(-1, 1, 100_001)
        assert np.allclose(p(grid), 1.0 - 4.0 * grid**2 / 3.0, rtol=0, atol=1e-15)
        assert p.m_star == pytest.approx(1.0 / 3.0)
        assert np.abs(grid * p(grid)).max() == pytest.approx(1 / 3, abs=1e-10)

    def test_odd_equals_preceding_even(self):
        p2, p3 = minimax_poly(2), minimax_poly(3)
        grid = np.linspace(-1, 1, 1001)
        assert np.array_equal(p2(grid), p3(grid))
        assert p2.m_star == p3.m_star

    def test_scales_with_R(self):
        # p_k for radius R is p_k(t/R) of the unit problem
        p1, p2 = minimax_poly(4, 1.0), minimax_poly(4, 2.0)
        t = np.linspace(-2, 2, 11)
        assert np.allclose(p2(t), p1(t / 2.0), atol=1e-14)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_value_on_dense_grid(self, k):
        p = minimax_poly(k, 1.0)
        grid = np.linspace(-1, 1, 100_001)
        assert abs(np.abs(grid * p(grid)).max() - p.m_star) <= 1e-6

    @pytest.mark.parametrize("k", range(1, 13))
    def test_equioscillation_at_nodes(self, k):
        p = minimax_poly(k, 1.0)
        lam = chebyshev_nodes(k, 1.0)
        vals = lam * p(lam)
        assert np.allclose(np.abs(vals), p.m_star, atol=1e-10)
        assert np.all(np.sign(vals[:-1]) == -np.sign(vals[1:]))

    def test_unit_constant_term(self):
        for k in range(1, 13):
            assert minimax_poly(k)(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_even_reduction_never_increases_max(self):
        # replacing p by its even part cannot increase max |t p(t)| on [-R, R]
        rng = np.random.default_rng(7)
        grid = np.linspace(-1, 1, 2001)
        for _ in range(1000):
            deg = int(rng.integers(1, 9))
            c = rng.normal(size=deg + 1)
            c[0] = 1.0
            vals = grid * np.polyval(c[::-1], grid)
            even = c.copy()
            even[1::2] = 0.0
            vals_even = grid * np.polyval(even[::-1], grid)
            assert np.abs(vals_even).max() <= np.abs(vals).max() + 1e-12

    @pytest.mark.parametrize(
        "k, R", [(True, 1.0), (2.5, 1.0), (0, 1.0), (3, math.inf), (3, math.nan), (3, 0.0),
                 (3, 1e200), (3, 1e-170)]
    )
    def test_rejects_bad_depth_or_radius(self, k, R):
        # R^2 overflows at 1e200 and 2/R^2 at 1e-170
        with pytest.raises(ContractError):
            minimax_poly(k, R)


class TestDualWeights:
    def test_two_point_symmetric_case(self):
        assert np.allclose(dual_weights(1), [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("k", [True, 2.5, 0])
    def test_rejects_a_depth_that_is_not_a_count(self, k):
        with pytest.raises(ContractError, match="k must be an integer >= 1"):
            dual_weights(k)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_simplex_and_symmetry(self, k):
        mu = dual_weights(k)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(mu > 0)
        assert np.allclose(mu, mu[::-1], atol=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_kkt_residual_small(self, k):
        assert _kkt_residual_cheb(dual_weights(k), k) < 1e-15

    @pytest.mark.parametrize("k", [2, 24, 64, 256, 1000])
    def test_kkt_check_separates_true_from_perturbed(self, k):
        mu = dual_weights(k)
        assert _kkt_residual_cheb(mu, k) < 1e-14
        rng = np.random.default_rng(k)
        bad = mu * (1 + 1e-6 * rng.standard_normal(len(mu)))
        bad /= bad.sum()  # stays on the simplex: only stationarity can catch it
        assert _kkt_residual_cheb(bad, k) > 1e-10

    def test_kkt_check_rejects_nan(self):
        mu = dual_weights(6)
        assert _kkt_residual_cheb(np.full_like(mu, np.nan), 6) == np.inf
        mu[3] = np.nan
        assert _kkt_residual_cheb(mu, 6) == np.inf

    def test_every_depth_builds(self):
        for k in [*range(1, 257), 512, 1000]:
            mu = dual_weights(k)
            assert np.all(mu > 0) and mu.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_oracle_equality_is_the_acceptance_test(self, k):
        inst = build_hard_instance(k)
        target = 1.0 / (2 * inst.m + 1) ** 2
        val = krylov_min_residual(inst.A, inst.b, k)
        assert val == pytest.approx(target, rel=1e-8)

    def test_closed_form_matches_stationarity_solve(self):
        # the least-squares solve of the monomial stationarity system is
        # well conditioned at small depth and must give the same weights
        for k in range(2, 11):
            m = k // 2
            t = chebyshev_nodes(k)
            pv = minimax_poly(k)(t)
            rows = [t ** (2 + i) * pv for i in range(1, 2 * m + 1)] + [np.ones_like(t)]
            rhs = np.zeros(2 * m + 1)
            rhs[-1] = 1.0
            sol, *_ = np.linalg.lstsq(np.array(rows), rhs, rcond=None)
            assert np.allclose(dual_weights(k), sol, rtol=1e-10, atol=0)


class TestHardInstance:
    def test_nodes_for_depth_two(self):
        inst = build_hard_instance(2, R=1.0)
        assert np.allclose(inst.lambdas, [-1.0, -0.5, 0.5, 1.0], atol=1e-15)

    def test_saddle_point_and_distance(self):
        inst = build_hard_instance(4, R=1.0, D=1.0)
        zs = inst.saddle.saddle_point.coords
        n = inst.n
        assert np.array_equal(zs[:n], zs[n:])
        # x* is the minimum-norm solution of A x = b: zero off the spectrum
        assert np.array_equal(inst.diag * zs[:n], inst.b)
        assert np.all(zs[2 * inst.m + 2 : n] == 0.0)
        assert float(zs @ zs) == pytest.approx(2.0, rel=1e-12)

    def test_embedded_operator_is_R_lipschitz_skew(self):
        inst = build_hard_instance(5, R=1.3)
        n = inst.n
        A = inst.A
        B = np.block([[np.zeros((n, n)), A], [-A, np.zeros((n, n))]])
        # operator linear part matches B exactly
        rng = np.random.default_rng(1)
        for _ in range(10):
            z1 = rng.normal(size=2 * n)
            z2 = rng.normal(size=2 * n)
            dg = inst.saddle.operator(z1) - inst.saddle.operator(z2)
            assert np.allclose(dg, B @ (z1 - z2), atol=1e-12)
        assert np.allclose(B, -B.T)
        sv = np.linalg.svd(B, compute_uv=False)
        nonzero = np.sort(sv[sv > 1e-12])
        expected = np.sort(np.abs(np.concatenate([inst.lambdas, inst.lambdas])))
        assert np.allclose(nonzero, expected, atol=1e-12)
        assert sv.max() == pytest.approx(1.3, rel=1e-12)

    @pytest.mark.parametrize("k, n", [(6, 8), (28, 30), (256, 260)])
    def test_operator_matches_blockwise_reference_bitwise(self, k, n):
        # the fused operator against (A y - b, b - A x) built block by block,
        # signed zeros and non-finite entries included
        inst = build_hard_instance(k, R=1.3, D=0.7, n=n)
        a, b = inst.diag, inst.b
        rng = np.random.default_rng(n)
        for _ in range(200):
            z = rng.normal(size=2 * n)
            z[rng.random(2 * n) < 0.2] = 0.0
            z[rng.random(2 * n) < 0.1] = -0.0
            odd = rng.random(2 * n) < 0.1
            z[odd] = rng.choice([np.inf, -np.inf, np.nan, 5e-324, 1e300], size=int(odd.sum()))
            with np.errstate(invalid="ignore"):  # 0 * inf on the null rows
                want = np.concatenate([a * z[n:] - b, b - a * z[:n]])
                assert inst.saddle.operator(z).tobytes() == want.tobytes()

    @pytest.mark.parametrize("length", [-1, 1])
    def test_operator_rejects_a_wrong_length(self, length):
        inst = build_hard_instance(6, n=9)
        with pytest.raises(ValueError):
            inst.saddle.operator(np.zeros(2 * inst.n + length))

    def test_norms(self):
        inst = build_hard_instance(6, R=2.0, D=3.0)
        x_star = inst.saddle.saddle_point.x
        assert np.linalg.norm(x_star) == pytest.approx(3.0, rel=1e-12)
        assert np.array_equal(x_star[: len(inst.lambdas)], 3.0 * np.sqrt(dual_weights(6)))
        assert np.abs(inst.lambdas).max() == pytest.approx(2.0, rel=1e-12)
        # b in range(A): zero wherever the spectrum vanishes
        assert np.all(inst.b[2 * inst.m + 2:] == 0.0)

    def test_dimension_domain_error(self):
        with pytest.raises(ContractError):
            build_hard_instance(4, n=5)

    @pytest.mark.parametrize(
        "args, kwargs",
        [((True,), {}), ((2.5,), {}), ((4,), {"n": 6.0}), ((4,), {"n": True}),
         ((4,), {"R": 1e200, "D": 1e200}), ((4,), {"R": 1e200, "D": 1e-100}),
         ((4,), {"R": 1e-200}), ((4,), {"R": 1e-160, "D": 1e160}),
         ((1,), {"R": 1e77, "D": 1e77}), ((4,), {"R": 10**400}), ((4,), {"D": 10**400})],
        ids=["bool-k", "float-k", "float-n", "bool-n", "R-times-D-overflows",
             "R-squared-overflows", "two-over-R-squared-overflows", "D-squared-overflows",
             "floor-overflows", "R-beyond-float", "D-beyond-float"],
    )
    def test_rejects_bad_sizes_before_building(self, args, kwargs):
        with pytest.raises(ContractError):
            build_hard_instance(*args, **kwargs)

    def test_no_overflow_error_where_R_squared_overflows(self):
        # R D = 1e100 is finite, but R^2 is not: the instance used to build,
        # and then verify_lower_bound and chebyshev_solver raised OverflowError
        with pytest.raises(ContractError, match=re.escape("R^2 and 2/R^2 finite")):
            build_hard_instance(4, R=1e200, D=1e-100)
        with pytest.raises(ContractError, match=re.escape("R^2 and 2/R^2 finite")):
            chebyshev_solver(np.eye(6), np.ones(6), 4, 1e200)

    def test_instance_that_builds_has_a_finite_floor(self):
        # the largest R and D the size check lets through
        inst = build_hard_instance(4, R=1.3e154, D=2.4e-1)
        assert 0 < inst.floor < math.inf
        inst = build_hard_instance(4, R=1.1e-154, D=1e153)
        assert 0 < inst.floor < math.inf

    @pytest.mark.parametrize(
        "spec, args",
        [("hard:6", (6,)), ("hard:6:1.3:0.7:9", (6, 1.3, 0.7, 9)),
         ("hard:6:1.3:0.7", (6, 1.3, 0.7)), ("hard:7:1.5:0.5:12", (7, 1.5, 0.5, 12)),
         ("hard:256:0.7:1.9:260", (256, 0.7, 1.9, 260))],
    )
    def test_preset_spec_names_the_built_instance(self, spec, args):
        problem, z0 = load_preset(spec)
        inst = build_hard_instance(*args)
        assert saddle_bytes(problem) == saddle_bytes(inst.saddle)
        assert (z0.split, z0.coords.tolist()) == (inst.n, [0.0] * (2 * inst.n))

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 300),
        R=st.floats(1e-3, 1e3),
        D=st.floats(0.0, 1e3),
        extra=st.integers(0, 5),
    )
    def test_preset_spec_roundtrip_random(self, k, R, D, extra):
        # repr round-trips a float, so the spec rebuilds the instance bit for bit
        inst = build_hard_instance(k, R, D, n=k + 2 + extra)
        problem, _ = load_preset(f"hard:{k}:{R!r}:{D!r}:{inst.n}")
        assert saddle_bytes(problem) == saddle_bytes(inst.saddle)

    @pytest.mark.parametrize(
        "spec, needle",
        [("hard:2:1:1:3", "n >= k + 2"), ("hard:2:0:1", "R > 0"),
         ("hard:2:1:inf", "D >= 0"), ("hard:two", "bad preset 'hard:two'")],
        ids=["n", "R", "D", "k"],
    )
    def test_preset_spec_rejects_bad_fields(self, spec, needle):
        # range checks are build_hard_instance's, so the spec names its field
        with pytest.raises(ContractError, match=re.escape(needle)):
            load_preset(spec)


@pytest.mark.parametrize("k", [*range(1, 65), 128, 256, 512, 1000])
def test_three_way_sandwich_at_depth(k):
    rng = np.random.default_rng(k)
    R, D = rng.uniform(0.5, 2.0, size=2)
    n = k + 2 + int(rng.integers(0, 5))
    inst = build_hard_instance(k, R, D, n)
    # the dense reference: n x n A, a basis of its own, dense products
    target = R**2 * D**2 / (2 * (k // 2) + 1) ** 2
    kry = krylov_min_residual(inst.A, inst.b, k)
    z = chebyshev_solver(inst.A, inst.b, k, R)
    cheb = float(np.sum((inst.A @ z - inst.b) ** 2))
    got_target, got_kry, got_cheb = sandwich(inst)
    assert (got_target, got_cheb) == (target, cheb)
    # the instance's closed-form basis is not CGS2's bit for bit
    assert got_kry == pytest.approx(kry, rel=1e-13)
    assert kry == pytest.approx(target, rel=1e-8)
    assert cheb == pytest.approx(target, rel=1e-8)


@pytest.mark.parametrize("k", [1000, 2000])
def test_krylov_leg_sits_on_the_floor_at_deep_k(k):
    # the closed-form basis takes its cosines at reduced arguments; without
    # the reduction the leg sits about 6e-14 off the floor here
    target, kry, _ = sandwich(build_hard_instance(k))
    assert kry == pytest.approx(target, rel=2e-14)


@pytest.mark.parametrize(
    "R, D, value",
    [(1.0, 0.0, "0.0"), (1.0, 1e-200, "0.0")],
    ids=["zero-D", "underflow-D"],
)
def test_sandwich_rejects_a_closed_form_out_of_range(R, D, value):
    inst = build_hard_instance(4, R, D)
    with pytest.raises(ContractError, match=re.escape(f"(2m+1)^2 is {value} for R=")):
        sandwich(inst)


class TestKrylovOracle:
    def test_zero_rhs(self):
        assert krylov_min_residual(np.eye(4), np.zeros(4), 2) == 0.0

    def test_identity_solves_in_one(self):
        b = np.array([1.0, -2.0, 0.5])
        assert krylov_min_residual(np.eye(3), b, 1) == pytest.approx(0.0, abs=1e-28)

    def test_degenerate_basis_keeps_span(self):
        # b spans an invariant 1-d subspace; deeper requests are harmless
        A = np.diag([2.0, 3.0, 5.0])
        b = np.array([1.0, 0.0, 0.0])
        assert krylov_min_residual(A, b, 3) == pytest.approx(0.0, abs=1e-28)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_closed_form_on_hard_instance(self, k):
        inst = build_hard_instance(k)
        target = 1.0 / (2 * (k // 2) + 1) ** 2
        assert krylov_min_residual(inst.A, inst.b, k) == pytest.approx(
            target, rel=1e-8
        )

    @pytest.mark.parametrize("k", [0, True, 2.5])
    def test_rejects_bad_depth(self, k):
        with pytest.raises(ContractError):
            krylov_min_residual(np.eye(2), np.ones(2), k)

    def test_basis_stays_orthonormal_on_ill_conditioned_spectrum(self):
        # a single Gram-Schmidt pass drifts to ~1e-7 here; the second pass
        # keeps the columns orthonormal to working precision
        d = np.logspace(0, -12, 100)
        b = np.random.default_rng(0).standard_normal(100)
        Q = _krylov_basis(lambda v: d * v, b, 60)
        assert Q.shape == (100, 60)
        assert np.abs(Q.T @ Q - np.eye(60)).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 5, 16, 33, 64, 128, 256])
@pytest.mark.parametrize("extra", [0, 9])
def test_cached_basis_prefix_is_a_shallow_build(k, extra):
    # the closed-form basis agrees with Gram-Schmidt on the instance's own
    # arrays at every depth (4.4e-13 at k = 1000, measured; 3.7e-14 at 256)
    rng = np.random.default_rng(1000 * k + extra)
    R, D = (float(2.0 ** rng.uniform(-1, 1)) for _ in range(2))
    inst = build_hard_instance(k, R, D, n=k + 2 + extra)
    Q = inst.krylov_basis
    assert Q is inst.krylov_basis
    assert Q.shape == (inst.n, len(inst.lambdas))
    assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() < 1e-14
    for d in sorted({1, 2, max(1, k // 2), k, Q.shape[1], inst.n}):
        P = _krylov_basis(lambda v: inst.diag * v, inst.b, d)
        assert P.shape[1] == min(d, Q.shape[1])
        assert np.abs(P - Q[:, : P.shape[1]]).max() < 1e-13
    with pytest.raises(ValueError):
        Q[0, 0] = 0.0


def test_closed_form_basis_matches_gram_schmidt_at_depth_1000():
    inst = build_hard_instance(1000, n=1005)
    P = _krylov_basis(lambda v: inst.diag * v, inst.b, inst.n)
    assert P.shape == inst.krylov_basis.shape
    assert np.abs(P - inst.krylov_basis).max() < 1e-12


@pytest.mark.parametrize("k", [2, 6, 24, 64, 1000])
def test_basis_of_a_moved_node_fails_its_check(k):
    # the closed form holds only for the canonical nodes; one node moved by
    # 1e-3 leaves a residual of 4.5e-5 (k = 1000) to 4.8e-4 (k = 6)
    inst = build_hard_instance(k)
    diag = inst.diag.copy()
    diag[1] += 1e-3
    moved = replace(inst, diag=diag, b=diag * inst.saddle.saddle_point.x)
    with pytest.raises(CertificateError, match="does not span the Krylov space"):
        moved.krylov_basis


def test_zero_rhs_has_an_empty_basis():
    inst = build_hard_instance(6, D=0.0)
    assert inst.krylov_basis.shape == (inst.n, 0)


class TestChebyshevSolver:
    @pytest.mark.parametrize(
        "k, R", [(4, math.inf), (4, math.nan), (4, 0.0), (True, 1.0), (2.5, 1.0), (0, 1.0),
                 (4, 1e200), (4, 1e-170)]
    )
    def test_rejects_bad_depth_or_radius(self, k, R):
        # with R = inf every step's 2/R^2 is 0 and the iterate stays zero;
        # R^2 overflows at 1e200 and 2/R^2 at 1e-170
        with pytest.raises(ContractError):
            chebyshev_solver(np.eye(2), np.ones(2), k, R)

    def test_depth_one_returns_zero(self):
        B = np.diag([0.3, -0.8])
        zstar = np.array([1.0, 1.0])
        v = B @ zstar
        z1 = chebyshev_solver(B, v, 1, R=1.0)
        assert np.array_equal(z1, np.zeros(2))
        assert np.sum((B @ z1 - v) ** 2) <= 1.0 * float(zstar @ zstar)

    def test_skew_hard_instance_depth_four(self):
        inst = build_hard_instance(4)
        n = inst.n
        A = inst.A
        B = np.block([[np.zeros((n, n)), A], [-A, np.zeros((n, n))]])
        zs = inst.saddle.saddle_point.coords
        v = B @ zs
        z = chebyshev_solver(B, v, 4, R=1.0)
        resid = float(np.sum((B @ z - v) ** 2))
        Dz2 = float(zs @ zs)
        assert resid <= Dz2 / 25 * (1 + 1e-12)

    def test_monte_carlo_bound_over_random_matrices(self):
        rng = np.random.default_rng(123)
        R = 1.4  # exercise the R-scaling of the polynomial coefficients too
        for seed in range(20):
            n = int(rng.integers(3, 12))
            B = rng.normal(size=(n, n))
            B *= R / np.linalg.svd(B, compute_uv=False).max()
            zstar = rng.normal(size=n)
            D = np.linalg.norm(zstar)
            v = B @ zstar
            for k in range(1, 11):
                z = chebyshev_solver(B, v, k, R)
                resid = float(np.sum((B @ z - v) ** 2))
                bound = R**2 * D**2 / (2 * (k // 2) + 1) ** 2
                assert resid <= bound * (1 + 1e-10)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_agrees_with_monomial_horner(self, k):
        # the expanded-coefficient solver is accurate at small depth
        rng = np.random.default_rng(k)
        R = 1.3
        B = rng.normal(size=(9, 9))
        B *= R / np.linalg.svd(B, compute_uv=False).max()
        v = rng.normal(size=9)
        # monomial coefficients of p(t) = ((-1)^m/(2m+1)) (R/t) T_{2m+1}(t/R),
        # taken from numpy's Chebyshev-to-power conversion
        m = k // 2
        t_odd = cheb2poly([0.0] * (2 * m + 1) + [1.0])
        i = np.arange(1, 2 * m + 2, 2)
        p_even = (-1) ** m / (2 * m + 1) * t_odd[i] * R ** (1.0 - i)
        q = -p_even[1:]  # p(sqrt(s)) = 1 - s q(s)
        w = B.T @ v
        ref = np.zeros(9)
        for c in q[::-1]:
            ref = B.T @ (B @ ref) + c * w
        z = chebyshev_solver(B, v, k, R)
        assert np.allclose(z, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("k", range(1, 11))
    def test_attains_floor_on_symmetric_instance(self, k):
        inst = build_hard_instance(k)
        z = chebyshev_solver(inst.A, inst.b, k, 1.0)
        resid = float(np.sum((inst.A @ z - inst.b) ** 2))
        assert resid == pytest.approx(1.0 / (2 * (k // 2) + 1) ** 2, rel=1e-8)


class TestVerifyLowerBound:
    def run_on_instance(self, inst, kind, iters, alpha=0.1):
        z0 = Point(np.zeros(2 * inst.n), inst.n)
        return run(inst.saddle, AlgoConfig(kind, alpha, iters), z0, dense=True)

    def test_eag_v_respects_floor(self):
        inst = build_hard_instance(6, n=10)
        trace = self.run_on_instance(inst, AlgoKind.EAG_V, 10)
        report = verify_lower_bound(inst, trace)
        assert report.applicable and report.verdict
        # iterates 0..3 consume <= 6 evaluations
        assert [s.k_iter for s in report.steps] == [0, 1, 2, 3]
        assert all(s.in_span for s in report.steps)

    @pytest.mark.parametrize(
        "kind",
        [
            AlgoKind.EAG_C,
            AlgoKind.EG,
            AlgoKind.POPOV,
            AlgoKind.SIMGD_A,
            AlgoKind.ALT_GDA,
            AlgoKind.SIM_GD,
        ],
    )
    def test_all_shipped_algorithms_respect_floor(self, kind):
        inst = build_hard_instance(6, n=10)
        trace = self.run_on_instance(inst, kind, 12)
        report = verify_lower_bound(inst, trace)
        assert report.applicable and report.verdict

    def test_start_at_saddle_is_trivial(self):
        inst = build_hard_instance(4)
        zs = inst.saddle.saddle_point
        trace = run(inst.saddle, AlgoConfig(AlgoKind.EG, 0.1, 4), zs, dense=True)
        report = verify_lower_bound(inst, trace)
        assert report.applicable and report.verdict
        assert report.floor == 0.0

    @pytest.mark.parametrize("k", [4, 24, 64])
    def test_non_span_trace_flagged_inapplicable(self, k):
        inst = build_hard_instance(k)
        n = inst.n
        trace = self.run_on_instance(inst, AlgoKind.EG, k // 2)
        assert verify_lower_bound(inst, trace).applicable
        # EG spends two calls per step: the last iterate uses the whole budget
        rogue = trace.iterates[-1].copy()
        rogue[2 * n - 1] += 1.0  # outside the reachable span
        doctored = replace(trace, iterates=[*trace.iterates[:-1], rogue])
        report = verify_lower_bound(inst, doctored)
        assert not report.applicable

    def test_trace_without_iterates_raises(self):
        inst = build_hard_instance(6, n=10)
        z0 = Point(np.zeros(2 * inst.n), inst.n)
        trace = run(inst.saddle, AlgoConfig(AlgoKind.EAG_V, 0.1, 10), z0, dense=True,
                    keep=lambda z: None)
        with pytest.raises(ContractError, match="this trace kept no iterates"):
            verify_lower_bound(inst, trace)

    def test_iterate_ahead_of_its_budget_flagged_inapplicable(self):
        # the deepest iterate lies in the depth-k span but not in the span
        # reachable with the two calls of the first EG step
        inst = build_hard_instance(24)
        trace = self.run_on_instance(inst, AlgoKind.EG, 12)
        early = [trace.iterates[0], trace.iterates[-1], *trace.iterates[2:]]
        report = verify_lower_bound(inst, replace(trace, iterates=early))
        assert not report.applicable

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 64), extra=st.integers(0, 8))
    def test_every_algorithm_respects_floor_at_random_depth(self, k, extra):
        inst = build_hard_instance(k, n=k + 2 + extra)
        for kind in AlgoKind:
            trace = self.run_on_instance(inst, kind, k + 1)
            report = verify_lower_bound(inst, trace)
            assert report.applicable and report.verdict, (kind, report.message)
            assert report.steps and all(s.in_span for s in report.steps)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 64), extra=st.integers(0, 8), data=st.data())
    def test_blocked_span_check_equals_per_iterate_reference(self, k, extra, data):
        inst = build_hard_instance(k, n=k + 2 + extra)
        n = inst.n
        for kind in AlgoKind:
            trace = self.run_on_instance(inst, kind, k + 1)
            assert verify_lower_bound(inst, trace) == reference_report(inst, trace), kind
            last = len(trace.iterates) - 1
            i = data.draw(st.integers(0, last), label="pushed iterate")
            coord = data.draw(st.integers(0, 2 * n - 1), label="coordinate")
            rogue = trace.iterates[i].copy()
            rogue[coord] += data.draw(st.sampled_from([1e-3, 1.0]), label="push")
            pushed = replace(trace, iterates=[*trace.iterates[:i], rogue, *trace.iterates[i + 1:]])
            assert verify_lower_bound(inst, pushed) == reference_report(inst, pushed), kind
            j = data.draw(st.integers(0, last), label="early iterate")
            ahead = replace(trace, iterates=[*trace.iterates[:j], trace.iterates[-1],
                                             *trace.iterates[j + 1:]])
            assert verify_lower_bound(inst, ahead) == reference_report(inst, ahead), kind

    def test_span_check_crosses_a_block_boundary(self):
        # popov spends one call per step: 65 checked iterates, three blocks
        inst = build_hard_instance(64)
        trace = self.run_on_instance(inst, AlgoKind.POPOV, 80)
        report = verify_lower_bound(inst, trace)
        assert report == reference_report(inst, trace)
        assert len(report.steps) == 65 and report.applicable and report.verdict
        for i in (31, 32, 40, 64):
            rogue = trace.iterates[i].copy()
            rogue[2 * inst.n - 1] += 1.0
            iterates = [*trace.iterates[:i], rogue, *trace.iterates[i + 1:]]
            doctored = replace(trace, iterates=iterates)
            report = verify_lower_bound(inst, doctored)
            assert report == reference_report(inst, doctored)
            assert not report.applicable
            assert [s.k_iter for s in report.steps if not s.in_span] == [i]

    def test_checks_on_one_instance_build_one_basis(self, monkeypatch):
        builds = []
        closed_form = lowerbound._dct1_basis

        def counting(n, m):
            builds.append((n, m))
            return closed_form(n, m)

        monkeypatch.setattr(lowerbound, "_dct1_basis", counting)
        monkeypatch.setattr(lowerbound, "_krylov_basis", lambda *a: pytest.fail("CGS2 build"))
        inst = build_hard_instance(24, n=30)
        for kind in AlgoKind:
            report = verify_lower_bound(inst, self.run_on_instance(inst, kind, 25))
            assert report.applicable and report.verdict
        assert builds == [(inst.n, inst.m)]

    @pytest.mark.parametrize("kind", list(AlgoKind))
    def test_report_equals_gram_schmidt_reference_at_depth_256(self, kind):
        inst = build_hard_instance(256, n=261)
        trace = self.run_on_instance(inst, kind, 257)
        report = verify_lower_bound(inst, trace)
        assert report == reference_report(inst, trace)
        assert report.applicable and report.verdict

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, "3"])
    def test_rejects_bad_depth(self, k):
        inst = build_hard_instance(6, n=10)
        trace = self.run_on_instance(inst, AlgoKind.EG, 4)
        with pytest.raises(ContractError, match="k must be an integer >= 1"):
            verify_lower_bound(inst, trace, k=k)

    def test_numpy_integer_depth_accepted(self):
        inst = build_hard_instance(6, n=10)
        trace = self.run_on_instance(inst, AlgoKind.EG, 4)
        assert verify_lower_bound(inst, trace, k=np.int64(6)) == verify_lower_bound(inst, trace)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), "1e-8", None])
    def test_rejects_bad_span_tol(self, tol):
        inst = build_hard_instance(6, n=10)
        trace = self.run_on_instance(inst, AlgoKind.EG, 4)
        with pytest.raises(ContractError, match="span_tol must be finite and > 0"):
            verify_lower_bound(inst, trace, span_tol=tol)

    def test_rejects_trace_of_another_dimension(self):
        trace = self.run_on_instance(build_hard_instance(6, n=10), AlgoKind.EG, 4)
        with pytest.raises(ContractError, match="trace z0 has shape"):
            verify_lower_bound(build_hard_instance(6, n=11), trace)

    def test_floor_is_tight_at_design_depth(self):
        # the exact Krylov optimum meets the floor with equality, so no
        # span-respecting method can beat it within budget
        for k in (2, 5, 8):
            inst = build_hard_instance(k)
            opt = krylov_min_residual(inst.A, inst.b, k)
            assert 2 * opt == pytest.approx(inst.floor, rel=1e-8)
