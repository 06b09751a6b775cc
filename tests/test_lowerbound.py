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
    ContractError,
    Point,
    build_hard_instance,
    chebyshev_eval,
    chebyshev_nodes,
    chebyshev_solver,
    dual_weights,
    krylov_min_residual,
    load_instance,
    minimax_poly,
    run,
    save_instance,
    verify_lower_bound,
)
from anchored_minimax.lowerbound import _kkt_residual_cheb, _krylov_basis


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev_eval(0, 0.3) == 1.0
        assert chebyshev_eval(1, 0.3) == 0.3
        assert chebyshev_eval(2, 0.5) == pytest.approx(-0.5)

    def test_cubic_coefficients(self):
        # T_3 = 4t^3 - 3t: the odd leading pattern gives linear coefficient -3
        t = np.linspace(-1, 1, 7)
        assert np.allclose(chebyshev_eval(3, t), 4 * t**3 - 3 * t, atol=1e-14)

    def test_trigonometric_identity(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(0, np.pi, size=100):
            assert chebyshev_eval(5, np.cos(theta)) == pytest.approx(
                np.cos(5 * theta), abs=1e-12
            )


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
        lam = p.nodes()
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


class TestDualWeights:
    def test_two_point_symmetric_case(self):
        assert np.allclose(dual_weights(1), [0.5, 0.5], atol=1e-14)

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
        assert np.allclose(zs[:n], inst.x_star)
        assert np.allclose(zs[n:], inst.x_star)
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

    def test_norms(self):
        inst = build_hard_instance(6, R=2.0, D=3.0)
        assert np.linalg.norm(inst.x_star) == pytest.approx(3.0, rel=1e-12)
        assert np.abs(inst.lambdas).max() == pytest.approx(2.0, rel=1e-12)
        # b in range(A): zero wherever the spectrum vanishes
        assert np.all(inst.b[2 * inst.m + 2:] == 0.0)

    def test_dimension_domain_error(self):
        with pytest.raises(ContractError):
            build_hard_instance(4, n=5)

    def test_roundtrip_export(self, tmp_path):
        inst = build_hard_instance(7, R=1.5, D=0.5, n=12)
        path = tmp_path / "instance.txt"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.lambdas, inst.lambdas)
        assert np.array_equal(loaded.mu, inst.mu)
        assert np.array_equal(loaded.b, inst.b)
        path2 = tmp_path / "again.txt"
        save_instance(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 300),
        R=st.floats(1e-3, 1e3),
        D=st.floats(0.0, 1e3),
        extra=st.integers(0, 5),
    )
    def test_roundtrip_export_random(self, tmp_path_factory, k, R, D, extra):
        inst = build_hard_instance(k, R, D, n=k + 2 + extra)
        path = tmp_path_factory.mktemp("roundtrip") / "instance.txt"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert (loaded.k, loaded.n, loaded.R, loaded.D) == (inst.k, inst.n, R, D)
        for name in ("diag", "mu", "x_star", "b"):
            assert np.array_equal(getattr(loaded, name), getattr(inst, name)), name

    def test_roundtrip_export_deep(self, tmp_path):
        inst = build_hard_instance(256, R=0.7, D=1.9, n=260)
        path = tmp_path / "deep.txt"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.lambdas, inst.lambdas)
        assert np.array_equal(loaded.mu, inst.mu)

    @pytest.mark.parametrize(
        "field, text, needle",
        [
            ("lambdas", "1,2", "lambdas: need 4 finite values, got 2"),
            ("mu", "0.5,0.5", "mu: need 4 finite values"),
            ("lambdas", "nan,-0.5,0.5,1", "lambdas: need 4 finite values"),
            ("mu", "inf,0.25,0.25,0.25", "mu: need 4 finite values"),
            ("mu", "-0.5,1,0.25,0.25", "mu must be nonnegative"),
            ("mu", "0.25,0.25,0.25,0.26", "mu must be nonnegative and sum to 1"),
            ("n", "3", "n >= k + 2"),
            ("R", "0", "R > 0"),
            ("D", "inf", "D >= 0"),
            ("k", "two", "instance field k"),
        ],
    )
    def test_load_rejects_bad_fields(self, tmp_path, field, text, needle):
        path = tmp_path / "bad.txt"
        save_instance(build_hard_instance(2), path)
        lines = [
            f"{field}={text}" if line.startswith(f"{field}=") else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=re.escape(needle)):
            load_instance(path)


@pytest.mark.parametrize("k", [*range(11, 65), 128, 256, 512, 1000])
def test_three_way_sandwich_at_depth(k):
    rng = np.random.default_rng(k)
    R, D = rng.uniform(0.5, 2.0, size=2)
    n = k + 2 + int(rng.integers(0, 5))
    inst = build_hard_instance(k, R, D, n)
    target = R**2 * D**2 / (2 * (k // 2) + 1) ** 2
    kry = krylov_min_residual(inst.A, inst.b, k)
    z = chebyshev_solver(inst.A, inst.b, k, R)
    cheb = float(np.sum((inst.A @ z - inst.b) ** 2))
    assert kry == pytest.approx(target, rel=1e-8)
    assert cheb == pytest.approx(target, rel=1e-8)


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

    def test_rejects_bad_depth(self):
        with pytest.raises(ContractError):
            krylov_min_residual(np.eye(2), np.ones(2), 0)

    def test_basis_stays_orthonormal_on_ill_conditioned_spectrum(self):
        # a single Gram-Schmidt pass drifts to ~1e-7 here; the second pass
        # keeps the columns orthonormal to working precision
        d = np.logspace(0, -12, 100)
        b = np.random.default_rng(0).standard_normal(100)
        Q = _krylov_basis(lambda v: d * v, b, 60)
        assert Q.shape == (100, 60)
        assert np.abs(Q.T @ Q - np.eye(60)).max() < 1e-13


class TestChebyshevSolver:
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

    def test_floor_is_tight_at_design_depth(self):
        # the exact Krylov optimum meets the floor with equality, so no
        # span-respecting method can beat it within budget
        for k in (2, 5, 8):
            inst = build_hard_instance(k)
            opt = krylov_min_residual(inst.A, inst.b, k)
            assert 2 * opt == pytest.approx(inst.floor, rel=1e-8)
