import math
from dataclasses import replace

import numpy as np
import pytest

from anchored_minimax import (
    AlgoConfig,
    AlgoKind,
    ContractError,
    NumericalDivergenceError,
    Point,
    eag_v_alpha_limit,
    eag_v_alpha_next,
    grad_sq_norm,
    load_preset,
    make_bilinear,
    make_ouyang_qp,
    run,
    store_plan,
    theoretical_bound,
)
from anchored_minimax.algorithms import _METHODS


def alpha_next_delta2(alpha_k, k, R):
    """The delta = 2 recurrence in its former form, denominator (k+1)(k+3) in ints."""
    a = alpha_k * R
    return alpha_k * (1.0 - (a * a / (1.0 - a * a)) / ((k + 1) * (k + 3)))


def alpha_next_general(alpha_k, k, R, delta):
    """The anchored recurrence for beta_k = 1/(k+delta) in its published form."""
    aR = alpha_k * R
    if not 0 < aR < 1:
        raise ContractError(f"alpha_k * R = {aR} outside (0, 1)")
    a2 = aR**2
    bk = 1.0 / (k + delta)
    bk1 = 1.0 / (k + 1 + delta)
    return alpha_k * bk1 * (1.0 - a2 - bk * bk) / (bk * (1.0 - bk) * (1.0 - a2))


def run_reference(problem, config, z0):
    """A dense run with one branch per method, each step written out in full.

    Anchored methods evaluate G at z^k and at the half-iterate; baselines go
    through their own step; the final iterate's G is evaluated for recording.
    Returns (grad_sq, oracle_calls, alphas, anchor_inner, iterates).
    """
    kind, K, R = config.kind, config.iters, problem.lipschitz
    op, nx = problem.operator, problem.dim_x
    is_eag = kind in (AlgoKind.EAG_C, AlgoKind.EAG_V)
    grad_sq = np.empty(K + 1)
    oracle_calls = np.empty(K + 1, dtype=np.int64)
    alphas = np.empty(K + 1) if is_eag else None
    anchor_inner = np.empty(K + 1) if is_eag else None
    iterates = []
    z0c = z0.coords
    z = z0c.copy()
    a, alpha, delta = config.alpha0, config.alpha0, config.anchor_delta
    evals, g_prev = 0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            if not np.isfinite(z).all():
                raise NumericalDivergenceError(
                    f"{kind.value} produced a non-finite iterate at iteration {k}"
                )
            oracle_calls[k] = evals
            iterates.append(z.copy())
            g = np.asarray(op(z), dtype=float)
            grad_sq[k] = g.dot(g)
            if is_eag:
                alphas[k] = a
                d = z - z0c
                anchor_inner[k] = g.dot(d)
                beta = 1.0 / (k + delta)
                base = z - beta * d
                zh = base - a * g
                zn = base - a * np.asarray(op(zh), dtype=float)
                if kind == AlgoKind.EAG_V:
                    a = (
                        alpha_next_delta2(a, k, R)
                        if delta == 2.0
                        else alpha_next_general(a, k, R, delta)
                    )
            elif kind == AlgoKind.EG:
                zh = z - alpha * g
                zn = z - alpha * np.asarray(op(zh), dtype=float)
            elif kind == AlgoKind.POPOV:
                gp = g_prev if g_prev is not None else g
                zn = z - alpha * g - alpha * (g - gp)
                g_prev = g
            elif kind == AlgoKind.SIMGD_A:
                p, gamma = config.simgd_p, config.simgd_gamma
                zn = z - (1 - p) / (k + 1) ** p * g + (1 - p) * gamma / (k + 1) * (z0c - z)
            elif kind == AlgoKind.ALT_GDA:
                x_new = z[:nx] - alpha * g[:nx]
                g_mid = np.asarray(op(np.concatenate([x_new, z[nx:]])), dtype=float)
                zn = np.concatenate([x_new, z[nx:] - alpha * g_mid[nx:]])
            else:
                zn = z - alpha * g
            evals += {AlgoKind.POPOV: 1, AlgoKind.SIMGD_A: 1, AlgoKind.SIM_GD: 1}.get(
                kind, 2
            )
            z = zn
    if not np.isfinite(z).all():
        raise NumericalDivergenceError(
            f"{kind.value} produced a non-finite iterate at iteration {K}"
        )
    oracle_calls[K] = evals
    iterates.append(z.copy())
    g = np.asarray(op(z), dtype=float)
    grad_sq[K] = g.dot(g)
    if is_eag:
        alphas[K] = a
        anchor_inner[K] = g.dot(z - z0c)
    return grad_sq, oracle_calls, alphas, anchor_inner, iterates


def alpha_limit_stopping_rule(alpha0, R, tol=1e-12, max_k=10**6):
    """The former limit: the recurrence stepped until its relative step is below tol."""
    a = alpha0
    for k in range(max_k):
        nxt = eag_v_alpha_next(a, k, R)
        if abs(a - nxt) < tol * a:
            return nxt
        a = nxt
    return a


def alpha_limit_reference(a0R, steps=4_000_000):
    """alpha_inf at R = 1: ``steps`` steps of the delta = 2 recurrence, then the
    first-order tail ln alpha_inf = ln alpha_K - c_K sum_{k>=K} 1/((k+1)(k+3))."""
    a = a0R
    for k in range(steps):
        aa = a * a
        a *= 1.0 - (aa / (1.0 - aa)) / ((k + 1) * (k + 3))
    c = a * a / (1.0 - a * a)
    return a * math.exp(-c * 0.5 * (1.0 / (steps + 1) + 1.0 / (steps + 2)))


LIMIT_STARTS = (0.05, 0.3, 0.618, 0.74)


@pytest.fixture(scope="module")
def alpha_limit_refs():
    return {a0R: alpha_limit_reference(a0R) for a0R in LIMIT_STARTS}


# joint operator evaluations per iteration, as the methods are defined
PER_ITER = [
    (AlgoKind.EAG_C, 2),
    (AlgoKind.EAG_V, 2),
    (AlgoKind.EG, 2),
    (AlgoKind.POPOV, 1),
    (AlgoKind.SIMGD_A, 1),
    (AlgoKind.ALT_GDA, 2),
    (AlgoKind.SIM_GD, 1),
]


def bilinear_iterates(kind, z, alpha=0.1, iters=1):
    """The iterates z^0..z^iters of a dense run on L(x, y) = xy from ``z``."""
    p = make_bilinear(1.0)
    trace = run(p, AlgoConfig(kind, alpha, iters), p.point(z), dense=True)
    return trace.iterates


@pytest.fixture(scope="module")
def bilinear():
    return make_bilinear(1.0)


class TestEagStep:
    """The anchored extragradient step, taken through ``run``."""

    def test_hand_computed_step(self, bilinear):
        # EAG-C at k = 0: beta_0 = 1/2, so z^{1/2} = (1, 1/8) and z^1 below
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(AlgoKind.EAG_C, 1 / 8, 1), z0)
        assert trace.iterate(1).tolist() == [1.0 - 1 / 64, 1 / 8]

    def test_fixed_point_at_saddle(self):
        # G vanishes exactly at the closed-form saddle, so anchor and step
        # both leave it in place, bit for bit
        p = make_ouyang_qp(20)
        for kind in (AlgoKind.EAG_C, AlgoKind.EAG_V):
            trace = run(p, AlgoConfig(kind, 0.1, 5), p.saddle_point)
            for z in trace.iterates:
                assert z.tobytes() == p.saddle_point.coords.tobytes()

    def test_two_oracle_calls(self, bilinear):
        calls = []

        def op(z):
            calls.append(z)
            return bilinear.operator(z)

        problem = replace(bilinear, operator=op)
        calls.clear()  # the saddle-point check at construction called op
        trace = run(problem, AlgoConfig(AlgoKind.EAG_C, 0.1, 3), bilinear.point([1.0, 1.0]))
        assert trace.oracle_calls.tolist() == [0, 2, 4, 6]
        assert len(calls) == 2 * 3 + 1  # and G(z^3), evaluated for recording

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ContractError):
            AlgoConfig(AlgoKind.EAG_C, 0.1, 1, anchor_delta=1.0)  # beta_0 = 1
        with pytest.raises(ContractError):
            AlgoConfig(AlgoKind.EAG_C, -0.1, 1)


class TestAlphaRecurrence:
    def test_first_step_by_hand(self):
        a0 = 0.618
        expected = a0 * (1 - (1 / 3) * (a0**2 / (1 - a0**2)))
        assert eag_v_alpha_next(a0, 0, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_both_published_forms_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = rng.uniform(0.01, 0.95)
            k = int(rng.integers(0, 10_000))
            form2 = eag_v_alpha_next(a, k, 1.0)
            form1 = (a / (1 - a * a)) * (1 - (k + 2) ** 2 / ((k + 1) * (k + 3)) * a * a)
            assert form1 == pytest.approx(form2, rel=1e-14)

    def test_small_alpha_perturbation_is_cubic(self):
        a = 1e-5
        assert abs(eag_v_alpha_next(a, 0, 1.0) - a) < a**3

    def test_domain_error(self):
        with pytest.raises(ContractError):
            eag_v_alpha_next(1.0, 0, 1.0)
        with pytest.raises(ContractError):
            eag_v_alpha_next(0.5, 0, 3.0)

    def test_general_delta_matches_at_two(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.uniform(0.01, 0.7)
            k = int(rng.integers(0, 1000))
            assert alpha_next_general(a, k, 1.0, 2.0) == pytest.approx(
                eag_v_alpha_next(a, k, 1.0), rel=1e-13
            )

    def test_general_delta_tiny_step_does_not_underflow(self):
        # (alpha R)^2 underflows to 0 although alpha R is inside (0, 1); with
        # a zero square the recurrence leaves alpha unchanged
        assert eag_v_alpha_next(1e-300, 0, 1.0, 2.697) == pytest.approx(1e-300)
        with pytest.raises(ContractError):
            eag_v_alpha_next(0.0, 0, 1.0, 2.697)

    @pytest.mark.parametrize("a0R", [0.01, 0.05, 0.3, 0.5, 0.618, 0.74])
    @pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
    def test_delta_two_bitwise_as_before(self, a0R, R):
        a = ref = a0R / R
        for k in range(20_000):
            a = eag_v_alpha_next(a, k, R)
            ref = alpha_next_delta2(ref, k, R)
            assert a.hex() == ref.hex(), k

    @pytest.mark.parametrize("delta", [1.5, 2.5, 2.697, 3.0, 10.0])
    def test_general_delta_matches_published_form(self, delta):
        # one step from the same alpha_k: a few ulp apart
        rng = np.random.default_rng(2)
        for _ in range(2000):
            a, k = rng.uniform(1e-3, 0.74), int(rng.integers(0, 10**6))
            assert eag_v_alpha_next(a, k, 1.0, delta) == pytest.approx(
                alpha_next_general(a, k, 1.0, delta), rel=2e-15, abs=0
            )
        # whole sequences drift apart by rounding only, as long as a run
        for a0R in (0.05, 0.3, 0.618, 0.74):
            a = ref = a0R
            for k in range(1500):
                a = eag_v_alpha_next(a, k, 1.0, delta)
                ref = alpha_next_general(ref, k, 1.0, delta)
                assert a == pytest.approx(ref, rel=1.5e-14, abs=0), (a0R, k)

    def test_limit_from_golden_start(self):
        lim = eag_v_alpha_limit(0.618, 1.0)
        assert 0.4360 < lim < 0.4372

    def test_limit_scales_with_R(self):
        lim = eag_v_alpha_limit(0.618 / 2.0, 2.0)
        assert lim == pytest.approx(eag_v_alpha_limit(0.618, 1.0) / 2.0, rel=1e-9)

    def test_limit_small_start_barely_moves(self):
        lim = eag_v_alpha_limit(0.1, 1.0)
        assert 0.099 < lim < 0.1

    def test_limit_requires_three_quarters(self):
        with pytest.raises(ContractError):
            eag_v_alpha_limit(0.76, 1.0)

    @pytest.mark.parametrize("R", [1.0, 2.0])
    @pytest.mark.parametrize("a0R", LIMIT_STARTS)
    def test_limit_matches_long_reference(self, alpha_limit_refs, a0R, R):
        # halving alpha0 and doubling R scales every alpha_k by exactly 1/2
        ref = alpha_limit_refs[a0R] / R
        lim = eag_v_alpha_limit(a0R / R, R)
        assert lim == pytest.approx(ref, rel=1e-9, abs=0)
        # the former stopping rule quit while the sequence was still falling
        assert lim < alpha_limit_stopping_rule(a0R / R, R)

    @pytest.mark.parametrize("a0", [0.05, 0.2, 0.437, 0.618, 0.74])
    def test_monotone_decreasing_and_positive(self, a0):
        a = a0
        for k in range(100_000):
            nxt = eag_v_alpha_next(a, k, 1.0)
            assert 0 < nxt < a
            a = nxt


class TestBaselineSteps:
    def test_simgd_a_coefficients_at_zero(self):
        # coefficient (1-p)/(k+1)^p on the gradient, (1-p)*gamma/(k+1) on the
        # anchor; the anchor term vanishes at k = 0, where z^0 is the anchor
        z0 = np.array([1.0, 0.0])
        _, z1, z2 = bilinear_iterates(AlgoKind.SIMGD_A, z0, alpha=1.0, iters=2)
        g0 = np.array([0.0, -1.0])
        assert np.allclose(z1, z0 - 0.49 * g0, rtol=0, atol=1e-15)
        g1 = np.array([z1[1], -z1[0]])
        expected = z1 - 0.49 / 2**0.51 * g1 + 0.245 * (z0 - z1)
        assert np.allclose(z2, expected, rtol=0, atol=1e-15)

    def test_eg_hand_example(self):
        _, z1 = bilinear_iterates(AlgoKind.EG, [1.0, 0.0])
        assert np.allclose(z1, [0.99, 0.1], rtol=0, atol=1e-15)

    def test_alternating_gda_hand_example(self):
        _, z1 = bilinear_iterates(AlgoKind.ALT_GDA, [1.0, 1.0])
        assert z1[0] == pytest.approx(0.9)
        assert z1[1] == pytest.approx(1.09)

    def test_popov_warm_start_is_gradient_step(self):
        z = np.array([1.0, 0.5])
        _, z1 = bilinear_iterates(AlgoKind.POPOV, z)
        g = np.array([0.5, -1.0])
        assert np.allclose(z1, z - 0.1 * g, rtol=0, atol=1e-15)


REFERENCE_PROBLEMS = ["bilinear-unit", "huber-default", "ouyang-200", "random-monotone:6:5"]


class TestRunMatchesReference:
    @pytest.mark.parametrize("name", REFERENCE_PROBLEMS)
    @pytest.mark.parametrize("kind", list(AlgoKind))
    def test_bitwise_at_delta_two(self, kind, name):
        p, z0 = load_preset(name)
        config = AlgoConfig(kind, 0.1 / p.lipschitz, 1500)
        try:
            want = run_reference(p, config, z0)
        except NumericalDivergenceError as exc:
            with pytest.raises(NumericalDivergenceError, match=str(exc)):
                run(p, config, z0, dense=True)
            return
        trace = run(p, config, z0, dense=True)
        got = (trace.grad_sq, trace.oracle_calls, trace.alphas, trace.anchor_inner)
        for x, y in zip(got, want[:4]):
            assert (x is None) == (y is None)
            if x is not None:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert trace.stored_ks.tolist() == list(range(1501))
        assert len(trace.iterates) == len(want[4]) == 1501
        for k, (x, y) in enumerate(zip(trace.iterates, want[4])):
            assert x.tobytes() == y.tobytes(), k

    @pytest.mark.parametrize("name", REFERENCE_PROBLEMS)
    @pytest.mark.parametrize("alpha0R", [0.1, 0.618])
    def test_eag_v_close_at_other_delta(self, name, alpha0R):
        # the step sizes differ by rounding only; everything else is compared
        # on the problem's own scale D = ||z0 - z*||, since ||G(z^k)||^2 can
        # fall to 1e-8 of (R D)^2 on huber-default, where a 1e-15 relative
        # move of z^k reads as 1e-11 relative in grad_sq
        p, z0 = load_preset(name)
        R, D = p.lipschitz, float(np.linalg.norm(z0.coords - p.saddle_point.coords))
        config = AlgoConfig(AlgoKind.EAG_V, alpha0R / R, 1500, anchor_delta=2.697)
        grad_sq, calls, alphas, inner, iterates = run_reference(p, config, z0)
        trace = run(p, config, z0, dense=True)
        assert trace.oracle_calls.tobytes() == calls.tobytes()
        np.testing.assert_allclose(trace.alphas, alphas, rtol=1.5e-14, atol=0)
        for x, y in zip(trace.iterates, iterates):
            assert np.linalg.norm(x - y) <= 1e-13 * D
        np.testing.assert_allclose(
            np.sqrt(trace.grad_sq), np.sqrt(grad_sq), rtol=0, atol=1e-13 * R * D
        )
        np.testing.assert_allclose(trace.anchor_inner, inner, rtol=0, atol=1e-13 * R * D * D)


class TestRun:
    def test_eag_v_within_published_rate(self, bilinear):
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(AlgoKind.EAG_V, 0.618, 200), z0)
        ks = np.arange(201)
        bound = 27.0 / ((ks + 1) * (ks + 2))
        assert np.all(trace.grad_sq <= bound * (1 + 1e-9))

    def test_eag_c_within_published_rate(self, bilinear):
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(AlgoKind.EAG_C, 0.125, 200), z0)
        ks = np.arange(201)
        assert np.all(trace.grad_sq <= 260.0 / (ks + 1) ** 2 * (1 + 1e-9))

    def test_saddle_start_stays_put(self, bilinear):
        z0 = bilinear.point([0.0, 0.0])
        trace = run(bilinear, AlgoConfig(AlgoKind.EAG_V, 0.618, 50), z0)
        for z in trace.iterates:
            assert np.array_equal(z, np.zeros(2))

    @pytest.mark.parametrize("kind,per_iter", PER_ITER)
    def test_oracle_accounting_exact(self, bilinear, kind, per_iter):
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(kind, 0.1, 25), z0)
        assert trace.oracle_calls.tolist() == [per_iter * k for k in range(26)]
        # the method table's cost is what a run spends: cost per update and
        # one more call for G(z^K)
        calls = []
        counted = replace(bilinear, operator=lambda z: calls.append(z) or bilinear.operator(z))
        calls.clear()  # the saddle-point check at construction called op
        run(counted, AlgoConfig(kind, 0.1, 25), z0)
        assert len(calls) == _METHODS[kind].cost * 25 + 1

    def test_grad_sq_matches_recomputation(self, bilinear):
        z0 = bilinear.point([0.3, -0.9])
        trace = run(bilinear, AlgoConfig(AlgoKind.EAG_V, 0.5, 60), z0)
        for idx, k in enumerate(trace.stored_ks.tolist()):
            z = Point(trace.iterates[idx], 1)
            assert trace.grad_sq[k] == grad_sq_norm(bilinear, z)

    @pytest.mark.parametrize("kind", [AlgoKind.EAG_C, AlgoKind.EAG_V])
    def test_anchor_inner_matches_recomputation(self, kind):
        # the recorded <G(z^k), z^k - z0> equals a fresh evaluation bit for bit
        problem, z0 = load_preset("ouyang-200")
        trace = run(problem, AlgoConfig(kind, 0.1, 300), z0, dense=True)
        assert len(trace.anchor_inner) == 301
        for idx, k in enumerate(trace.stored_ks.tolist()):
            z = trace.iterates[idx]
            g = problem.operator(z)
            assert trace.anchor_inner[k] == g @ (z - trace.z0)

    def test_anchor_inner_only_for_anchored_methods(self, bilinear):
        trace = run(bilinear, AlgoConfig(AlgoKind.EG, 0.1, 5), bilinear.point([1, 0]))
        assert trace.anchor_inner is None

    def test_alpha_guard_and_recording(self, bilinear):
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(AlgoKind.EAG_V, 0.618, 40), z0)
        assert trace.alphas is not None and len(trace.alphas) == 41
        assert np.all(np.diff(trace.alphas) < 0)
        a = 0.618
        for k in range(41):
            assert trace.alphas[k] == a
            a = eag_v_alpha_next(a, k, 1.0)

    def test_nan_abort_names_iteration(self, bilinear):
        z0 = bilinear.point([1.0, 0.0])
        with pytest.raises(NumericalDivergenceError, match="iteration"):
            run(bilinear, AlgoConfig(AlgoKind.SIM_GD, 0.9, 5000), z0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind,per_iter", PER_ITER)
    def test_injected_non_finite_names_iteration(self, bilinear, kind, per_iter, bad):
        # G turns non-finite on its first call of iteration k0 - 1, so z^k0 is
        # the first bad iterate, after k0 completed updates
        k0, calls = 9, []

        def op(z):
            calls.append(z)
            g = bilinear.operator(z)
            return np.full_like(g, bad) if len(calls) == (k0 - 1) * per_iter + 1 else g

        problem = replace(bilinear, operator=op)
        calls.clear()  # the saddle-point check at construction called op
        with pytest.raises(NumericalDivergenceError, match=rf"at iteration {k0}$"):
            run(problem, AlgoConfig(kind, 0.1, 50), bilinear.point([1.0, 0.0]))
        assert len(calls) == per_iter * k0

    def test_overflowing_finite_iterate_does_not_raise(self, bilinear):
        # z . z overflows to inf at entries near 1e200, yet every entry is finite
        z0 = bilinear.point([1e200, -1e200])
        trace = run(bilinear, AlgoConfig(AlgoKind.EG, 0.1, 5), z0, dense=True)
        with np.errstate(over="ignore"):
            assert not math.isfinite(trace.iterates[0] @ trace.iterates[0])
        assert all(np.isfinite(z).all() for z in trace.iterates)

    def test_eag_v_stepsize_validated(self, bilinear):
        with pytest.raises(ContractError):
            run(bilinear, AlgoConfig(AlgoKind.EAG_V, 0.76, 10), bilinear.point([1, 0]))

    def test_eag_v_schedule_refused_before_any_operator_call(self, bilinear):
        # at delta = 1.01 the recurrence gives alpha_1 = -32.76; the whole
        # schedule is built first, so no step is taken with it
        calls = []
        problem = replace(bilinear, operator=lambda z: calls.append(z) or bilinear.operator(z))
        calls.clear()
        config = AlgoConfig(AlgoKind.EAG_V, 0.7, 5, anchor_delta=1.01)
        with pytest.raises(ContractError, match="outside"):
            run(problem, config, bilinear.point([1.0, 0.0]))
        assert calls == []

    def test_eag_c_large_step_warns_but_runs(self, bilinear):
        with pytest.warns(RuntimeWarning):
            trace = run(
                bilinear, AlgoConfig(AlgoKind.EAG_C, 0.2, 10), bilinear.point([1, 0])
            )
        assert trace.iters == 10

    @pytest.mark.parametrize("kind", list(AlgoKind))
    def test_no_half_iterates_stored(self, bilinear, kind):
        trace = run(bilinear, AlgoConfig(kind, 0.1, 5), bilinear.point([1.0, 0.0]))
        assert len(trace.half_ks) == 0 and trace.half_iterates == []

    def test_thinning_beyond_dense_limit(self, bilinear):
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(AlgoKind.SIM_GD, 0.01, 12_000), z0)
        ks = trace.stored_ks
        assert len(trace.grad_sq) == 12_001  # scalar series stays dense
        assert ks.tolist() == store_plan(12_000, dense=False).tolist()
        assert len(trace.iterates) == len(ks) == 1001 + 26 + 1
        assert ks[:1001].tolist() == list(range(1001))
        assert ks[-1] == 12_000
        assert 1051 in ks and 11_389 in ks  # round(1.1^73), round(1.1^98)
        assert trace.iterate(1051) is trace.iterates[1001]
        for k in (1001, 8192, 10_500):
            with pytest.raises(ContractError):
                trace.iterate(k)

    @pytest.mark.parametrize("iters", [1500, 12_000], ids=["dense", "thinned"])
    @pytest.mark.parametrize("kind", list(AlgoKind))
    def test_keep_receives_the_stored_iterates_in_order(self, kind, iters):
        p, z0 = load_preset("huber-default")
        config = AlgoConfig(kind, 0.1, iters)
        want = run(p, config, z0)
        kept = []
        trace = run(p, config, z0, keep=lambda z: kept.append(z.tobytes()))
        assert trace.iterates == []
        assert kept == [z.tobytes() for z in want.iterates]
        assert trace.stored_ks.tolist() == want.stored_ks.tolist()
        assert (len(trace.stored_ks) == trace.iters + 1) == (iters == 1500)
        for x, y in ((trace.grad_sq, want.grad_sq), (trace.oracle_calls, want.oracle_calls),
                     (trace.alphas, want.alphas), (trace.anchor_inner, want.anchor_inner)):
            assert (x is None) == (y is None)
            assert x is None or x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("kind", list(AlgoKind))
    def test_kept_iterates_are_never_written_or_shared(self, kind):
        # the steps work in scratch the run reuses; each kept z must be its own
        p, z0 = load_preset("random-monotone:6:3")
        kept = []
        run(p, AlgoConfig(kind, 0.1 / p.lipschitz, 40), z0, dense=True,
            keep=lambda z: kept.append((z, z.tobytes())))
        assert len(kept) == 41
        for z, b in kept:
            assert z.tobytes() == b
        for i, (x, _) in enumerate(kept):
            for y, _ in kept[i + 1:]:
                assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("kind", list(AlgoKind))
    @pytest.mark.parametrize("wrap", ["read-only", "list", "int"])
    def test_operator_output_is_only_read(self, kind, wrap):
        p, z0 = load_preset("random-monotone:6:3")

        def read_only(z):
            g = p.operator(z)
            g.flags.writeable = False  # a write into G's output would raise
            return g

        op, ref_op = {
            "read-only": (read_only, p.operator),
            "list": (lambda z: p.operator(z).tolist(), p.operator),
            "int": (lambda z: np.rint(p.operator(z)).astype(np.int64),
                    lambda z: np.rint(p.operator(z))),
        }[wrap]
        config = AlgoConfig(kind, 0.1 / p.lipschitz, 40)
        got = run(replace(p, operator=op), config, z0, dense=True)
        want = run(replace(p, operator=ref_op), config, z0, dense=True)
        assert got.grad_sq.tobytes() == want.grad_sq.tobytes()
        assert [z.tobytes() for z in got.iterates] == [z.tobytes() for z in want.iterates]

    def test_trace_without_iterates_refuses_iterate(self, bilinear):
        trace = run(bilinear, AlgoConfig(AlgoKind.EG, 0.1, 5), bilinear.point([1, 0]),
                    keep=lambda z: None)
        with pytest.raises(ContractError, match="this trace kept no iterates"):
            trace.iterate(0)

    def test_store_plan(self):
        assert store_plan(10_000, dense=False).tolist() == list(range(10_001))
        assert store_plan(20, dense=True).tolist() == list(range(21))
        thin = store_plan(10**5, dense=False)
        assert len(thin) == 1050 and thin[-1] == 10**5
        grid = {int(round(1.1**j)) for j in range(121)}
        assert set(thin.tolist()) == set(range(1001)) | grid | {10**5}
        assert len(store_plan(10**5, dense=True)) == 10**5 + 1

    @pytest.mark.parametrize("name", ["bilinear-unit", "random-monotone:8:0"])
    def test_rate_envelope_on_remaining_presets(self, name):
        # the two benchmark problems are covered by the acceptance gate; the
        # envelope must hold on every shipped problem with a known saddle
        p, z0 = load_preset(name)
        R = p.lipschitz
        D2 = float(np.sum((z0.coords - p.saddle_point.coords) ** 2))
        ks = np.arange(10_001)
        trace = run(p, AlgoConfig(AlgoKind.EAG_V, 0.618 / R, 10_000), z0)
        assert np.all(
            trace.grad_sq <= 27 * R * R * D2 / ((ks + 1) * (ks + 2)) * (1 + 1e-9)
        )
        trace = run(p, AlgoConfig(AlgoKind.EAG_C, 0.125 / R, 10_000), z0)
        assert np.all(trace.grad_sq <= 260 * R * R * D2 / (ks + 1) ** 2 * (1 + 1e-9))

    def test_eg_best_iterate_bound(self):
        for name in ["bilinear-unit", "huber-default"]:
            p, z0 = load_preset(name)
            zs = p.saddle_point.coords
            D2 = float(np.sum((z0.coords - zs) ** 2))
            for aR in (0.1, 0.5):
                trace = run(p, AlgoConfig(AlgoKind.EG, aR, 2000), z0)
                best = np.minimum.accumulate(trace.grad_sq)
                ks = np.arange(2001)
                bound = D2 / (aR**2 * (1 - aR**2) * (ks + 1))
                assert np.all(best <= bound * (1 + 1e-9))


def test_anchored_descent_converges_but_lags_accelerated():
    # SimGD-A converges on the rotation field thanks to anchoring, but its
    # diminishing steps make it markedly slower than the accelerated method
    p, z0 = load_preset("bilinear-unit")
    simgd = run(p, AlgoConfig(AlgoKind.SIMGD_A, 1.0, 10_000), z0)
    eag = run(p, AlgoConfig(AlgoKind.EAG_C, 0.1, 10_000), z0)
    assert simgd.grad_sq[-1] < simgd.grad_sq[0]
    assert eag.grad_sq[-1] < simgd.grad_sq[-1]


class TestTheoreticalBound:
    def test_eag_c_constant_at_one_eighth(self):
        val = theoretical_bound(AlgoKind.EAG_C, 0, 1.0, 1.0, alpha=0.125)
        assert val == pytest.approx(2336.0 / 9.0, rel=1e-12)
        assert val <= 260.0

    def test_eag_v_constant_at_golden(self):
        val = theoretical_bound(AlgoKind.EAG_V, 0, 1.0, 1.0, alpha=0.618)
        assert val * 2 == pytest.approx(26.65, abs=0.05)
        assert val * 2 <= 27.0

    def test_eg_constant_at_half(self):
        val = theoretical_bound(AlgoKind.EG, 0, 1.0, 1.0, alpha=0.5)
        assert val == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_eg_domain_error(self):
        with pytest.raises(ContractError):
            theoretical_bound(AlgoKind.EG, 5, 1.0, 1.0, alpha=1.0)

    def test_eag_c_outside_step_conditions_raises(self):
        # 0.1265 fails the second step-size condition, so no theorem applies
        with pytest.raises(ContractError):
            theoretical_bound(AlgoKind.EAG_C, 5, 1.0, 1.0, alpha=0.1265)

    @pytest.mark.parametrize("alpha, alpha_inf", [
        (5.0, 0.1),        # alpha0 * R beyond 3/4
        (0.5, -0.1),       # alpha_inf not positive
        (0.5, math.nan),
        (0.5, 0.9),        # alpha_inf above alpha0: the sequence decreases
    ])
    def test_eag_v_given_alpha_inf_outside_theorem_raises(self, alpha, alpha_inf):
        with pytest.raises(ContractError):
            theoretical_bound(AlgoKind.EAG_V, 3, 1.0, 1.0, alpha=alpha, alpha_inf=alpha_inf)

    @pytest.mark.parametrize("kind, alpha", [
        (AlgoKind.EG, -0.1),       # a bound for a negative step
        (AlgoKind.EG, 1e-200),     # alpha^2 underflows to 0
        (AlgoKind.EG, 1e-160),     # alpha^2 is subnormal: the bound is inf
        (AlgoKind.EAG_C, 1e-200),
        (AlgoKind.EAG_V, 1e-200),  # alpha_inf^2 underflows to 0
    ])
    def test_step_without_a_representable_constant_raises(self, kind, alpha):
        with pytest.raises(ContractError, match="rate bound needs step sizes > 0"):
            theoretical_bound(kind, 3, 1.0, 1.0, alpha=alpha)

    def test_eag_v_tiny_given_alpha_inf_raises(self):
        with pytest.raises(ContractError, match="rate bound needs step sizes > 0"):
            theoretical_bound(AlgoKind.EAG_V, 3, 1.0, 1.0, alpha=0.5, alpha_inf=1e-200)

    def test_no_bound_for_popov(self):
        with pytest.raises(ContractError):
            theoretical_bound(AlgoKind.POPOV, 5, 1.0, 1.0, alpha=0.1)

    @pytest.mark.parametrize("kind", [AlgoKind.EAG_C, AlgoKind.EAG_V, AlgoKind.EG])
    @pytest.mark.parametrize(
        "k, R, D",
        [(-1, 1.0, 1.0), (-2, 1.0, 1.0), (np.array([0, 3, -1]), 1.0, 1.0),
         (3, 1.0, math.nan), (3, 1.0, math.inf), (3, math.inf, 1.0), (3, math.nan, 1.0)],
    )
    def test_rejects_negative_k_and_non_finite_constants(self, kind, k, R, D):
        with pytest.raises(ContractError):
            theoretical_bound(kind, k, R, D, alpha=0.1, alpha_inf=0.09)

    @pytest.mark.parametrize("kind", [AlgoKind.EAG_C, AlgoKind.EAG_V, AlgoKind.EG])
    def test_int_array_k_matches_scalar_calls_bitwise(self, kind):
        ks = np.unique(np.concatenate([
            np.arange(3000), np.geomspace(1, 10**6, 2000).astype(np.int64), [10**6]
        ]))
        R, D = 1.3, 2.7
        params = dict(alpha=0.45 if kind == AlgoKind.EAG_V else 0.09,
                      alpha_inf=eag_v_alpha_limit(0.45, R))
        got = theoretical_bound(kind, ks, R, D, **params)
        want = np.array([theoretical_bound(kind, k, R, D, **params) for k in ks.tolist()])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_config_validation():
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.EG, alpha0=-1.0, iters=10)
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.EG, alpha0=0.1, iters=0)
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.EG, alpha0=0.1, iters=10, anchor_delta=1.0)
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.SIMGD_A, alpha0=0.1, iters=10, simgd_p=0.5)


@pytest.mark.parametrize(
    "field, value",
    [("alpha0", math.inf), ("anchor_delta", math.inf), ("simgd_gamma", math.inf),
     ("iters", True), ("iters", 2.5), ("iters", 10.0)],
)
def test_config_rejects_non_finite_and_non_integral(field, value):
    # anchor_delta = inf would silently make every beta_k zero
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.EAG_V, **{"alpha0": 0.1, "iters": 10, field: value})
