import numpy as np
import pytest

from anchored_minimax import (
    AlgoConfig,
    AlgoKind,
    BaselineState,
    ContractError,
    NumericalDivergenceError,
    OracleCounter,
    Point,
    baseline_step,
    eag_step,
    eag_v_alpha_limit,
    eag_v_alpha_next,
    eg_step,
    grad_sq_norm,
    load_preset,
    make_bilinear,
    run,
    theoretical_bound,
)
from anchored_minimax.algorithms import _alpha_next_general


@pytest.fixture(scope="module")
def bilinear():
    return make_bilinear(1.0)


class TestEagStep:
    def test_beta_zero_is_extragradient_bitwise(self, bilinear):
        z = bilinear.point([0.7, -0.3])
        zh_eag, zn_eag = eag_step(bilinear, z, z, k=0, alpha_k=0.2, beta_k=0.0)
        zh_eg, zn_eg = eg_step(bilinear, z, alpha=0.2)
        assert np.array_equal(zh_eag.coords, zh_eg.coords)
        assert np.array_equal(zn_eag.coords, zn_eg.coords)

    def test_hand_computed_step(self, bilinear):
        z0 = bilinear.point([1.0, 0.0])
        zh, zn = eag_step(bilinear, z0, z0, k=0, alpha_k=1 / 8, beta_k=1 / 2)
        assert zh.coords.tolist() == [1.0, 1 / 8]
        assert zn.coords.tolist() == [1.0 - 1 / 64, 1 / 8]

    def test_fixed_point_at_saddle(self, bilinear):
        zs = bilinear.point([0.0, 0.0])
        zh, zn = eag_step(bilinear, zs, zs, k=3, alpha_k=0.1, beta_k=0.2)
        assert np.array_equal(zh.coords, zs.coords)
        assert np.array_equal(zn.coords, zs.coords)

    def test_two_oracle_calls(self, bilinear):
        c = OracleCounter()
        z = bilinear.point([1.0, 1.0])
        eag_step(bilinear, z, z, k=0, alpha_k=0.1, beta_k=0.5, counter=c)
        assert c.evals == 2

    def test_rejects_bad_coefficients(self, bilinear):
        z = bilinear.point([1.0, 1.0])
        with pytest.raises(ContractError):
            eag_step(bilinear, z, z, k=0, alpha_k=0.1, beta_k=1.0)
        with pytest.raises(ContractError):
            eag_step(bilinear, z, z, k=0, alpha_k=-0.1, beta_k=0.5)


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
            assert _alpha_next_general(a, k, 1.0, 2.0) == pytest.approx(
                eag_v_alpha_next(a, k, 1.0), rel=1e-13
            )

    def test_general_delta_tiny_step_does_not_underflow(self):
        # (alpha R)^2 underflows to 0 although alpha R is inside (0, 1); with
        # a zero square the recurrence leaves alpha unchanged
        assert _alpha_next_general(1e-300, 0, 1.0, 2.697) == pytest.approx(1e-300)
        with pytest.raises(ContractError):
            _alpha_next_general(0.0, 0, 1.0, 2.697)

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

    @pytest.mark.parametrize("a0", [0.05, 0.2, 0.437, 0.618, 0.74])
    def test_monotone_decreasing_and_positive(self, a0):
        a = a0
        for k in range(100_000):
            nxt = eag_v_alpha_next(a, k, 1.0)
            assert 0 < nxt < a
            a = nxt


class TestBaselineSteps:
    def test_simgd_a_coefficients_at_zero(self, bilinear):
        config = AlgoConfig(kind=AlgoKind.SIMGD_A, alpha0=1.0, iters=1)
        z = np.array([1.0, 0.0])
        st = BaselineState(z=z.copy(), z0=np.zeros(2))
        st = baseline_step(AlgoKind.SIMGD_A, bilinear, st, config)
        # coefficient (1-p) = 0.49 on the gradient, (1-p)*gamma = 0.49 on the anchor
        g = np.array([0.0, -1.0])
        expected = z - 0.49 * g + 0.49 * (np.zeros(2) - z)
        assert np.allclose(st.z, expected, rtol=0, atol=1e-15)

    def test_eg_hand_example(self, bilinear):
        config = AlgoConfig(kind=AlgoKind.EG, alpha0=0.1, iters=1)
        st = BaselineState(z=np.array([1.0, 0.0]), z0=np.array([1.0, 0.0]))
        st = baseline_step(AlgoKind.EG, bilinear, st, config)
        assert np.allclose(st.z, [0.99, 0.1], rtol=0, atol=1e-15)

    def test_alternating_gda_hand_example(self, bilinear):
        config = AlgoConfig(kind=AlgoKind.ALT_GDA, alpha0=0.1, iters=1)
        st = BaselineState(z=np.array([1.0, 1.0]), z0=np.array([1.0, 1.0]))
        st = baseline_step(AlgoKind.ALT_GDA, bilinear, st, config)
        assert st.z[0] == pytest.approx(0.9)
        assert st.z[1] == pytest.approx(1.09)

    def test_popov_warm_start_is_gradient_step(self, bilinear):
        config = AlgoConfig(kind=AlgoKind.POPOV, alpha0=0.1, iters=1)
        z = np.array([1.0, 0.5])
        st = BaselineState(z=z.copy(), z0=z.copy())
        st = baseline_step(AlgoKind.POPOV, bilinear, st, config)
        g = np.array([0.5, -1.0])
        assert np.allclose(st.z, z - 0.1 * g, rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize(
        "kind,per_iter",
        [
            (AlgoKind.EAG_C, 2),
            (AlgoKind.EAG_V, 2),
            (AlgoKind.EG, 2),
            (AlgoKind.POPOV, 1),
            (AlgoKind.SIMGD_A, 1),
            (AlgoKind.ALT_GDA, 2),
            (AlgoKind.SIM_GD, 1),
        ],
    )
    def test_oracle_accounting_exact(self, bilinear, kind, per_iter):
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(kind, 0.1, 25), z0)
        assert trace.oracle_calls.tolist() == [per_iter * k for k in range(26)]

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
        trace = run(problem, AlgoConfig(kind, 0.1, 300), z0, store_ks={0, 7, 299})
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

    def test_eag_v_stepsize_validated(self, bilinear):
        with pytest.raises(ContractError):
            run(bilinear, AlgoConfig(AlgoKind.EAG_V, 0.76, 10), bilinear.point([1, 0]))

    def test_eag_c_large_step_warns_but_runs(self, bilinear):
        with pytest.warns(RuntimeWarning):
            trace = run(
                bilinear, AlgoConfig(AlgoKind.EAG_C, 0.2, 10), bilinear.point([1, 0])
            )
        assert trace.iters == 10

    def test_half_iterates_recorded_for_two_call_methods(self, bilinear):
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(AlgoKind.EG, 0.1, 5), z0)
        assert len(trace.half_iterates) == 5
        # z^{0+1/2} = z0 - alpha G(z0)
        assert np.allclose(trace.half_iterates[0], [1.0, 0.1], atol=1e-15)

    def test_thinning_beyond_dense_limit(self, bilinear):
        z0 = bilinear.point([1.0, 0.0])
        trace = run(bilinear, AlgoConfig(AlgoKind.SIM_GD, 0.01, 12_000), z0)
        ks = trace.stored_ks
        assert len(trace.grad_sq) == 12_001  # scalar series stays dense
        assert len(ks) < 12_001
        assert ks[-1] == 12_000
        assert 2**14 not in ks  # beyond range
        assert 8192 in ks  # power of two retained
        trace.iterate(8192)
        with pytest.raises(ContractError):
            trace.iterate(10_500)

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
        val = theoretical_bound(AlgoKind.EAG_V, 0, 1.0, 1.0, alpha0=0.618)
        assert val * 2 == pytest.approx(26.65, abs=0.05)
        assert val * 2 <= 27.0

    def test_eg_constant_at_half(self):
        val = theoretical_bound(AlgoKind.EG, 0, 1.0, 1.0, alpha=0.5)
        assert val == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_eg_domain_error(self):
        with pytest.raises(ContractError):
            theoretical_bound(AlgoKind.EG, 5, 1.0, 1.0, alpha=1.0)

    def test_no_bound_for_popov(self):
        with pytest.raises(ContractError):
            theoretical_bound(AlgoKind.POPOV, 5, 1.0, 1.0, alpha=0.1)


def test_config_validation():
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.EG, alpha0=-1.0, iters=10)
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.EG, alpha0=0.1, iters=0)
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.EG, alpha0=0.1, iters=10, anchor_delta=1.0)
    with pytest.raises(ContractError):
        AlgoConfig(AlgoKind.SIMGD_A, alpha0=0.1, iters=10, simgd_p=0.5)
