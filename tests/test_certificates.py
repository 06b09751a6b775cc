import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchored_minimax import (
    AlgoConfig,
    AlgoKind,
    CertificateError,
    ContractError,
    EagCCertificate,
    IntervalChain,
    Trace,
    check_eag_c_stepsize,
    check_lyapunov_monotone,
    eag_c_certificate,
    eag_v_alpha_limit,
    grad_sq_norm,
    interval_quantities,
    load_preset,
    lyapunov_sequence,
    make_bilinear,
    make_ouyang_qp,
    run,
)
from anchored_minimax.certificates import (
    EAGC_BLOCK,
    _a_next_case1,
    _a_next_case2,
    _tau_case1,
    _tau_case2,
    certificate_null_vector,
    s_matrix,
)


def lyapunov_reference(trace, problem):
    """V_k with G evaluated afresh at every stored iterate, one point at a time."""
    z0 = trace.z0
    delta = trace.anchor_delta
    dm1 = delta - 1.0
    V = np.empty(len(trace.stored_ks))
    for idx, k in enumerate(trace.stored_ks.tolist()):
        z = trace.iterates[idx]
        B = (k + delta - 1.0) / dm1
        A = trace.alphas[k] * (k + delta) * (k + delta - 1.0) / (2.0 * dm1)
        g = np.asarray(problem.operator(z), dtype=float)
        V[idx] = A * (g @ g) + B * (g @ (z - z0))
    return V


def eag_c_reference(alphaR, K, tol_psd=1e-9):
    """The constant-step proof chain with one eigvalsh and one det per k."""
    a = alphaR
    certs = []
    A = a / (1 + a)
    for k in range(K):
        chain = interval_quantities(k, a)
        tol_int = 1e-12 * max(1.0, chain.mid)
        interval_ok = chain.ell - tol_int <= A <= chain.upper + tol_int
        assert interval_ok
        if A <= chain.mid:
            case, tau, A_next = "I_minus", _tau_case1(k, a, A), _a_next_case1(k, a, A)
        else:
            case, tau, A_next = "I_plus", _tau_case2(k, a, A), _a_next_case2(k, a, A)
        S = s_matrix(k, a, A, tau, A_next)
        scale = float(np.abs(S).max())
        eigs = np.linalg.eigvalsh(S)
        det = float(np.linalg.det(S))
        verdict = bool(eigs[0] >= -tol_psd * scale and interval_ok)
        certs.append(EagCCertificate(
            k, A, tau, S, float(eigs[0]), det, scale, case, chain.ell, chain.upper,
            interval_ok, verdict,
        ))
        A = A_next
    return certs


def assert_same_certificates(got, want):
    """Every field equal: floats by hex, S by bytes, the rest by ==."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(EagCCertificate):
            x, y = getattr(g, f.name), getattr(w, f.name)
            assert type(x) is type(y), (g.k, f.name)
            if isinstance(x, np.ndarray):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), g.k
            elif isinstance(x, float):
                assert x.hex() == y.hex(), (g.k, f.name)
            else:
                assert x == y, (g.k, f.name)


def indefinite_at(j, monkeypatch):
    """Make S_j indefinite (a negative diagonal entry) in every S stack built."""
    import anchored_minimax.certificates as certs_mod

    original = certs_mod.s_matrix

    def doctored(k, alphaR, A_k, tau_k, A_next):
        S = original(k, alphaR, A_k, tau_k, A_next)
        for i in np.flatnonzero(k == j):
            S[i, 0, 0] = -np.abs(S[i]).max()
        return S

    monkeypatch.setattr(certs_mod, "s_matrix", doctored)


def random_monotone_run(n, seed, alpha0R, delta, iters=200):
    p, z0 = load_preset(f"random-monotone:{n}:{seed}")
    config = AlgoConfig(AlgoKind.EAG_V, alpha0R / p.lipschitz, iters, anchor_delta=delta)
    return p, z0, run(p, config, z0, dense=True)


RUN_DRAWS = dict(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    alpha0R=st.floats(0.0, 0.74, exclude_min=True, exclude_max=True,
                      allow_subnormal=False),
    delta=st.sampled_from([2.0, 2.697]),
)


class TestStepsizeCondition:
    def test_one_eighth_passes(self):
        assert check_eag_c_stepsize(0.125)

    def test_just_above_published_edge_fails(self):
        # the second polynomial goes negative slightly below 0.1265
        assert not check_eag_c_stepsize(0.127)
        assert not check_eag_c_stepsize(0.1265)
        assert check_eag_c_stepsize(0.1264)

    def test_tiny_alpha_passes(self):
        assert check_eag_c_stepsize(1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractError):
            check_eag_c_stepsize(0.0)


def lyapunov_coefficients(alpha0, K, delta):
    """A_k and B_k as lyapunov_sequence applies them, with alpha_k.

    V of a dense EAG-V trace whose grad_sq is 1 and anchor_inner 0 is A_k;
    with the two swapped it is B_k.
    """
    p = make_bilinear(1.0)
    config = AlgoConfig(AlgoKind.EAG_V, alpha0, K, anchor_delta=delta)
    trace = run(p, config, p.point([1.0, 0.0]))
    one, zero = np.ones(K + 1), np.zeros(K + 1)
    A = lyapunov_sequence(dataclasses.replace(trace, grad_sq=one, anchor_inner=zero), p)
    B = lyapunov_sequence(dataclasses.replace(trace, grad_sq=zero, anchor_inner=one), p)
    return A, B, trace.alphas


class TestLyapunovCoefficients:
    """The closed forms B_k = (k+delta-1)/(delta-1) and
    A_k = alpha_k (k+delta)(k+delta-1)/(2(delta-1)) against the recurrences."""

    def test_closed_forms_at_delta_two(self):
        A, B, alphas = lyapunov_coefficients(0.618, 50, 2.0)
        for k in range(51):
            assert B[k] == k + 1  # exact
            assert A[k] == pytest.approx(alphas[k] * (k + 1) * (k + 2) / 2, rel=1e-15)

    def test_closed_forms_at_delta_three(self):
        A, B, alphas = lyapunov_coefficients(0.5, 30, 3.0)
        for k in range(31):
            assert B[k] == pytest.approx((k + 2) / 2, rel=1e-14)
            assert A[k] == pytest.approx(alphas[k] * (k + 3) * (k + 2) / 4, rel=1e-14)

    def test_recurrence_invariants(self):
        # B_0 = 1, B_{k+1} = B_k / (1 - beta_k), A_k = alpha_k B_k / (2 beta_k)
        delta = 2.5
        A, B, alphas = lyapunov_coefficients(0.3, 20, delta)
        assert B[0] == 1.0
        for k in range(20):
            beta = 1.0 / (k + delta)
            assert B[k + 1] == pytest.approx(B[k] / (1 - beta), rel=1e-14)
            assert A[k] == pytest.approx(alphas[k] / (2 * beta) * B[k], rel=1e-14)


class TestLyapunovSequence:
    def test_v0_is_alpha0_grad_sq(self):
        p = make_bilinear(1.0)
        z0 = p.point([1.0, 0.0])
        trace = run(p, AlgoConfig(AlgoKind.EAG_V, 0.618, 20), z0)
        V = lyapunov_sequence(trace, p)
        assert V[0] == pytest.approx(0.618 * grad_sq_norm(p, z0), rel=1e-14)

    def test_saddle_start_all_zero(self):
        p = make_bilinear(1.0)
        trace = run(p, AlgoConfig(AlgoKind.EAG_V, 0.618, 20), p.point([0.0, 0.0]))
        V = lyapunov_sequence(trace, p)
        assert np.all(V == 0.0)

    def test_nonincreasing_on_bilinear(self):
        p = make_bilinear(1.0)
        z0 = p.point([1.0, 0.0])
        trace = run(p, AlgoConfig(AlgoKind.EAG_V, 0.618, 1000), z0)
        V = lyapunov_sequence(trace, p)
        report = check_lyapunov_monotone(V, scale=1.0)
        assert report.passed

    def test_nonincreasing_on_ouyang(self):
        p = make_ouyang_qp(60)
        z0 = p.point(np.zeros(120))
        trace = run(p, AlgoConfig(AlgoKind.EAG_V, 0.618, 500), z0)
        V = lyapunov_sequence(trace, p)
        D2 = float(np.sum(p.saddle_point.coords**2))
        assert check_lyapunov_monotone(V, scale=D2).passed

    def test_nonincreasing_for_general_delta(self):
        p = make_bilinear(1.0)
        z0 = p.point([0.3, 0.8])
        trace = run(
            p, AlgoConfig(AlgoKind.EAG_V, 0.69, 500, anchor_delta=2.697), z0
        )
        V = lyapunov_sequence(trace, p)
        assert check_lyapunov_monotone(V, scale=1.0).passed

    def test_constant_sequence_passes(self):
        report = check_lyapunov_monotone(np.ones(100), scale=1.0)
        assert report.passed and report.first_violation is None

    def test_increase_is_reported_not_raised(self):
        report = check_lyapunov_monotone(np.array([0.0, 1.0, 0.5]), scale=1.0)
        assert not report.passed
        assert report.first_violation == 0
        assert report.violations[0][1] == pytest.approx(1.0)

    def test_requires_recorded_alphas(self):
        p = make_bilinear(1.0)
        trace = run(p, AlgoConfig(AlgoKind.EG, 0.1, 10), p.point([1.0, 0.0]))
        with pytest.raises(ContractError):
            lyapunov_sequence(trace, p)

    def test_requires_recorded_anchor_inner(self):
        p = make_bilinear(1.0)
        full = run(p, AlgoConfig(AlgoKind.EAG_V, 0.618, 10), p.point([1.0, 0.0]))
        trace = Trace(
            kind=full.kind,
            problem_name=full.problem_name,
            z0=full.z0,
            stored_ks=full.stored_ks,
            iterates=full.iterates,
            half_ks=full.half_ks,
            half_iterates=full.half_iterates,
            grad_sq=full.grad_sq,
            oracle_calls=full.oracle_calls,
            alphas=full.alphas,
        )
        with pytest.raises(ContractError, match="anchor inner"):
            lyapunov_sequence(trace, p)

    @settings(max_examples=60, deadline=None)
    @given(**RUN_DRAWS)
    def test_matches_fresh_oracle_reference_bitwise(self, n, seed, alpha0R, delta):
        p, _, trace = random_monotone_run(n, seed, alpha0R, delta)
        V = lyapunov_sequence(trace, p)
        assert V.tobytes() == lyapunov_reference(trace, p).tobytes()

    @pytest.mark.parametrize(
        "preset, kind, alpha0, iters",
        [
            ("bilinear-unit", AlgoKind.EAG_V, 0.618, 12_000),  # thinned
            ("huber-default", AlgoKind.EAG_C, 0.1, 2000),
            ("ouyang-200", AlgoKind.EAG_V, 0.618, 1000),
        ],
    )
    def test_matches_fresh_oracle_reference_on_presets(self, preset, kind, alpha0, iters):
        p, z0 = load_preset(preset)
        trace = run(p, AlgoConfig(kind, alpha0, iters), z0)
        assert trace.is_dense == (iters < 10_000)
        V = lyapunov_sequence(trace, p)
        assert V.tobytes() == lyapunov_reference(trace, p).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**RUN_DRAWS)
    def test_monotone_on_random_monotone_problems(self, n, seed, alpha0R, delta):
        p, z0, trace = random_monotone_run(n, seed, alpha0R, delta)
        D2 = float(np.sum((z0.coords - p.saddle_point.coords) ** 2))
        report = check_lyapunov_monotone(lyapunov_sequence(trace, p), p.lipschitz**2 * D2)
        assert report.passed, report.violations[:3]

    def test_thinned_trace_checks_subsequence(self):
        p = make_bilinear(1.0)
        z0 = p.point([1.0, 0.0])
        trace = run(p, AlgoConfig(AlgoKind.EAG_V, 0.618, 12_000), z0)
        assert not trace.is_dense
        V = lyapunov_sequence(trace, p)
        assert len(V) == len(trace.stored_ks)
        assert check_lyapunov_monotone(V, scale=1.0).passed

    def test_theorem_reconstruction_inequality(self):
        # (a_inf/4)(k+1)(k+2) ||G||^2 <= V_k + D^2 / a_inf along the run
        p, z0 = load_preset("huber-default")
        trace = run(p, AlgoConfig(AlgoKind.EAG_V, 0.618, 1000), z0)
        V = lyapunov_sequence(trace, p)
        ainf = eag_v_alpha_limit(0.618, 1.0)
        D2 = float(np.sum((z0.coords - p.saddle_point.coords) ** 2))
        ks = np.arange(trace.iters + 1)
        lhs = ainf / 4 * (ks + 1) * (ks + 2) * trace.grad_sq
        rhs = V + D2 / ainf
        assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-15)


class TestIntervalQuantities:
    def test_k_zero_alpha_eighth(self):
        chain = interval_quantities(0, 0.125)
        assert chain.ell == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert chain.upper == pytest.approx(1.0 / 7.0, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.125, 0.5])
    def test_chain_holds_up_to_thousand(self, alpha):
        for k in range(1001):
            interval_quantities(k, alpha)  # raises where the chain breaks

    def test_vanishing_alpha_keeps_ordering(self):
        chain = interval_quantities(5, 1e-8)
        assert chain.upper < 1e-6

    @pytest.mark.parametrize("alpha", [1e-8, 0.05, 0.125, 0.5])
    def test_block_matches_scalar_bitwise(self, alpha):
        names = [f.name for f in dataclasses.fields(IntervalChain)]
        block = interval_quantities(np.arange(3000), alpha)
        for k in range(0, 3000, 7):
            scalar = interval_quantities(k, alpha)
            assert [float(getattr(block, n)[k]).hex() for n in names] == [
                getattr(scalar, n).hex() for n in names
            ]

    @pytest.mark.parametrize("alpha", [0.05, 0.125, 0.5])
    def test_block_matches_scalar_bitwise_where_int64_squares_overflow(self, alpha):
        # int64 overflows in (k + 2) ** 2 above about 3.04e9; Python ints do not
        ks = [3 * 10**9, 4 * 10**9, 10**12]
        names = [f.name for f in dataclasses.fields(IntervalChain)]
        block = interval_quantities(np.array(ks), alpha)
        for i, k in enumerate(ks):
            scalar = interval_quantities(k, alpha)
            assert [float(getattr(block, n)[i]).hex() for n in names] == [
                getattr(scalar, n).hex() for n in names
            ]
            lower = 0.5 * (scalar.ell + scalar.mid)
            upper = 0.5 * (scalar.mid + scalar.upper)
            for tau_case, A in ((_tau_case1, lower), (_tau_case2, upper)):
                tau = tau_case(k, alpha, A)
                tau_block = tau_case(np.array([k]), alpha, np.array([A]))
                assert float(tau_block[0]).hex() == tau.hex()
                S = s_matrix(np.array([k]), alpha, np.array([A]), np.array([tau]),
                             np.array([upper]))
                assert S[0].tobytes() == s_matrix(k, alpha, A, tau, upper).tobytes()

    def test_chain_break_names_first_failing_step(self):
        # at alphaR = 1e-8 the chain's float margins vanish by k ~ 1e8
        with pytest.raises(CertificateError, match="k=123456789,"):
            interval_quantities(123456789, 1e-8)
        with pytest.raises(CertificateError, match="k=123456789,"):
            interval_quantities(np.array([5, 123456789, 123456790]), 1e-8)

    def test_domain_error(self):
        with pytest.raises(ContractError):
            interval_quantities(3, 0.51)
        with pytest.raises(ContractError):
            interval_quantities(3, 0.0)
        with pytest.raises(ContractError):
            interval_quantities(np.array([3, -1]), 0.125)


class TestEagCCertificate:
    def test_starting_value(self):
        certs = eag_c_certificate(0.125, 5)
        assert certs[0].A_k == pytest.approx(0.125 / 1.125, rel=1e-15)
        assert certs[0].A_k == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_full_thousand_step_chain(self):
        certs = eag_c_certificate(0.125, 1000)
        a = 0.125
        for c in certs:
            scale = abs(c.S).max()
            assert c.min_eig >= -1e-9 * scale
            assert abs(c.det) <= 1e-9 * scale**3
            assert c.interval_ok and c.verdict
            assert c.case_tag == "I_minus"
            assert c.A_k >= a * (c.k + 1) ** 2 / 2

    def test_null_vector_annihilates_case1_matrix(self):
        certs = eag_c_certificate(0.1, 200)
        for c in map(certs.__getitem__, range(0, 200, 10)):
            v = certificate_null_vector(c.k, 0.1, c.A_k)
            S = c.S
            resid = np.linalg.norm(S @ v)
            assert resid <= 1e-9 * abs(S).max() * np.linalg.norm(v)

    @pytest.mark.parametrize("k", [0, 3, 10, 100])
    def test_case2_formulas_directly(self, k):
        # synthetic A_k inside the upper half-interval exercises case 2
        a = 0.125
        chain = interval_quantities(k, a)
        A = 0.5 * (chain.mid + chain.upper)
        tau = _tau_case2(k, a, A)
        A_next = _a_next_case2(k, a, A)
        assert tau > 0
        S = s_matrix(k, a, A, tau, A_next)
        eigs = np.linalg.eigvalsh(S)
        scale = abs(S).max()
        assert eigs[0] >= -1e-9 * scale
        assert abs(np.linalg.det(S)) <= 1e-9 * scale**3
        nxt = interval_quantities(k + 1, a)
        assert A_next < nxt.upper  # case-2 recursion cannot escape upward

    def test_cases_agree_on_boundary(self):
        a, k = 0.12, 7
        mid = interval_quantities(k, a).mid
        assert _a_next_case1(k, a, mid) == pytest.approx(
            _a_next_case2(k, a, mid), rel=1e-12
        )

    @pytest.mark.parametrize(
        "alphaR, K",
        [(0.05, 2000), (0.1, 2000), (0.125, 2000),
         (0.125, 1), (0.125, EAGC_BLOCK), (0.125, EAGC_BLOCK + 1)],
    )
    def test_matches_per_step_reference_bitwise(self, alphaR, K):
        assert_same_certificates(eag_c_certificate(alphaR, K), eag_c_reference(alphaR, K))

    @settings(max_examples=60, deadline=None)
    @given(
        alphaR=st.floats(0.0, 0.125, exclude_min=True),
        rows=st.lists(
            st.tuples(st.integers(0, 10**12),
                      *[st.floats(0.0, 1e300, exclude_min=True)] * 3),
            min_size=1, max_size=40,
        ),
    )
    def test_s_matrix_stack_matches_scalar_calls_bitwise(self, alphaR, rows):
        # rows of (k, A_k, tau_k, A_next)
        k, A, tau, A_next = map(np.array, zip(*rows))
        stack = s_matrix(k, alphaR, A, tau, A_next)
        scalar = np.stack([s_matrix(r[0], alphaR, *r[1:]) for r in rows])
        assert stack.shape == (len(rows), 3, 3)
        assert stack.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("K", [1, EAGC_BLOCK + 1])
    def test_report_length_and_indexing(self, K):
        report = eag_c_certificate(0.125, K)
        assert len(report) == K and len(report.A) == K + 1
        assert_same_certificates([report[-1]], [report[K - 1]])
        assert_same_certificates([report[0]], [next(iter(report))])
        with pytest.raises(IndexError):
            report[K]
        with pytest.raises(IndexError):
            report[-K - 1]

    @pytest.mark.parametrize("j", [0, 37, EAGC_BLOCK - 1, EAGC_BLOCK, 2099])
    def test_indefinite_slack_matrix_fails_exactly_there(self, j, monkeypatch):
        indefinite_at(j, monkeypatch)
        certs = eag_c_certificate(0.125, 2100)
        assert [c.k for c in certs if not c.verdict] == [j]
        assert certs[j].min_eig < 0

    def test_interval_escape_raises(self, monkeypatch):
        import anchored_minimax.certificates as certs_mod

        # corrupt the recursion so A_k jumps far above u_k
        monkeypatch.setattr(certs_mod, "_a_next_case1", lambda k, a, A: A * 10)
        with pytest.raises(CertificateError, match="induction"):
            certs_mod.eag_c_certificate(0.125, 10)

    def test_rejects_invalid_stepsize(self):
        with pytest.raises(ContractError):
            eag_c_certificate(0.2, 10)

    def test_rejects_vacuous_interval_check(self):
        # u_k - ell_k = alphaR^2 (k+2)/(1 - alphaR^2) is 2e-16 at alphaR = 1e-8,
        # below the 1e-12 membership slack: no A_k could fail the test
        with pytest.raises(ContractError, match=r"alphaR = 1e-08: at k=0 "):
            eag_c_certificate(1e-8, 200)
        # at alphaR = 1e-5 the width outgrows the slack, which then overtakes
        # it at k = 1e7; the check runs before any step does
        with pytest.raises(ContractError, match=r"alphaR = 1e-05: at k=10000000 "):
            eag_c_certificate(1e-5, 10**7 + 1)
        assert all(c.verdict for c in eag_c_certificate(1e-5, 1000))

    @pytest.mark.parametrize("alphaR", [0.05, 0.125])
    def test_large_K_unchanged_by_vacuity_check(self, alphaR):
        assert_same_certificates(
            eag_c_certificate(alphaR, 50_000), eag_c_reference(alphaR, 50_000)
        )

    def test_soundness_certificate_implies_empirical_bound(self):
        # whenever the certificate passes for (alpha, K), the actual run obeys
        # the constant-step theorem with the matching constant
        alpha, K = 0.1, 500
        certs = eag_c_certificate(alpha, K)
        assert all(c.verdict for c in certs)
        const = 4 * (1 + alpha + alpha**2) / (alpha**2 * (1 + alpha))
        for name in ["bilinear-unit", "huber-default"]:
            p, z0 = load_preset(name)
            D2 = float(np.sum((z0.coords - p.saddle_point.coords) ** 2))
            trace = run(p, AlgoConfig(AlgoKind.EAG_C, alpha, K), z0)
            ks = np.arange(K + 1)
            assert np.all(trace.grad_sq <= const * D2 / (ks + 1) ** 2 * (1 + 1e-9))


class TestLyapunovGridInvariant:
    def test_alpha_grid_on_random_monotone(self):
        # small version of the acceptance sweep
        rng_alphas = np.linspace(0.05, 0.74, 5)
        for seed in range(3):
            p, z0 = load_preset(f"random-monotone:5:{seed}")
            D2 = float(np.sum((z0.coords - p.saddle_point.coords) ** 2))
            for a0 in rng_alphas:
                trace = run(p, AlgoConfig(AlgoKind.EAG_V, a0, 300), z0)
                V = lyapunov_sequence(trace, p)
                assert check_lyapunov_monotone(V, scale=D2).passed
