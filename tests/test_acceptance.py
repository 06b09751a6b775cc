"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test asserts its criterion at the stated tolerance, so the
pytest verdict doubles as the gate.
"""

import time

import numpy as np
import pytest

from anchored_minimax import (
    AlgoConfig,
    AlgoKind,
    build_hard_instance,
    chebyshev_nodes,
    chebyshev_solver,
    check_lyapunov_monotone,
    eag_c_certificate,
    eag_v_alpha_limit,
    eag_v_alpha_next,
    krylov_min_residual,
    load_preset,
    lyapunov_sequence,
    minimax_poly,
    run,
    verify_lower_bound,
)
from anchored_minimax.problems import FlowKind, FlowSpec, flow_closed_form, integrate_flow
from anchored_minimax.core import Point

BENCH = ["huber-default", "ouyang-200"]
SHIPPED = ["bilinear-unit", "huber-default", "ouyang-200", "random-monotone:8:0"]
RATE_ITERS = 10_000


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def dist_sq(problem, z0) -> float:
    return float(np.sum((z0.coords - problem.saddle_point.coords) ** 2))


@pytest.fixture(scope="module")
def problems():
    return {name: load_preset(name) for name in SHIPPED}


@pytest.fixture(scope="module")
def anchored_runs(problems):
    """EAG traces at the published step sizes, with wall times."""
    out = {}
    for name in BENCH:
        p, z0 = problems[name]
        R = p.lipschitz
        for kind, a in ((AlgoKind.EAG_V, 0.618 / R), (AlgoKind.EAG_C, 0.125 / R)):
            t0 = time.perf_counter()
            trace = run(p, AlgoConfig(kind, a, RATE_ITERS), z0)
            out[(name, kind)] = (trace, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def eg_runs(problems):
    out = {}
    for name in SHIPPED:
        p, z0 = problems[name]
        for aR in (0.1, 0.5):
            out[(name, aR)] = run(
                p, AlgoConfig(AlgoKind.EG, aR / p.lipschitz, RATE_ITERS), z0
            )
    return out


def test_criterion_01_eag_v_rate(problems, anchored_runs):
    worst = ""
    ok = True
    ks = np.arange(RATE_ITERS + 1)
    for name in BENCH:
        p, z0 = problems[name]
        trace, elapsed = anchored_runs[(name, AlgoKind.EAG_V)]
        D2 = dist_sq(p, z0)
        bound = 27.0 * p.lipschitz**2 * D2 / ((ks + 1) * (ks + 2))
        holds = bool(np.all(trace.grad_sq <= bound * (1 + 1e-9)))
        in_time = elapsed < 30.0
        ok &= holds and in_time
        margin = float((trace.grad_sq / bound).max())
        worst += f"{name}: sup ratio {margin:.4f}, {elapsed:.1f}s; "
    report(1, "eag-v-rate", ok, worst.strip("; "))


def test_criterion_02_eag_c_rate(problems, anchored_runs):
    detail = ""
    ok = True
    ks = np.arange(RATE_ITERS + 1)
    for name in BENCH:
        p, z0 = problems[name]
        trace, _ = anchored_runs[(name, AlgoKind.EAG_C)]
        D2 = dist_sq(p, z0)
        bound = 260.0 * p.lipschitz**2 * D2 / (ks + 1) ** 2
        holds = bool(np.all(trace.grad_sq <= bound * (1 + 1e-9)))
        ok &= holds
        detail += f"{name}: sup ratio {float((trace.grad_sq / bound).max()):.4f}; "
    report(2, "eag-c-rate", ok, detail.strip("; "))


def test_criterion_03_alpha_limit():
    t0 = time.perf_counter()
    limit = eag_v_alpha_limit(0.618, 1.0)
    a = 0.618
    for k in range(1000):
        a = eag_v_alpha_next(a, k, 1.0)
    elapsed = time.perf_counter() - t0
    ok = (0.4360 < limit < 0.4372) and (0.4366 < a < 0.437) and elapsed < 1.0
    report(
        3, "alpha-limit", ok,
        f"limit {limit:.6f}, alpha_1000 {a:.6f}, {elapsed:.2f}s",
    )


def test_criterion_04_lyapunov_certificate(problems):
    t0 = time.perf_counter()
    alphas = np.linspace(0.05, 0.74, 10)
    named = [problems[name] for name in SHIPPED]
    randoms = [load_preset(f"random-monotone:6:{seed}") for seed in range(1, 21)]
    violations = 0
    checked = 0
    for p, z0 in named + randoms:
        R = p.lipschitz
        D2 = dist_sq(p, z0)
        for a0 in alphas:
            trace = run(p, AlgoConfig(AlgoKind.EAG_V, a0 / R, 1000), z0, dense=True)
            V = lyapunov_sequence(trace, p)
            rep = check_lyapunov_monotone(V, scale=R * R * D2)
            violations += len(rep.violations)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    report(
        4, "lyapunov-certificate", ok,
        f"{checked} runs, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_05_eag_c_proof_certificate():
    t0 = time.perf_counter()
    alpha = 0.125
    certs = eag_c_certificate(alpha, 1000)
    ok = True
    worst_eig = 0.0
    worst_det = 0.0
    for c in certs:
        scale = float(abs(c.S).max())
        worst_eig = min(worst_eig, c.min_eig / scale)
        worst_det = max(worst_det, abs(c.det) / scale**3)
        ok &= c.min_eig >= -1e-9 * scale
        ok &= abs(c.det) <= 1e-9 * scale**3
        slack = 1e-12 * max(1.0, c.A_k)  # about the certificate's membership slack
        ok &= c.ell - slack <= c.A_k <= c.upper + slack
        ok &= c.A_k >= alpha * (c.k + 1) ** 2 / 2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(
        5, "eag-c-proof-certificate", ok,
        f"min rel eig {worst_eig:.1e}, max rel det {worst_det:.1e}, {elapsed:.1f}s",
    )


def test_criterion_06_lower_bound_sandwich():
    t0 = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for k in range(1, 11):
        inst = build_hard_instance(k, R=1.0, D=1.0)
        target = 1.0 / (2 * (k // 2) + 1) ** 2
        kry = krylov_min_residual(inst.A, inst.b, k)
        z = chebyshev_solver(inst.A, inst.b, k, 1.0)
        cheb = float(np.sum((inst.A @ z - inst.b) ** 2))
        rel = max(abs(kry - target), abs(cheb - target)) / target
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 1e-8
    inst = build_hard_instance(6, n=10)
    z0 = Point(np.zeros(2 * inst.n), inst.n)
    for kind in AlgoKind:
        iters = 4 if kind in (AlgoKind.EAG_C, AlgoKind.EAG_V, AlgoKind.EG, AlgoKind.ALT_GDA) else 7
        trace = run(inst.saddle, AlgoConfig(kind, 0.1, iters), z0, dense=True)
        rep = verify_lower_bound(inst, trace)
        ok &= rep.applicable and rep.verdict
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(
        6, "lower-bound-sandwich", ok,
        f"worst sandwich rel err {worst_rel:.1e}, all algorithms above floor, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_minimax_polynomial_values():
    grid = np.linspace(-1.0, 1.0, 100_000)
    ok = True
    worst_grid = 0.0
    worst_osc = 0.0
    for k in range(1, 13):
        poly = minimax_poly(k, 1.0)
        target = 1.0 / (2 * poly.m + 1)
        dense = float(np.abs(grid * poly(grid)).max())
        worst_grid = max(worst_grid, abs(dense - target))
        ok &= abs(dense - target) <= 1e-6
        lam = chebyshev_nodes(k, 1.0)
        vals = lam * poly(lam)
        osc = float(np.abs(np.abs(vals) - target).max())
        worst_osc = max(worst_osc, osc)
        ok &= osc <= 1e-10
        ok &= bool(np.all(np.sign(vals[:-1]) == -np.sign(vals[1:])))
    report(
        7, "minimax-poly-values", ok,
        f"grid err {worst_grid:.1e}, equioscillation err {worst_osc:.1e}",
    )


def test_criterion_08_flow_oracle():
    devs = {}
    for kind in (FlowKind.ANCHORED, FlowKind.MOREAU_YOSIDA):
        spec = FlowSpec(kind, z0=(1.0, 0.0), t_end=20.0, steps=10_000, lam=0.01,
                        t_start=1e-2)
        traj = integrate_flow(spec)
        closed = flow_closed_form(spec, traj.ts)
        devs[kind.value] = float(np.linalg.norm(traj.zs - closed, axis=1).max())
    ok = all(d <= 1e-6 for d in devs.values())
    report(
        8, "flow-oracle", ok,
        ", ".join(f"{k}: {v:.1e}" for k, v in devs.items()),
    )


def test_criterion_09_eg_best_iterate(problems, eg_runs):
    ks = np.arange(RATE_ITERS + 1)
    ok = True
    worst = 0.0
    for name in SHIPPED:
        p, z0 = problems[name]
        D2 = dist_sq(p, z0)
        R = p.lipschitz
        for aR in (0.1, 0.5):
            trace = eg_runs[(name, aR)]
            alpha = aR / R
            best = np.minimum.accumulate(trace.grad_sq)
            bound = D2 / (alpha**2 * (1 - aR**2) * (ks + 1))
            ratio = float((best / bound).max())
            worst = max(worst, ratio)
            ok &= bool(np.all(best <= bound * (1 + 1e-9)))
    report(9, "eg-best-iterate", ok, f"sup ratio {worst:.4f}")


def test_criterion_10_figure_ordering(problems, anchored_runs, eg_runs):
    detail = ""
    ok = True
    preset_alpha = {"huber-default": 0.1, "ouyang-200": 0.5}
    for name in BENCH:
        p, z0 = problems[name]
        aR = preset_alpha[name]
        eag_v = anchored_runs[(name, AlgoKind.EAG_V)][0].grad_sq[RATE_ITERS]
        eg = eg_runs[(name, aR)].grad_sq[RATE_ITERS]
        popov = run(
            p, AlgoConfig(AlgoKind.POPOV, aR / p.lipschitz, RATE_ITERS), z0
        ).grad_sq[RATE_ITERS]
        ok &= eag_v < eg and eag_v < popov
        detail += f"{name}: eag-v {eag_v:.2e} < eg {eg:.2e}, popov {popov:.2e}; "
    report(10, "figure-ordering", ok, detail.strip("; "))
