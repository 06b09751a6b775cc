"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with one client: a pass starts when the
previous one has finished, and every operation inside a pass waits for the
one before it.  ``make_inputs(seed)`` returns plain data and is the only
place the seed is used; ``prepare`` turns the inputs into program objects
(this is the input-construction part of set-up); ``run_pass`` times the
workload body and then checks its outputs outside the timed region.

The package is called only through module attributes (``algorithms.run``,
``cli.main``, ...) so that a ``tracing.Tracer`` can wrap the calls.
"""

from __future__ import annotations

import csv
import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from anchored_minimax import algorithms, certificates, cli, core, lowerbound, problems

# Oracle calls per iteration, used to spend a depth-k budget of k calls.
ORACLE_CALLS_PER_ITER = {
    algorithms.AlgoKind.EAG_C: 2,
    algorithms.AlgoKind.EAG_V: 2,
    algorithms.AlgoKind.EG: 2,
    algorithms.AlgoKind.ALT_GDA: 2,
    algorithms.AlgoKind.POPOV: 1,
    algorithms.AlgoKind.SIMGD_A: 1,
    algorithms.AlgoKind.SIM_GD: 1,
}

SANDWICH_RTOL = 1e-8
FLOW_TOL = 1e-6
EAGC_TOL = 1e-9


def no_span(name: str):
    return nullcontext()


class Checks:
    """Counts output checks; a failed check is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class PassResult:
    wall: float                                   # seconds in the timed body
    op_ms: list[float]                            # latency of each operation
    checks: Checks
    info: dict = field(default_factory=dict)      # per-pass facts for the report


# ---------------------------------------------------------------------------
# ouyang-dense: the CLI run command with every iteration emitted
# ---------------------------------------------------------------------------

OUYANG_ITERS = 50_000


class OuyangDense:
    name = "ouyang-dense"

    @staticmethod
    def make_inputs(seed: int) -> dict:
        # the preset's starting point is fixed, so the seed has nothing to vary
        return {
            "argv": ["run", "--problem", "ouyang-200", "--algo", "eag-v",
                     "--iters", str(OUYANG_ITERS), "--dense"],
            "iters": OUYANG_ITERS,
        }

    @staticmethod
    def prepare(inputs: dict, workdir: Path) -> dict:
        out = workdir / "ouyang-dense.csv"
        return {"argv": inputs["argv"] + ["--out", str(out)], "out": out,
                "iters": inputs["iters"]}

    @staticmethod
    def run_pass(state: dict, span=no_span) -> PassResult:
        checks = Checks()
        t0 = perf_counter()
        code = cli.main(list(state["argv"]))
        wall = perf_counter() - t0
        checks.record(code == 0, f"cli exit code {code}")
        info = check_run_csv(state["out"], state["iters"], checks)
        state["out"].unlink(missing_ok=True)
        return PassResult(wall, [1e3 * wall], checks, info)


def check_run_csv(path: Path, iters: int, checks: Checks) -> dict:
    """Every row has grad_sq <= bound and oracle_calls = 2k; rows are 0..iters."""
    data = path.read_bytes() if path.exists() else b""
    rows = 0
    if data:
        reader = csv.reader(data.decode().splitlines())
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        for row in reader:
            k = int(row[col["k"]])
            ok = (
                k == rows
                and float(row[col["grad_sq"]]) <= float(row[col["bound"]])
                and int(row[col["oracle_calls"]]) == 2 * k
            )
            checks.record(ok, f"csv row k={k}")
            rows += 1
    checks.record(rows == iters + 1, f"csv has {rows} rows, expected {iters + 1}")
    return {"cli.rows": rows, "cli.csv_bytes": len(data),
            "csv_sha256": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# certify-sweep: Lyapunov sweep, EAG-C proof chain, flow oracles
# ---------------------------------------------------------------------------

SHIPPED = ["bilinear-unit", "huber-default", "ouyang-200", "random-monotone:8:0"]


class CertifySweep:
    name = "certify-sweep"

    @staticmethod
    def make_inputs(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        draws = sorted(int(s) for s in rng.choice(1_000_000, size=20, replace=False))
        return {
            "presets": SHIPPED + [f"random-monotone:6:{s}" for s in draws],
            "alphas": [float(a) for a in np.linspace(0.05, 0.74, 10)],
            "iters": 1000,
            "eagc_alphaR": 0.125,
            "eagc_K": 50_000,
            "flow_steps": 10_000,
        }

    @staticmethod
    def prepare(inputs: dict, workdir: Path) -> dict:
        loaded = []
        for name in inputs["presets"]:
            problem, z0 = problems.load_preset(name)
            d2 = float(np.sum((z0.coords - problem.saddle_point.coords) ** 2))
            loaded.append((name, problem, z0, problem.lipschitz**2 * d2))
        flows = [
            problems.FlowSpec(kind, z0=(1.0, 0.0), t_end=20.0,
                              steps=inputs["flow_steps"], lam=0.01, t_start=1e-2)
            for kind in problems.FlowKind
        ]
        return {"problems": loaded, "flows": flows, **inputs}

    @staticmethod
    def run_pass(state: dict, span=no_span) -> PassResult:
        checks = Checks()
        op_ms = []
        verdicts = []
        t0 = perf_counter()
        with span("certificates.sweep"):
            for name, p, z0, scale in state["problems"]:
                for a0 in state["alphas"]:
                    t = perf_counter()
                    config = algorithms.AlgoConfig(
                        algorithms.AlgoKind.EAG_V, a0 / p.lipschitz, state["iters"])
                    trace = algorithms.run(p, config, z0, dense=True)
                    V = certificates.lyapunov_sequence(trace, p)
                    rep = certificates.check_lyapunov_monotone(V, scale)
                    op_ms.append(1e3 * (perf_counter() - t))
                    verdicts.append((f"lyapunov {name} alpha0={a0:.4f}", rep))
        certs = certificates.eag_c_certificate(state["eagc_alphaR"], state["eagc_K"])
        trajectories = [problems.integrate_flow(spec) for spec in state["flows"]]
        wall = perf_counter() - t0

        for what, rep in verdicts:
            checks.record(rep.passed, what)
        for c in certs:
            scale = float(np.abs(c.S).max())
            checks.record(c.verdict and abs(c.det) <= EAGC_TOL * scale**3, f"eagc k={c.k}")
        checks.record(len(certs) == state["eagc_K"], f"eagc returned {len(certs)} steps")
        for spec, traj in zip(state["flows"], trajectories):
            closed = problems.flow_closed_form(spec, traj.ts)
            dev = float(np.linalg.norm(traj.zs - closed, axis=1).max())
            checks.record(dev <= FLOW_TOL, f"flow {spec.kind.value} deviation {dev:.2e}")
        return PassResult(wall, op_ms, checks)


# ---------------------------------------------------------------------------
# lowerbound-ladder: hard instances, sandwich and algorithms at every depth
# ---------------------------------------------------------------------------

# The timed ladder stops while the sandwich error is still ten times below
# the 1e-8 gate on every draw (worst 8e-10 at k = 24 over 60 seeds; the error
# grows about fourfold every two depths).  The untimed reach check covers the
# depths above it: today 28..35 miss the gate on some or all draws and every
# k >= 36 raises CertificateError.  Its verdicts feed ``lowerbound.max_depth``
# and the reach counts, not the pass's checks.
LADDER_DEPTHS = list(range(1, 25))
PROBE_DEPTHS = list(range(25, 36)) + [36, 48, 64, 96, 128, 192, 256]


def _draw(rng: np.random.Generator, k: int) -> tuple[int, float, float, int]:
    R = float(2.0 ** rng.uniform(-1.0, 1.0))
    D = float(2.0 ** rng.uniform(-1.0, 1.0))
    return k, R, D, k + 2 + int(rng.integers(0, 9))


def sandwich(k: int, R: float, D: float, n: int) -> tuple[object, bool, str]:
    """Build the depth-k instance and check closed form = Krylov = Chebyshev."""
    try:
        inst = lowerbound.build_hard_instance(k, R, D, n)
    except (core.ContractError, core.CertificateError) as exc:
        return None, False, f"k={k} build: {exc}"
    A = inst.A
    target = R**2 * D**2 / (2 * (k // 2) + 1) ** 2
    kry = lowerbound.krylov_min_residual(A, inst.b, k)
    z = lowerbound.chebyshev_solver(A, inst.b, k, R)
    cheb = float(np.sum((A @ z - inst.b) ** 2))
    rel = max(abs(kry - target), abs(cheb - target)) / target
    return inst, rel <= SANDWICH_RTOL, f"k={k} sandwich rel err {rel:.2e}"


def check_depth(draw, alphaR: float, checks: Checks) -> tuple[bool, list[float]]:
    """Sandwich plus every algorithm against the floor at one depth.

    Records one check per ``AlgoKind`` and returns whether all passed and
    each check's latency in ms (the depth's build and sandwich time is
    shared equally among the checks).
    """
    k, R, D, n = draw
    kinds = list(algorithms.AlgoKind)
    t0 = perf_counter()
    inst, sandwich_ok, what = sandwich(k, R, D, n)
    shared = perf_counter() - t0
    z0 = core.Point(np.zeros(2 * n), n)
    all_ok, op_ms = True, []
    for kind in kinds:
        t = perf_counter()
        ok, detail = sandwich_ok, what
        if inst is not None:
            iters = max(1, k // ORACLE_CALLS_PER_ITER[kind])
            config = algorithms.AlgoConfig(kind, alphaR / R, iters)
            try:
                trace = algorithms.run(inst.saddle, config, z0, dense=True)
                rep = lowerbound.verify_lower_bound(inst, trace)
                ok = ok and rep.applicable and rep.verdict
                detail += f", {kind.value}: {rep.message or rep.verdict}"
            except core.NumericalDivergenceError as exc:
                ok, detail = False, f"{detail}, {kind.value}: {exc}"
        op_ms.append(1e3 * (shared / len(kinds) + perf_counter() - t))
        all_ok &= checks.record(ok, detail)
    return all_ok, op_ms


def max_passing_depth(depth_ok: dict[int, bool]) -> int:
    """The largest d such that every tested depth <= d passed."""
    best = 0
    for k in sorted(depth_ok):
        if not depth_ok[k]:
            break
        best = k
    return best


class LowerboundLadder:
    name = "lowerbound-ladder"

    @staticmethod
    def make_inputs(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "ladder": [_draw(rng, k) for k in LADDER_DEPTHS],
            "probe": [_draw(rng, k) for k in PROBE_DEPTHS],
            "alphaR": 0.1,
        }

    @staticmethod
    def prepare(inputs: dict, workdir: Path) -> dict:
        return dict(inputs)

    @staticmethod
    def run_pass(state: dict, span=no_span) -> PassResult:
        checks = Checks()
        op_ms = []
        depth_ok: dict[int, bool] = {}
        start = perf_counter()
        for draw in state["ladder"]:
            depth_ok[draw[0]], times = check_depth(draw, state["alphaR"], checks)
            op_ms += times
        wall = perf_counter() - start

        # the reach check is untimed, runs once per state and is kept apart
        # from the pass's checks: it measures how deep the bound holds
        if "reach" not in state:
            reach, reach_ok = Checks(), {}
            with span("lowerbound.probe"):
                for draw in state["probe"]:
                    reach_ok[draw[0]] = check_depth(draw, state["alphaR"], reach)[0]
            state["reach"] = reach, reach_ok
        reach, reach_ok = state["reach"]
        return PassResult(wall, op_ms, checks, {
            "lowerbound.max_depth": max_passing_depth({**depth_ok, **reach_ok}),
            "reach_attempted": reach.attempted,
            "reach_failed": reach.failed,
            "reach_failures": reach.failures,
        })


WORKLOADS = {w.name: w for w in (OuyangDense, CertifySweep, LowerboundLadder)}


# ---------------------------------------------------------------------------
# layer probe: one small call into every layer
# ---------------------------------------------------------------------------


def layer_probe(workdir: Path, span=no_span) -> dict:
    """Call every layer once at a small fixed size; returns per-pass facts.

    A traced run uses its spans for the layers the workload itself never
    calls, so that every workload reports every per-layer metric.
    """
    info = {}
    for preset in ("ouyang-200", "huber-default", "bilinear-unit"):
        p, z0 = problems.load_preset(preset)
        config = algorithms.AlgoConfig(algorithms.AlgoKind.EAG_V, 0.5 / p.lipschitz, 1000)
        trace = algorithms.run(p, config, z0, dense=True)
        with span("certificates.sweep"):
            V = certificates.lyapunov_sequence(trace, p)
            certificates.check_lyapunov_monotone(V, 1.0)
    certificates.eag_c_certificate(0.125, 1000)
    problems.integrate_flow(problems.FlowSpec(problems.FlowKind.ANCHORED, (1.0, 0.0),
                                              20.0, 1000))
    depth_ok = {}
    for k in LADDER_DEPTHS:
        inst, depth_ok[k], _ = sandwich(k, 1.0, 1.0, k + 2)
        if k == 6:
            kind = algorithms.AlgoKind.EAG_V
            trace = algorithms.run(inst.saddle, algorithms.AlgoConfig(kind, 0.1, 3),
                                   core.Point(np.zeros(2 * inst.n), inst.n), dense=True)
            lowerbound.verify_lower_bound(inst, trace)
    with span("lowerbound.probe"):
        for k in PROBE_DEPTHS:
            depth_ok[k] = sandwich(k, 1.0, 1.0, k + 2)[1]
    info["lowerbound.max_depth"] = max_passing_depth(depth_ok)

    out = workdir / "probe.csv"
    cli.main(["run", "--problem", "bilinear-unit", "--algo", "eag-v",
              "--iters", "1000", "--dense", "--out", str(out)])
    data = out.read_bytes()
    out.unlink()
    info["cli.rows"] = data.count(b"\n") - 1
    info["cli.csv_bytes"] = len(data)
    return info
