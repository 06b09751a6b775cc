"""In-memory spans around the package's module-level functions.

A ``Tracer`` replaces selected module attributes (``algorithms.run``,
``cli.load_preset``, ...) with wrappers that record one span per call:
name, phase, parent span, start and end.  Operator oracles are wrapped per
problem and folded into the innermost open span as a call count and a total
time, and into a per-preset tally.  Nothing is written until the run ends;
``layer_metrics`` turns the spans of one phase into per-layer numbers.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from anchored_minimax import algorithms, certificates, cli, lowerbound, problems


@dataclass
class Span:
    name: str
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    oracle_calls: int = 0
    oracle_s: float = 0.0
    work: float = 0.0       # iterations, points or steps, for rates
    nbytes: int = 0         # array bytes held by a returned Trace

    @property
    def duration(self) -> float:
        return self.end - self.start


def _trace_nbytes(trace) -> int:
    arrays = [trace.z0, trace.stored_ks, trace.half_ks, trace.grad_sq, trace.oracle_calls]
    arrays += trace.iterates + trace.half_iterates
    if trace.alphas is not None:
        arrays.append(trace.alphas)
    return sum(a.nbytes for a in arrays)


class Tracer:
    """Records spans while installed; ``phase`` tags every span and oracle call.

    Calls made inside a span named in ``MUTING`` are not recorded, so the
    untimed reach probe does not add to the timed layers' totals.
    """

    MUTING = {"lowerbound.probe"}

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.oracle: dict[tuple[str, str], list] = {}   # (phase, preset) -> [calls, s]
        self.phase = "pass"
        self.muted = False
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if self.muted:
            yield None
            return
        parent = self._open[-1] if self._open else None
        s = Span(name, self.phase, parent, perf_counter())
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        self.muted = name in self.MUTING
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()
            self.muted = False

    def traced_problem(self, problem, preset: str):
        """A copy of ``problem`` whose operator calls are timed and counted."""
        op = problem.operator

        def traced_op(z):
            if self.muted:
                return op(z)
            t0 = perf_counter()
            g = op(z)
            dt = perf_counter() - t0
            tally = self.oracle.setdefault((self.phase, preset), [0, 0.0])
            tally[0] += 1
            tally[1] += dt
            if self._open:
                s = self.spans[self._open[-1]]
                s.oracle_calls += 1
                s.oracle_s += dt
            return g

        return dataclasses.replace(problem, operator=traced_op)

    # -- installation ---------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if s is not None and after is not None:
                    after(s, args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the package's module-level entry points for the duration."""
        orig_load_preset = problems.load_preset
        orig_build = lowerbound.build_hard_instance

        def run_after(s, args, kwargs, trace):
            s.work = trace.iters
            s.nbytes = _trace_nbytes(trace)

        def load_preset(name):
            with self.span("problems.load_preset"):
                problem, z0 = orig_load_preset(name)
                return self.traced_problem(problem, name), z0

        def build_hard_instance(k, *args, **kwargs):
            with self.span("lowerbound.build_hard_instance"):
                inst = orig_build(k, *args, **kwargs)
                return dataclasses.replace(
                    inst, saddle=self.traced_problem(inst.saddle, "hard-instance")
                )

        traced_run = self._wrap("algorithms.run", algorithms.run, run_after)
        patches = [
            (algorithms, "run", traced_run),
            (cli, "run", traced_run),
            (cli, "main", self._wrap("cli.main", cli.main)),
            (problems, "load_preset", load_preset),
            (cli, "load_preset", load_preset),
            (problems, "integrate_flow", self._wrap(
                "problems.integrate_flow", problems.integrate_flow,
                lambda s, a, kw, out: setattr(s, "work", a[0].steps))),
            (certificates, "lyapunov_sequence", self._wrap(
                "certificates.lyapunov_sequence", certificates.lyapunov_sequence,
                lambda s, a, kw, out: setattr(s, "work", len(out)))),
            (certificates, "check_lyapunov_monotone", self._wrap(
                "certificates.check_lyapunov_monotone",
                certificates.check_lyapunov_monotone)),
            (certificates, "eag_c_certificate", self._wrap(
                "certificates.eag_c_certificate", certificates.eag_c_certificate,
                lambda s, a, kw, out: setattr(s, "work", len(out)))),
            (lowerbound, "build_hard_instance", build_hard_instance),
            (lowerbound, "krylov_min_residual", self._wrap(
                "lowerbound.krylov_min_residual", lowerbound.krylov_min_residual)),
            (lowerbound, "chebyshev_solver", self._wrap(
                "lowerbound.chebyshev_solver", lowerbound.chebyshev_solver)),
            (lowerbound, "verify_lower_bound", self._wrap(
                "lowerbound.verify_lower_bound", lowerbound.verify_lower_bound)),
        ]
        for module, attr, wrapper in patches:
            self._patch(module, attr, wrapper)
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    # -- aggregation ----------------------------------------------------

    def select(self, phase: str, name: str) -> list[Span]:
        return [s for s in self.spans if s.phase == phase and s.name == name]


def _per_pass(tr: Tracer, phase: str, name: str, passes: int) -> float | None:
    spans = tr.select(phase, name)
    return sum(s.duration for s in spans) / passes if spans else None


def _rate(spans: list[Span]) -> float | None:
    busy = sum(s.duration for s in spans)
    return sum(s.work for s in spans) / busy if spans and busy > 0 else None


def layer_metrics(tr: Tracer, phase: str, passes: int, setup_phase: str | None = None):
    """Per-layer numbers of one phase, per pass; None where the phase has no data.

    ``setup_phase`` adds the preset loading done once while building inputs.
    """
    out: dict[str, float | None] = {}
    calls = sum(v[0] for (ph, _), v in tr.oracle.items() if ph == phase)
    secs = sum(v[1] for (ph, _), v in tr.oracle.items() if ph == phase)
    out["core.oracle_calls"] = calls / passes if calls else None
    out["core.oracle_s"] = secs / passes if calls else None
    for preset in ("ouyang-200", "huber-default", "bilinear-unit"):
        c, s = tr.oracle.get((phase, preset), (0, 0.0))
        out[f"core.oracle_us_per_call.{preset}"] = 1e6 * s / c if c else None

    runs = tr.select(phase, "algorithms.run")
    iters = sum(s.work for s in runs)
    run_s = sum(s.duration for s in runs)
    out["algorithms.iters"] = iters / passes if runs else None
    out["algorithms.run_s"] = run_s / passes if runs else None
    out["algorithms.us_per_iter"] = 1e6 * run_s / iters if iters else None
    out["algorithms.step_overhead_us_per_iter"] = (
        1e6 * (run_s - sum(s.oracle_s for s in runs)) / iters if iters else None
    )
    out["algorithms.trace_bytes"] = max((s.nbytes for s in runs), default=None)

    out["certificates.sweep_s"] = _per_pass(tr, phase, "certificates.sweep", passes)
    out["certificates.lyapunov_points_per_s"] = _rate(
        tr.select(phase, "certificates.lyapunov_sequence"))
    out["certificates.eagc_steps_per_s"] = _rate(
        tr.select(phase, "certificates.eag_c_certificate"))

    for metric, span in (
        ("lowerbound.build_s", "lowerbound.build_hard_instance"),
        ("lowerbound.krylov_s", "lowerbound.krylov_min_residual"),
        ("lowerbound.chebyshev_s", "lowerbound.chebyshev_solver"),
        ("lowerbound.verify_s", "lowerbound.verify_lower_bound"),
    ):
        out[metric] = _per_pass(tr, phase, span, passes)
    # the reach check runs once per run, not once per pass
    probes = tr.select(phase, "lowerbound.probe")
    out["lowerbound.probe_s"] = (
        sum(s.duration for s in probes) / len(probes) if probes else None
    )

    loads = tr.select(phase, "problems.load_preset")
    load_s = sum(s.duration for s in loads) / passes
    if setup_phase is not None:
        setup_loads = tr.select(setup_phase, "problems.load_preset")
        loads = loads + setup_loads
        load_s += sum(s.duration for s in setup_loads)
    out["problems.load_preset_s"] = load_s if loads else None
    out["problems.flow_steps_per_s"] = _rate(tr.select(phase, "problems.integrate_flow"))

    mains = {i for i, s in enumerate(tr.spans) if s.phase == phase and s.name == "cli.main"}
    inner = sum(
        s.duration for s in tr.spans
        if s.parent in mains and s.name in ("algorithms.run", "problems.load_preset")
    )
    out["cli.emit_s"] = (
        (sum(tr.spans[i].duration for i in mains) - inner) / passes if mains else None
    )
    return out

