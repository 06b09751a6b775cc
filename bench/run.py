"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload certify-sweep --seed 0 --seconds 30 --trace 0

Run from the repository root (or any copy of it holding ``src/`` and
``bench/``).  The package is imported from that ``src/``; without it the
command fails.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  Human-readable lines come first, then one
``{"report": ...}`` line with provenance and check details, and the last line
is the result object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS is pinned to one thread before numpy is imported.
"""

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import time  # noqa: E402

SETUP_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from spec import SPEC, UNITS, WORKLOAD_NAMES  # noqa: E402

SETUP_SAMPLES = 10      # extra set-up measurements, each in a fresh process


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, print the set-up time, exit")
    return ap.parse_args(argv)


def import_package():
    """Import the package from this tree's src/ and refuse any other copy."""
    import anchored_minimax

    if Path(anchored_minimax.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: anchored_minimax imported from {anchored_minimax.__file__}, "
                 f"not from {SRC}")


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": BLAS_PIN,
    }


def git_sha() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values, q: float) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def per_op_medians(passes) -> list[float]:
    return [statistics.median(times) for times in zip(*(p.op_ms for p in passes))]


def setup_samples(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes that import and build the inputs."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(count):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_passes(workload, state, seconds: float, traced=None):
    """Closed loop of passes for ``seconds``; with ``traced``, alternate plain and traced."""
    plain, traced_passes = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(workload.run_pass(state))
        if traced is not None:
            traced_passes.append(traced())
        if time.perf_counter() - t0 >= seconds:
            return plain, traced_passes


def summarize_checks(passes):
    attempted = sum(p.checks.attempted for p in passes)
    failed = sum(p.checks.failed for p in passes)
    # repeated passes over the same inputs must reach the same verdicts
    consistent = len({(p.checks.attempted, p.checks.failed) for p in passes}) == 1
    failures = passes[0].checks.failures if passes else []
    return attempted, failed, consistent, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS, layer_probe

    workload = WORKLOADS[args.workload]
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        workdir = Path(tmp)
        inputs = workload.make_inputs(args.seed)
        state = workload.prepare(inputs, workdir)
        own_setup = time.perf_counter() - SETUP_T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0

        report = {"workload": args.workload, "trace": args.trace,
                  "provenance": provenance(args.seed)}
        if args.trace == 0:
            # half the set-up samples before the passes and half after, so that
            # a slow spell on the machine does not decide their median alone
            setup = [own_setup] + setup_samples(args, SETUP_SAMPLES // 2)
            plain, _ = run_passes(workload, state, args.seconds)
            setup += setup_samples(args, SETUP_SAMPLES - SETUP_SAMPLES // 2)
            all_passes = plain
            # every pass runs the same operations on the same inputs, so each
            # operation's latency is its median over passes; the percentiles are
            # taken over the operations of one pass
            ops = per_op_medians(plain)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(p.wall for p in plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "op_p50_ms": statistics.median(ops),
                "op_p99_ms": percentile(ops, 99),
            }
            names = [m["name"] for m in SPEC["end_to_end"]]
            report.update(setup_samples_s=setup, op_count=len(ops),
                          pass_walls_s=[p.wall for p in plain])
        else:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            with tracer.installed():
                tracer.phase = "setup"
                traced_state = workload.prepare(inputs, workdir)
            tracer.phase = "pass"

            def traced():
                with tracer.installed():
                    return workload.run_pass(traced_state, tracer.span)

            plain, traced_passes = run_passes(workload, state, args.seconds, traced)
            all_passes = plain + traced_passes
            tracer.phase = "probe"
            with tracer.installed():
                probe_info = layer_probe(workdir, tracer.span)
            measured = layer_metrics(tracer, "pass", len(traced_passes), "setup")
            measured.update(traced_passes[0].info)
            measured["tracing.overhead_s"] = (
                statistics.median(p.wall for p in traced_passes)
                - statistics.median(p.wall for p in plain)
            )
            probe = layer_metrics(tracer, "probe", 1)
            probe.update(probe_info)
            names = [m["name"] for m in SPEC["per_layer"]]
            metrics, sources = {}, {}
            for n in names:
                # a layer this workload never calls is measured by the probe
                metrics[n], sources[n] = measured.get(n), "workload"
                if metrics[n] is None:
                    metrics[n], sources[n] = probe[n], "probe"
            report.update(sources=sources,
                          spans=len(tracer.spans), traced_passes=len(traced_passes))

    attempted, failed, consistent, failures = summarize_checks(all_passes)
    report.update(passes=len(plain), attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, consistent=consistent,
                  first_failures=failures)
    info = all_passes[0].info
    if "csv_sha256" in info:
        report["csv_sha256"] = info["csv_sha256"]
    if "lowerbound.max_depth" in info:
        report["lb_max_depth"] = info["lowerbound.max_depth"]
        report["reach"] = {k: info[f"reach_{k}"] for k in ("attempted", "failed", "failures")}
    report["metrics"] = {n: metrics[n] for n in names}

    for n in names:
        print(f"{args.workload:18s} {n:40s} {metrics[n]:>16.6g} {UNITS[n]}")
    print(f"{args.workload:18s} {'fail_ratio':40s} {failed / attempted:>16.6g} ratio"
          f"  ({failed} of {attempted} checks failed)")
    if "lb_max_depth" in report:
        reach = report["reach"]
        print(f"{args.workload:18s} {'reach_fail_ratio':40s} "
              f"{reach['failed'] / reach['attempted']:>16.6g} ratio"
              f"  ({reach['failed']} of {reach['attempted']} untimed reach checks failed)")
        print(f"{args.workload:18s} {'lb_max_depth':40s} {report['lb_max_depth']:>16d} depth")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
