"""The benchmark's declaration: workloads, metrics, units and regression bounds.

``BENCHMARK.json`` at the repository root is this dictionary written out by
``python3 bench/suite.py --write-spec`` (or by a full suite run); the
benchmark's own tests check that the two agree.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 30,
    "workloads": [
        {
            "name": "ouyang-dense",
            "why": "the user-facing CLI run of EAG-V on the 400-d QP with --dense; "
                   "stresses the dense oracle, the step loop, recording and CSV emission",
        },
        {
            "name": "certify-sweep",
            "why": "240 Lyapunov-certified runs, mostly on 2-d to 16-d problems, the EAG-C proof "
                   "chain and both flows; per-step Python overhead, not the oracle",
        },
        {
            "name": "lowerbound-ladder",
            "why": "hard instances, Krylov and Chebyshev sandwich and every algorithm against "
                   "the floor, timed at depths 1..24; an untimed reach check up to k = 256 "
                   "gives lb_max_depth",
        },
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "op_p99_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [
        {"name": "core.oracle_calls", "unit": "count", "better": "lower"},
        {"name": "core.oracle_s", "unit": "s", "better": "lower"},
        {"name": "core.oracle_us_per_call.ouyang-200", "unit": "us", "better": "lower"},
        {"name": "core.oracle_us_per_call.huber-default", "unit": "us", "better": "lower"},
        {"name": "core.oracle_us_per_call.bilinear-unit", "unit": "us", "better": "lower"},
        {"name": "algorithms.iters", "unit": "count", "better": "higher"},
        {"name": "algorithms.run_s", "unit": "s", "better": "lower"},
        {"name": "algorithms.us_per_iter", "unit": "us", "better": "lower"},
        {"name": "algorithms.step_overhead_us_per_iter", "unit": "us", "better": "lower"},
        {"name": "algorithms.trace_bytes", "unit": "bytes", "better": "lower"},
        {"name": "certificates.sweep_s", "unit": "s", "better": "lower"},
        {"name": "certificates.lyapunov_points_per_s", "unit": "1/s", "better": "higher"},
        {"name": "certificates.eagc_steps_per_s", "unit": "1/s", "better": "higher"},
        {"name": "lowerbound.build_s", "unit": "s", "better": "lower"},
        {"name": "lowerbound.krylov_s", "unit": "s", "better": "lower"},
        {"name": "lowerbound.chebyshev_s", "unit": "s", "better": "lower"},
        {"name": "lowerbound.verify_s", "unit": "s", "better": "lower"},
        {"name": "lowerbound.probe_s", "unit": "s", "better": "lower"},
        {"name": "lowerbound.max_depth", "unit": "depth", "better": "higher"},
        {"name": "problems.load_preset_s", "unit": "s", "better": "lower"},
        {"name": "problems.flow_steps_per_s", "unit": "1/s", "better": "higher"},
        {"name": "cli.emit_s", "unit": "s", "better": "lower"},
        {"name": "cli.rows", "unit": "count", "better": "lower"},
        {"name": "cli.csv_bytes", "unit": "bytes", "better": "lower"},
        {"name": "tracing.overhead_s", "unit": "s", "better": "lower"},
    ],
}

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def spec_text() -> str:
    return json.dumps(SPEC, indent=2) + "\n"
