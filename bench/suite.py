"""Run every workload untraced and traced, print all metrics, write the results.

    python3 bench/suite.py [--seed 0] [--seconds 30] [--out bench/out/results.json]

Each workload runs twice in a fresh ``bench/run.py`` process: once with
tracing off for the end-to-end metrics and once traced for the per-layer
metrics and the tracing overhead.  The command prints every metric with its
unit, checks the layer numbers against the baseline table in ROADMAP.md
(flagging rows off by more than 2x), writes ``BENCHMARK.json`` from
``spec.SPEC`` and the full reports to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from spec import SPEC, SPEC_PATH, UNITS, WORKLOAD_NAMES, spec_text  # noqa: E402
from workloads import OUYANG_ITERS  # noqa: E402

# ROADMAP item 1 baselines: (row, workload, metric, baseline value, unit)
BASELINES = [
    ("oracle ouyang-200", "ouyang-dense", "core.oracle_us_per_call.ouyang-200", 11.3, "us"),
    ("oracle huber-default", "certify-sweep", "core.oracle_us_per_call.huber-default", 0.7, "us"),
    ("oracle bilinear-unit", "certify-sweep", "core.oracle_us_per_call.bilinear-unit", 0.4, "us"),
    ("eag-v run loop ouyang-200", "ouyang-dense", "algorithms.us_per_iter", 29.8, "us"),
    # 690 MB for 1e5 dense iterations; the iterate store grows linearly in iters
    ("dense-run RSS", "ouyang-dense", "peak_rss_mb", 690.0 * OUYANG_ITERS / 100_000, "MB"),
    ("criterion 04 sweep", "certify-sweep", "certificates.sweep_s", 2.9, "s"),
]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{name} (trace {trace}) failed:\n{out.stderr}")
    lines = out.stdout.splitlines()
    return {**json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def baseline_rows(results: dict) -> list[dict]:
    rows = []
    for row, workload, metric, base, unit in BASELINES:
        run = results[workload]["trace0" if metric in
                                {m["name"] for m in SPEC["end_to_end"]} else "trace1"]
        value = run["metrics"][metric]
        ratio = value / base
        rows.append({"row": row, "workload": workload, "metric": metric, "unit": unit,
                     "baseline": base, "measured": value, "ratio": ratio,
                     "off_by_2x": not 0.5 <= ratio <= 2.0})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "results.json")
    ap.add_argument("--write-spec", action="store_true",
                    help="only write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    SPEC_PATH.write_text(spec_text())
    if args.write_spec:
        return 0

    results = {}
    for name in WORKLOAD_NAMES:
        results[name] = {f"trace{t}": run_workload(name, args.seed, args.seconds, t)
                         for t in (0, 1)}
        plain, traced = results[name]["trace0"], results[name]["trace1"]
        print(f"\n== {name}  ({plain['passes']} passes, {plain['attempted']} checks)")
        for metric, value in plain["metrics"].items():
            print(f"  {metric:44s} {value:16.6g} {UNITS[metric]}")
        print(f"  {'fail_ratio':44s} {plain['fail_ratio']:16.6g} ratio")
        if "lb_max_depth" in plain:
            print(f"  {'lb_max_depth':44s} {plain['lb_max_depth']:16d} depth")
        print(f"  -- traced ({traced['traced_passes']} traced passes)")
        for metric, value in traced["metrics"].items():
            source = traced["sources"][metric]
            note = "" if source == "workload" else f"  [{source}]"
            print(f"  {metric:44s} {value:16.6g} {UNITS[metric]}{note}")

    rows = baseline_rows(results)
    print("\n== baseline table (ROADMAP item 1)")
    for r in rows:
        flag = "  ** off by more than 2x" if r["off_by_2x"] else ""
        print(f"  {r['row']:28s} baseline {r['baseline']:10.4g} measured "
              f"{r['measured']:10.4g} {r['unit']:3s} x{r['ratio']:.2f}{flag}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                    "workloads": results, "baseline": rows}, indent=2))
    print(f"\nwrote {args.out} and {SPEC_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
