"""Tests of the benchmark itself: inputs, checks, output format, spec.

    python3 -m pytest bench/tests -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spec  # noqa: E402
import workloads  # noqa: E402
from anchored_minimax import lowerbound  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.make_inputs(11) == w.make_inputs(11)


def test_other_seed_changes_random_draws():
    a = workloads.CertifySweep.make_inputs(1)["presets"]
    b = workloads.CertifySweep.make_inputs(2)["presets"]
    assert a[:4] == b[:4] == workloads.SHIPPED
    assert set(a[4:]).isdisjoint(b[4:])
    assert all(p.startswith("random-monotone:6:") for p in a[4:] + b[4:])

    la = workloads.LowerboundLadder.make_inputs(1)
    lb = workloads.LowerboundLadder.make_inputs(2)
    for key in ("ladder", "probe"):
        assert [d[0] for d in la[key]] == [d[0] for d in lb[key]]
        assert all(da[1:] != db[1:] for da, db in zip(la[key], lb[key]))
        assert all(n >= k + 2 for k, _, _, n in la[key] + lb[key])


def test_injected_csv_failure_is_counted(tmp_path):
    state = workloads.OuyangDense.prepare(
        {"argv": ["run", "--problem", "ouyang-200", "--algo", "eag-v",
                  "--iters", "300", "--dense"], "iters": 300},
        tmp_path,
    )
    clean = workloads.OuyangDense.run_pass(state)
    assert clean.checks.failed == 0
    assert clean.checks.attempted == 1 + 301 + 1

    workloads.cli.main(state["argv"])
    lines = state["out"].read_text().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    row[header.index("grad_sq")] = "1e300"
    lines[5] = ",".join(row)
    state["out"].write_text("\r\n".join(lines) + "\r\n")
    checks = workloads.Checks()
    workloads.check_run_csv(state["out"], 300, checks)
    assert checks.failed == 1
    assert checks.failures == ["csv row k=4"]


def test_injected_sandwich_failure_raises_fail_ratio(monkeypatch):
    state = {"ladder": [(k, 1.0, 1.0, k + 2) for k in range(1, 7)], "probe": [],
             "alphaR": 0.1}
    clean = workloads.LowerboundLadder.run_pass(state)
    assert clean.checks.failed == 0
    assert clean.info["lowerbound.max_depth"] == 6

    real = lowerbound.krylov_min_residual
    monkeypatch.setattr(lowerbound, "krylov_min_residual",
                        lambda A, b, k: real(A, b, k) * (1.0 if k < 4 else 1.5))
    broken = workloads.LowerboundLadder.run_pass(state)
    assert broken.checks.attempted == clean.checks.attempted
    assert broken.checks.failed == 3 * len(workloads.algorithms.AlgoKind)
    assert broken.info["lowerbound.max_depth"] == 3


def test_reach_check_is_kept_apart_and_run_once():
    draws = [(k, 1.0, 1.0, k + 2) for k in (1, 2, 36)]
    state = {"ladder": draws[:2], "probe": draws[2:], "alphaR": 0.1}
    first = workloads.LowerboundLadder.run_pass(state)
    assert first.checks.failed == 0
    assert first.info["reach_failed"] == first.info["reach_attempted"] > 0
    assert first.info["lowerbound.max_depth"] == 2
    reach = state["reach"]
    second = workloads.LowerboundLadder.run_pass(state)
    assert state["reach"] is reach
    assert second.info == first.info


def test_benchmark_json_is_the_spec():
    assert json.loads(spec.SPEC_PATH.read_text()) == spec.SPEC


def test_spec_names_units_and_bounds():
    s = spec.SPEC
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(s["workloads"]) <= 8
    names = [w["name"] for w in s["workloads"]]
    names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in s["workloads"])
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in s["per_layer"])
    assert all(UNIT.match(m["unit"]) for m in s["end_to_end"] + s["per_layer"])
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_emitted_metric_is_valid(trace):
    out = run_bench("--workload", "lowerbound-ladder", "--seed", "3",
                    "--seconds", "0.5", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    # the known defect stays in view through the untimed reach check
    report = json.loads(out.stdout.splitlines()[-2])["report"]
    assert 0 < report["reach"]["failed"] < report["reach"]["attempted"]
    assert workloads.LADDER_DEPTHS[-1] <= report["lb_max_depth"] < 36
    expected = spec.SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for name, m in result["metrics"].items():
        assert NAME.match(name)
        assert m["unit"] == spec.UNITS[name]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    shutil.copy(spec.SPEC_PATH, tmp_path)
    out = run_bench("--workload", "certify-sweep", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
