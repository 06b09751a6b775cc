import csv
import io
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from anchored_minimax import Point, cli, make_bilinear
from anchored_minimax.cli import main


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class TestRunCommand:
    def test_basic_run_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code, _, _ = invoke(
            ["run", "--problem", "bilinear-unit", "--algo", "eag-v",
             "--alpha0", "0.618", "--iters", "50", "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["k", "grad_sq", "bound", "alpha_k", "oracle_calls",
                          "dist_to_saddle_sq"]
        assert len(rows) == 51
        for row in rows:
            assert float(row[1]) <= float(row[2]) * (1 + 1e-9)
        assert int(rows[10][4]) == 20  # two oracle calls per iteration

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["run", "--problem", "huber-default", "--algo", "eg",
                "--alpha", "0.1", "--iters", "120"]
        assert invoke(argv + ["--out", str(a)], capsys)[0] == 0
        assert invoke(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_preset_default_stepsize(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = invoke(
            ["run", "--problem", "huber-default", "--algo", "popov",
             "--iters", "10", "--out", str(out)],
            capsys,
        )
        assert code == 0  # alpha defaulted from the preset table

    def test_simgd_a_needs_no_stepsize(self, tmp_path, capsys):
        out = tmp_path / "sa.csv"
        code, _, _ = invoke(
            ["run", "--problem", "bilinear-unit", "--algo", "simgd-a",
             "--iters", "200", "--out", str(out)],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[-1][1]) < float(rows[0][1])  # converging

    def test_eagc_beyond_theorem_runs_without_bound_column(self, tmp_path, capsys):
        # 0.1265 narrowly fails the exact polynomial conditions: the run
        # proceeds with a warning and the bound column is suppressed
        out = tmp_path / "oc.csv"
        with pytest.warns(RuntimeWarning):
            code, _, _ = invoke(
                ["run", "--problem", "ouyang-200", "--algo", "eag-c",
                 "--alpha", "0.1265", "--iters", "20", "--out", str(out)],
                capsys,
            )
        assert code == 0
        header, _ = read_csv(out)
        assert "bound" not in header

    def test_eagc_preset_step_has_bound_column(self, tmp_path, capsys):
        out = tmp_path / "oc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = invoke(
                ["run", "--problem", "ouyang-200", "--algo", "eag-c",
                 "--iters", "20", "--out", str(out)],
                capsys,
            )
        assert code == 0
        header, rows = read_csv(out)
        assert header[:3] == ["k", "grad_sq", "bound"]
        assert all(float(r[1]) <= float(r[2]) for r in rows)

    def test_unknown_preset_exit_2(self, capsys):
        code, _, err = invoke(
            ["run", "--problem", "nope", "--algo", "eg", "--alpha", "0.1"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_missing_stepsize_exit_2(self, capsys):
        code, _, err = invoke(
            ["run", "--problem", "random-monotone:4:0", "--algo", "sim-gd",
             "--iters", "5"],
            capsys,
        )
        assert code == 2

    def test_divergence_exit_3(self, capsys):
        code, _, err = invoke(
            ["run", "--problem", "bilinear-unit", "--algo", "sim-gd",
             "--alpha", "0.9", "--iters", "5000"],
            capsys,
        )
        assert code == 3
        assert "abort" in err

    def test_grad_sq_reevaluates_from_reloaded_iterate(self, tmp_path, capsys):
        from anchored_minimax import grad_sq_norm, load_preset
        from anchored_minimax.algorithms import AlgoConfig, AlgoKind, run

        out = tmp_path / "r.csv"
        argv = ["run", "--problem", "huber-default", "--algo", "eag-v",
                "--alpha0", "0.618", "--iters", "100", "--out", str(out)]
        assert invoke(argv, capsys)[0] == 0
        header, rows = read_csv(out)
        problem, z0 = load_preset("huber-default")
        trace = run(problem, AlgoConfig(AlgoKind.EAG_V, 0.618, 100), z0, dense=True)
        rng = np.random.default_rng(0)
        for i in rng.choice(len(rows), size=100):
            row = rows[int(i)]
            k = int(row[0])
            z = problem.point(trace.iterate(k))
            assert float(row[1]) == grad_sq_norm(problem, z)

    def test_log_thinned_emission(self, tmp_path, capsys):
        out = tmp_path / "thin.csv"
        code, _, _ = invoke(
            ["run", "--problem", "bilinear-unit", "--algo", "eg",
             "--alpha", "0.1", "--iters", "30000", "--out", str(out)],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        ks = [int(r[0]) for r in rows]
        assert len(ks) < 1300
        assert ks[-1] == 30000
        assert list(range(0, 1001)) == ks[:1001]

    def test_config_file_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("problem=bilinear-unit\nalgo=eg\nalpha=0.1\niters=7\n")
        out1 = tmp_path / "one.csv"
        code, _, _ = invoke(
            ["run", "--config", str(cfg), "--out", str(out1)], capsys
        )
        assert code == 0
        _, rows = read_csv(out1)
        assert len(rows) == 8
        out2 = tmp_path / "two.csv"
        code, _, _ = invoke(
            ["run", "--config", str(cfg), "--iters", "3", "--out", str(out2)], capsys
        )
        assert code == 0
        _, rows = read_csv(out2)
        assert len(rows) == 4  # explicit flag beat the config value

    def test_config_file_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("problem=bilinear-unit\nalgo=eg\nalpha=0.1\nitres=5\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'itres'" in err and "'run'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--problem", "ouyang-200", "--algo", "eag-v", "--iters", "1100", "--dense"],
            ["--problem", "bilinear-unit", "--algo", "eg", "--alpha", "0.1",
             "--iters", "30000"],
            ["--problem", "no-saddle", "--algo", "eg", "--alpha", "0.1",
             "--iters", "600"],
        ],
        ids=["dense", "thinned", "no-saddle"],
    )
    def test_distance_column_matches_per_row_reference(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        load_preset = cli.load_preset

        def with_unknown_saddle(name):
            if name == "no-saddle":
                problem = replace(make_bilinear(), saddle_point=None)
                return problem, Point(np.array([1.0, 0.0]), 1)
            return load_preset(name)

        def per_row(trace, zs):
            for k in trace.stored_ks.tolist():
                yield float(np.sum((trace.iterate(k) - zs) ** 2))

        monkeypatch.setattr(cli, "load_preset", with_unknown_saddle)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        assert invoke(["run", *argv, "--out", str(new)], capsys)[0] == 0
        monkeypatch.setattr(cli, "_dist_to_saddle_sq", per_row)
        assert invoke(["run", *argv, "--out", str(ref)], capsys)[0] == 0
        assert new.read_bytes() == ref.read_bytes()
        header, rows = read_csv(new)
        assert ("dist_to_saddle_sq" in header) == (argv[1] != "no-saddle")
        assert len(rows) > cli.DIST_BLOCK

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ANCHORED_MINIMAX_SEED", "3")
        out = tmp_path / "s.csv"
        code, _, _ = invoke(
            ["run", "--problem", "random-monotone:4", "--algo", "eg",
             "--alpha", "0.1", "--iters", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        out2 = tmp_path / "s2.csv"
        monkeypatch.delenv("ANCHORED_MINIMAX_SEED")
        code, _, _ = invoke(
            ["run", "--problem", "random-monotone:4:3", "--algo", "eg",
             "--alpha", "0.1", "--iters", "5", "--out", str(out2)],
            capsys,
        )
        assert out.read_bytes() == out2.read_bytes()


class TestCertifyCommand:
    def test_stepsize_pass(self, capsys):
        code, out, _ = invoke(["certify", "stepsize", "--alphaR", "0.125"], capsys)
        assert code == 0 and "PASS" in out

    def test_stepsize_fail(self, capsys):
        code, out, _ = invoke(["certify", "stepsize", "--alphaR", "0.127"], capsys)
        assert code == 1 and "FAIL" in out

    def test_eagc_pass_with_table(self, tmp_path, capsys):
        out = tmp_path / "eagc.csv"
        code, stdout, _ = invoke(
            ["certify", "eagc", "--alphaR", "0.125", "--k", "200",
             "--out", str(out)],
            capsys,
        )
        assert code == 0 and "PASS" in stdout
        header, rows = read_csv(out)
        assert header[0] == "k" and len(rows) == 200
        assert all(r[-1] == "1" for r in rows)

    def test_eagc_reports_first_failing_step(self, capsys, monkeypatch):
        import anchored_minimax.certificates as certs_mod

        original = certs_mod.s_matrix

        def indefinite_at_37(k, alphaR, A_k, tau_k, A_next):
            S = original(k, alphaR, A_k, tau_k, A_next)
            if k == 37:
                S[0, 0] = -np.abs(S).max()
            return S

        monkeypatch.setattr(certs_mod, "s_matrix", indefinite_at_37)
        code, out, err = invoke(["certify", "eagc", "--alphaR", "0.125", "--k", "100"],
                                capsys)
        assert code == 1 and "FAIL" in out
        assert "first failure at k=37" in err

    def test_lyapunov_pass(self, capsys):
        code, out, _ = invoke(
            ["certify", "lyapunov", "--problem", "ouyang-200",
             "--alpha0", "0.618", "--iters", "300"],
            capsys,
        )
        assert code == 0 and "PASS" in out


class TestLowerboundCommand:
    def test_depth_four_all_one_twenty_fifth(self, capsys):
        code, out, _ = invoke(["lowerbound", "--k", "4"], capsys)
        assert code == 0
        vals = [float(line.split()[1]) for line in out.splitlines()[:3]]
        assert vals == pytest.approx([0.04, 0.04, 0.04], rel=1e-8)

    def test_depth_one_is_R2D2(self, capsys):
        code, out, _ = invoke(
            ["lowerbound", "--k", "1", "--R", "2.0", "--D", "1.5"], capsys
        )
        assert code == 0
        vals = [float(line.split()[1]) for line in out.splitlines()[:3]]
        assert vals == pytest.approx([9.0, 9.0, 9.0], rel=1e-8)

    def test_algorithm_overlay(self, capsys):
        code, out, _ = invoke(
            ["lowerbound", "--k", "6", "--algo", "eag-v", "--alpha", "0.5"], capsys
        )
        assert code == 0
        assert "eag-v on hard instance: PASS" in out


class TestFlowCommand:
    def test_anchored_deviation_column(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        code, _, _ = invoke(
            ["flow", "--kind", "anchored", "--t-end", "2.0", "--steps", "1000",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "x_closed", "y_closed", "x_rk4", "y_rk4", "deviation"]
        assert max(float(r[5]) for r in rows) <= 1e-6

    def test_moreau_yosida_spiral(self, tmp_path, capsys):
        out = tmp_path / "my.csv"
        code, _, _ = invoke(
            ["flow", "--kind", "moreau-yosida", "--lam", "0.01",
             "--t-end", "10.0", "--steps", "2000", "--out", str(out)],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        assert max(float(r[5]) for r in rows) <= 1e-6

    def test_coarse_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "coarse.csv"
        code, _, _ = invoke(
            ["flow", "--kind", "anchored", "--t-end", "20.0", "--steps", "10",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        devs = [float(r[5]) for r in rows]
        assert all(np.isfinite(devs)) and max(devs) > 1e-6

    def test_overlay_discrete_trajectory(self, tmp_path, capsys):
        out = tmp_path / "ov.csv"
        code, _, _ = invoke(
            ["flow", "--kind", "anchored", "--t-end", "5.0", "--steps", "50",
             "--overlay-algo", "eag-c", "--overlay-alpha", "0.1",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header[-2:] == ["x_disc", "y_disc"]
        assert len(rows) == 51


def test_instance_file_as_run_problem(tmp_path, capsys):
    from anchored_minimax import build_hard_instance, save_instance

    inst = build_hard_instance(4)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    out = tmp_path / "run.csv"
    code, _, _ = invoke(
        ["run", "--problem", str(path), "--algo", "eag-v", "--alpha0", "0.5",
         "--iters", "8", "--out", str(out)],
        capsys,
    )
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 9


@pytest.mark.parametrize(
    "field, text, needle",
    [
        ("lambdas", "-1,-0.5,0.5", "lambdas"),
        ("lambdas", "-1,nan,0.5,1", "lambdas"),
        ("mu", "-0.1,0.6,0.4,0.1", "mu"),
    ],
)
def test_bad_instance_file_exits_2(tmp_path, capsys, field, text, needle):
    from anchored_minimax import build_hard_instance, save_instance

    path = tmp_path / "inst.txt"
    save_instance(build_hard_instance(2), path)
    lines = [
        f"{field}={text}" if line.startswith(f"{field}=") else line
        for line in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    code, _, err = invoke(
        ["run", "--problem", str(path), "--algo", "eag-v", "--alpha0", "0.5",
         "--iters", "8", "--out", str(tmp_path / "run.csv")],
        capsys,
    )
    assert code == 2
    assert f"instance field {needle}" in err
