import csv
import io
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from anchored_minimax import (
    AlgoKind,
    Point,
    check_eag_c_stepsize,
    cli,
    eag_v_alpha_limit,
    lowerbound,
    make_bilinear,
    run,
    theoretical_bound,
)
from anchored_minimax.certificates import EAGC_BLOCK
from anchored_minimax.cli import main

from test_certificates import eag_c_reference

KINDS = [k.value for k in AlgoKind]


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def with_unknown_saddle(monkeypatch):
    """Make the preset name "no-saddle" a bilinear problem with saddle_point=None."""
    load_preset = cli.load_preset

    def load(name):
        if name == "no-saddle":
            problem = replace(make_bilinear(), saddle_point=None)
            return problem, Point(np.array([1.0, 0.0]), 1)
        return load_preset(name)

    monkeypatch.setattr(cli, "load_preset", load)


def run_csv_reference(trace, problem, config, z0, bound=True):
    """The CSV of `run` emitted row by row through csv.writer, as it was
    before the columnar writer: one scalar theoretical_bound call per row,
    and one distance per row from a second run that keeps its iterates."""
    kind, alpha, R = config.kind, config.alpha0, problem.lipschitz
    zs = problem.saddle_point.coords if problem.saddle_point is not None else None
    D = float(np.linalg.norm(z0.coords - zs)) if zs is not None else None
    with_bound = (
        bound and D is not None and kind in (AlgoKind.EAG_C, AlgoKind.EAG_V, AlgoKind.EG)
    )
    if with_bound and kind == AlgoKind.EAG_C and not check_eag_c_stepsize(alpha * R):
        with_bound = False
    if with_bound and kind == AlgoKind.EG and not alpha * R < 1:
        with_bound = False
    ainf = (
        eag_v_alpha_limit(alpha, R) if with_bound and kind == AlgoKind.EAG_V else None
    )
    with_alpha = trace.alphas is not None and kind == AlgoKind.EAG_V
    header = ["k", "grad_sq"]
    header += ["bound"] if with_bound else []
    header += ["alpha_k"] if with_alpha else []
    header += ["oracle_calls"]
    header += ["dist_to_saddle_sq"] if zs is not None else []
    if zs is not None:
        kept = run(problem, config, z0, dense=len(trace.stored_ks) == trace.iters + 1)
        dists = (float(np.sum((kept.iterate(k) - zs) ** 2)) for k in trace.stored_ks)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    for k in trace.stored_ks.tolist():
        row = [str(k), f"{trace.grad_sq[k]:.17g}"]
        if with_bound:
            b = theoretical_bound(kind, k, R, D, alpha=alpha, alpha_inf=ainf)
            row.append(f"{b:.17g}")
        if with_alpha:
            row.append(f"{trace.alphas[k]:.17g}")
        row.append(str(int(trace.oracle_calls[k])))
        if zs is not None:
            row.append(f"{next(dists):.17g}")
        w.writerow(row)
    return buf.getvalue().encode()


def run_with_reference(argv, out, capsys, monkeypatch):
    """Run `run` with ``argv`` into ``out``; return its trace and the reference CSV."""
    seen = {}
    real_run = cli.run

    def recording_run(problem, config, z0, **kwargs):
        seen.update(problem=problem, config=config, z0=z0)
        seen["trace"] = real_run(problem, config, z0, **kwargs)
        return seen["trace"]

    monkeypatch.setattr(cli, "run", recording_run)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # EAG-C at 0.1265
        assert invoke(["run", *argv, "--out", str(out)], capsys)[0] == 0
        return seen["trace"], run_csv_reference(**seen, bound="--no-bound" not in argv)


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

    @pytest.mark.parametrize(
        "algo, has_bound", [("eag-v", False), ("eag-c", False), ("eg", True)]
    )
    def test_bound_column_only_where_the_rate_is_proved(
        self, algo, has_bound, tmp_path, capsys
    ):
        # the anchored rates are proved at delta = 2; EG ignores delta
        out = tmp_path / "d3.csv"
        code, _, _ = invoke(
            ["run", "--problem", "huber-default", "--algo", algo, "--alpha", "0.1",
             "--anchor-delta", "3", "--iters", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert ("bound" in header) == has_bound and len(rows) == 4

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

    @pytest.mark.parametrize(
        "line, dense, bound",
        [("dense=no", False, True), ("dense=No", False, True), ("dense=1", True, True),
         ("bound=false", False, False), ("bound=YES", False, True)],
    )
    def test_config_file_flag_values(self, line, dense, bound, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"problem=bilinear-unit\nalgo=eg\nalpha=0.1\niters=12000\n{line}\n")
        out = tmp_path / "run.csv"
        code, _, _ = invoke(["run", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        header, got = read_csv(out)
        assert (len(got) == 12001) == dense  # above 10^4 iterations, thinned
        assert ("bound" in header) == bound

    @pytest.mark.parametrize("line", ["dense=maybe", "bound=", "dense=on"])
    def test_config_file_bad_flag_value_exit_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"problem=bilinear-unit\nalgo=eg\nalpha=0.1\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "invalid value" in capsys.readouterr().err

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
        with_unknown_saddle(monkeypatch)
        new = tmp_path / "new.csv"
        trace, ref = run_with_reference(argv, new, capsys, monkeypatch)
        assert trace.iterates == []  # the distances were folded during the run
        assert new.read_bytes() == ref
        header, rows = read_csv(new)
        assert ("dist_to_saddle_sq" in header) == (argv[1] != "no-saddle")
        assert len(rows) > cli.EMIT_BLOCK

    @pytest.mark.parametrize(
        "argv",
        [
            *(["--problem", "huber-default", "--algo", a, "--alpha", "0.1",
               "--iters", "1500"] for a in KINDS),
            *(["--problem", "huber-default", "--algo", a, "--alpha", "0.1",
               "--iters", "20000"] for a in KINDS),
            ["--problem", "ouyang-200", "--algo", "eag-v", "--iters", "2000", "--dense"],
            ["--problem", "no-saddle", "--algo", "eg", "--alpha", "0.1",
             "--iters", "600"],
            ["--problem", "huber-default", "--algo", "eag-v", "--alpha0", "0.618",
             "--iters", "1500", "--no-bound"],
            ["--problem", "ouyang-200", "--algo", "eag-c", "--alpha", "0.1265",
             "--iters", "1500"],
            ["--problem", "bilinear-unit", "--algo", "eg", "--alpha", "1",
             "--iters", "1500"],
        ],
        ids=[*(f"{a}-dense" for a in KINDS), *(f"{a}-thinned" for a in KINDS),
             "ouyang-200", "no-saddle", "no-bound", "eag-c-beyond-theorem",
             "eg-beyond-theorem"],
    )
    def test_columnar_csv_matches_row_by_row_reference(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        with_unknown_saddle(monkeypatch)
        out = tmp_path / "run.csv"
        trace, want = run_with_reference(argv, out, capsys, monkeypatch)
        assert out.read_bytes() == want
        assert len(trace.stored_ks) > cli.EMIT_BLOCK


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

    @pytest.mark.parametrize(
        "alphaR, K", [(0.125, 1), (0.125, EAGC_BLOCK + 1), (0.05, 3000)]
    )
    def test_eagc_table_matches_per_step_reference(self, alphaR, K, tmp_path, capsys):
        out = tmp_path / "eagc.csv"
        code, _, _ = invoke(
            ["certify", "eagc", "--alphaR", str(alphaR), "--k", str(K), "--out", str(out)],
            capsys,
        )
        assert code == 0
        fmt = "{:.17g}".format
        rows = [["k", "A_k", "tau_k", "min_eig", "det", "case", "ell", "u", "verdict"]]
        for c in eag_c_reference(alphaR, K):
            rows.append([str(c.k), *map(fmt, (c.A_k, c.tau_k, c.min_eig, c.det)),
                         c.case_tag, fmt(c.ell), fmt(c.upper), str(int(c.verdict))])
        assert out.read_bytes() == "".join(",".join(r) + "\r\n" for r in rows).encode()

    def test_eagc_reports_first_failing_step(self, capsys, monkeypatch):
        import anchored_minimax.certificates as certs_mod

        original = certs_mod.s_matrix

        def indefinite_at_37(k, alphaR, A_k, tau_k, A_next):
            S = original(k, alphaR, A_k, tau_k, A_next)
            for i in np.flatnonzero(k == 37):
                S[i, 0, 0] = -np.abs(S[i]).max()
            return S

        monkeypatch.setattr(certs_mod, "s_matrix", indefinite_at_37)
        code, out, err = invoke(["certify", "eagc", "--alphaR", "0.125", "--k", "100"],
                                capsys)
        assert code == 1 and "FAIL" in out
        assert "first failure at k=37" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alphaR", "1e-8", "--k", "200"],  # vacuous interval check
            ["--alphaR", "0.2", "--k", "200"],   # fails the step-size conditions
            ["--alphaR", "0.125", "--k", "0"],
        ],
        ids=["vacuous", "stepsize", "k0"],
    )
    def test_eagc_bad_input_exit_2(self, argv, capsys):
        code, out, err = invoke(["certify", "eagc", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_eagc_vacuous_psd_check_exit_2(self, capsys):
        # lambda_2(S_k) sits within the PSD tolerance from k = 281 on
        code, out, err = invoke(["certify", "eagc", "--alphaR", "3e-4", "--k", "20000"],
                                capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "at k=281" in err and "vacuous" in err

    def test_eagc_broken_induction_exit_1(self, capsys, monkeypatch):
        import anchored_minimax.certificates as certs_mod

        # an A_1 far above u_1 contradicts the proof induction
        monkeypatch.setattr(certs_mod, "_a_next_case1", lambda k, a, A: 1e6)
        code, out, err = invoke(["certify", "eagc", "--alphaR", "0.125", "--k", "10"],
                                capsys)
        assert code == 1 and out == ""
        assert "certificate failure" in err and "A_1" in err

    def test_lyapunov_pass(self, capsys):
        code, out, _ = invoke(
            ["certify", "lyapunov", "--problem", "ouyang-200",
             "--alpha0", "0.618", "--iters", "300"],
            capsys,
        )
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("iters", ["300", "20000"], ids=["dense", "thinned"])
    def test_lyapunov_run_keeps_no_iterates(self, iters, tmp_path, capsys, monkeypatch):
        # V reads grad_sq, alphas and anchor_inner only: the same output from
        # a run that keeps every stored iterate
        real_run, traces = cli.run, []

        def recording_run(*args, **kwargs):
            traces.append(real_run(*args, **kwargs))
            return traces[-1]

        def keeping_run(*args, keep, **kwargs):
            return recording_run(*args, **kwargs)

        argv = ["certify", "lyapunov", "--problem", "bilinear-unit", "--iters", iters]
        monkeypatch.setattr(cli, "run", recording_run)
        got = invoke(argv + ["--out", str(tmp_path / "a.csv")], capsys)
        monkeypatch.setattr(cli, "run", keeping_run)
        want = invoke(argv + ["--out", str(tmp_path / "b.csv")], capsys)
        assert got == want and got[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert traces[0].iterates == []
        assert len(traces[1].iterates) == len(traces[1].stored_ks)


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

    @pytest.mark.parametrize(
        "argv, code",
        [(["--algo", "eag-v", "--iters", "0"], 2), (["--algo", "eag-v", "--alpha", "0.9"], 2),
         (["--algo", "sim-gd", "--alpha", "1e200"], 3)],
        ids=["zero-iters", "eag-v-step", "divergence"],
    )
    def test_algorithm_fails_before_anything_is_printed(self, argv, code, capsys):
        got, out, err = invoke(["lowerbound", "--k", "6", *argv], capsys)
        assert (got, out) == (code, "")
        assert err.startswith("error: " if code == 2 else "numerical abort: ")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [1, 7])
    def test_runs_only_the_checked_iterations(self, kind, k, monkeypatch, capsys):
        # iterate j spends cost * j operator calls and is checked while that
        # is at most k, so the run stops at the last checked iterate
        traces = []
        real_run = cli.run

        def recording_run(*args, **kwargs):
            traces.append(real_run(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "run", recording_run)
        assert invoke(["lowerbound", "--k", str(k), "--algo", kind], capsys)[0] in (0, 1)
        cost = int(traces[0].oracle_calls[1])
        assert traces[0].iters == max(1, k // cost)

    def test_one_basis_and_no_dense_matrix(self, monkeypatch, capsys):
        # the sandwich and the span check share the instance's closed-form
        # basis, build no Gram-Schmidt basis, and apply A as its diagonal
        builds = []
        build = lowerbound._dct1_basis

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(lowerbound, "_dct1_basis", counted)
        monkeypatch.setattr(lowerbound, "_krylov_basis", lambda *a: pytest.fail("CGS2 build"))
        monkeypatch.setattr(
            lowerbound.HardInstance, "A", property(lambda self: pytest.fail("read A"))
        )
        code, out, _ = invoke(["lowerbound", "--k", "64", "--algo", "popov"], capsys)
        assert code == 0
        assert "popov on hard instance: PASS" in out
        assert len(builds) == 1


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


def test_hard_spec_as_run_problem(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, _, _ = invoke(
        ["run", "--problem", "hard:4", "--algo", "eag-v", "--alpha0", "0.5",
         "--iters", "8", "--out", str(out)],
        capsys,
    )
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 9
    inst = lowerbound.build_hard_instance(4)
    zs = inst.saddle.saddle_point.coords
    assert float(rows[0][-1]) == pytest.approx(float(zs @ zs))  # started at the origin


def test_file_named_like_a_preset_does_not_shadow_it(tmp_path, capsys, monkeypatch):
    argv = ["run", "--problem", "bilinear-unit", "--algo", "eag-v", "--iters", "5"]
    assert invoke([*argv, "--out", str(tmp_path / "want.csv")], capsys)[0] == 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bilinear-unit").write_text("hello\n")
    assert invoke([*argv, "--out", "got.csv"], capsys)[0] == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["run", "--algo", "eg", "--alpha", "0.1"], ["certify", "lyapunov"]],
    ids=["run", "certify"],
)
def test_seed_option_is_gone(argv, capsys):
    # random-monotone:<n>:<seed> is the one spelling of a seeded problem
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--problem", "random-monotone:4:3", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_seed_environment_variable_is_not_read(tmp_path):
    # it used to set the default of --seed, and "abc" ended in a traceback
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "ANCHORED_MINIMAX_SEED": "abc"}
    proc = subprocess.run(
        [sys.executable, "-m", "anchored_minimax.cli", "run", "--problem", "bilinear-unit",
         "--algo", "eag-v", "--iters", "5", "--out", "run.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(read_csv(tmp_path / "run.csv")[1]) == 6


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["run", "--problem", "bilinear-unit", "--algo", "eag-v",
          "--alpha0", "0.8", "--iters", "3"], 2, "error: "),
        (["lowerbound", "--k", "4", "--algo", "eag-v", "--alpha", "0.8"], 2, "error: "),
        (["lowerbound", "--k", "4", "--algo", "eg", "--alpha", "0"], 2, "error: "),
        (["flow", "--kind", "anchored", "--overlay-algo", "eag-v",
          "--overlay-alpha", "0.8"], 2, "error: "),
        (["flow", "--kind", "anchored", "--overlay-algo", "eg",
          "--overlay-alpha", "0"], 2, "error: "),
        (["flow", "--kind", "anchored", "--overlay-algo", "sim-gd",
          "--overlay-alpha", "1e200", "--steps", "100"], 3, "numerical abort: "),
        (["run", "--problem", "random-monotone:x:1", "--algo", "eg",
          "--alpha", "0.1"], 2, "error: "),
        (["run", "--config", "algo-foo.cfg"], 2, "usage: "),
        (["run", "--problem", "bilinear-unit", "--algo", "eg", "--alpha", "inf"],
         2, "error: "),
        (["flow", "--kind", "anchored", "--t-end", "inf"], 2, "error: "),
        (["lowerbound", "--k", "4", "--D", "0"], 2, "error: "),
        (["lowerbound", "--k", "4", "--D", "1e-200"], 2, "error: "),
        (["lowerbound", "--k", "4", "--R", "1e200", "--D", "1e200"], 2, "error: "),
        (["lowerbound", "--k", "4", "--R", "1e-160", "--D", "1e160"], 2, "error: "),
        (["lowerbound", "--k", "6", "--algo", "eag-v", "--iters", "0"], 2, "error: "),
        (["run", "--problem", "hard:6:1:1:7", "--algo", "eag-v", "--alpha0", "0.5"],
         2, "error: "),
    ],
    ids=["run-eag-v-step", "lowerbound-eag-v-step", "lowerbound-eg-zero-step",
         "flow-eag-v-step", "flow-eg-zero-step", "flow-divergence",
         "preset-not-an-int", "config-choice", "run-infinite-step", "flow-infinite-end",
         "lowerbound-zero-D", "lowerbound-underflow-D", "lowerbound-overflow-RD",
         "lowerbound-overflow-D-squared", "lowerbound-zero-iters", "hard-spec-small-n"],
)
def test_package_errors_map_to_exit_codes(tmp_path, argv, code, prefix):
    # a real process, so an escaping exception shows as its traceback
    (tmp_path / "algo-foo.cfg").write_text("problem=bilinear-unit\nalgo=foo\nalpha=0.1\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "anchored_minimax.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix)
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


def test_dense_run_holds_no_iterates(tmp_path):
    # 50 001 iterates of 400 floats would be 160 MB; the run's own columns,
    # its one block of iterates and the interpreter fit well under 100 MB.
    # Linux carries ru_maxrss across exec, so a run spawned straight from this
    # process would report this process's peak: a small intermediate spawns
    # it and reads the run's own peak from RUSAGE_CHILDREN.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    script = (
        "import resource, subprocess, sys\n"
        "cli = [sys.executable, '-m', 'anchored_minimax.cli']\n"
        "code = subprocess.call(cli + sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    argv = ["run", "--problem", "ouyang-200", "--algo", "eag-v", "--iters", "50000",
            "--dense", "--out", str(tmp_path / "dense.csv")]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    code, maxrss = map(int, proc.stdout.split())
    assert code == 0
    rss_mb = maxrss / 2**20 if sys.platform == "darwin" else maxrss / 2**10
    assert rss_mb < 100, f"peak RSS {rss_mb:.0f} MB"
    assert (tmp_path / "dense.csv").read_bytes().count(b"\n") == 50_002
