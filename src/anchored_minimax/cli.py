"""Command-line front end: runs, certificates, lower-bound labs, flows.

Exit codes: 0 success, 1 certificate or bound failure, 2 usage error,
3 numerical abort. All data output is RFC-4180 CSV with '.' decimals and 17
significant digits; identical command lines produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .algorithms import AlgoConfig, AlgoKind, eag_v_alpha_limit, run, theoretical_bound
from .certificates import (
    check_eag_c_stepsize,
    check_lyapunov_monotone,
    eag_c_certificate,
    lyapunov_sequence,
)
from .core import CertificateError, ContractError, NumericalDivergenceError, Point
from .lowerbound import (
    build_hard_instance,
    chebyshev_solver,
    krylov_min_residual,
    load_instance,
    verify_lower_bound,
)
from .problems import (
    PRESET_STEP_SIZES,
    FlowKind,
    FlowSpec,
    flow_closed_form,
    integrate_flow,
    load_preset,
    preset_names,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

LOG_THIN_THRESHOLD = 10_000
# stored iterates stacked per block of the distance column; bounds its copy
DIST_BLOCK = 512


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit_csv(path: str | None, header: list[str], rows) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    finally:
        if path:
            out.close()


def _emission_ks(iters: int, dense: bool) -> list[int]:
    if dense or iters <= LOG_THIN_THRESHOLD:
        return list(range(iters + 1))
    ks = set(range(min(1001, iters + 1)))
    v = 1.0
    while v <= iters:
        ks.add(int(round(v)))
        v *= 1.1
    ks.add(iters)
    return sorted(k for k in ks if k <= iters)


def _dist_to_saddle_sq(trace, ks: list[int], zs: np.ndarray):
    """Yield ||z^k - z*||^2 for each k in ``ks``, computed a block at a time."""
    idx = np.searchsorted(trace.stored_ks, ks)
    for lo in range(0, len(ks), DIST_BLOCK):
        Z = np.stack([trace.iterates[i] for i in idx[lo:lo + DIST_BLOCK]])
        yield from np.sum((Z - zs) ** 2, axis=1).tolist()


def _resolve_problem(name: str, seed: int):
    if os.path.exists(name):
        inst = load_instance(name)
        return inst.saddle, Point(np.zeros(2 * inst.n), inst.n), name
    if name.startswith("random-monotone:") and name.count(":") == 1:
        name = f"{name}:{seed}"
    problem, z0 = load_preset(name)
    return problem, z0, name


def _alpha_default(preset: str, algo: str) -> float | None:
    return PRESET_STEP_SIZES.get(preset, {}).get(algo)


def cmd_run(args: argparse.Namespace) -> int:
    if args.problem is None or args.algo is None:
        print("error: --problem and --algo are required", file=sys.stderr)
        return EXIT_USAGE
    try:
        problem, z0, preset = _resolve_problem(args.problem, args.seed)
        kind = AlgoKind(args.algo)
        alpha = args.alpha0 if args.alpha0 is not None else args.alpha
        if alpha is None:
            alpha = _alpha_default(preset, kind.value)
        if alpha is None and kind == AlgoKind.SIMGD_A:
            alpha = 1.0  # SimGD-A's schedule comes from p and gamma, not alpha
        if alpha is None:
            print(
                f"error: no step size given and no default for {preset}/{kind.value}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        config = AlgoConfig(
            kind=kind,
            alpha0=alpha,
            iters=args.iters,
            anchor_delta=args.anchor_delta,
            simgd_p=args.simgd_p,
            simgd_gamma=args.simgd_gamma,
        )
    except (ContractError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    ks = _emission_ks(args.iters, args.dense)
    try:
        trace = run(problem, config, z0, store_ks=set(ks))
    except NumericalDivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    R = problem.lipschitz
    zs = problem.saddle_point.coords if problem.saddle_point is not None else None
    D = float(np.linalg.norm(z0.coords - zs)) if zs is not None else None
    with_bound = (
        args.bound
        and D is not None
        and kind in (AlgoKind.EAG_C, AlgoKind.EAG_V, AlgoKind.EG)
    )
    # no theorem, no bound column
    if with_bound and kind == AlgoKind.EAG_C and not check_eag_c_stepsize(alpha * R):
        with_bound = False
    if with_bound and kind == AlgoKind.EG and not alpha * R < 1:
        with_bound = False
    ainf = (
        eag_v_alpha_limit(alpha, R) if with_bound and kind == AlgoKind.EAG_V else None
    )
    with_alpha = trace.alphas is not None and kind == AlgoKind.EAG_V

    header = ["k", "grad_sq"]
    if with_bound:
        header.append("bound")
    if with_alpha:
        header.append("alpha_k")
    header.append("oracle_calls")
    if zs is not None:
        header.append("dist_to_saddle_sq")

    dists = _dist_to_saddle_sq(trace, ks, zs) if zs is not None else None

    def rows():
        for k in ks:
            row = [str(k), _fmt(trace.grad_sq[k])]
            if with_bound:
                row.append(
                    _fmt(
                        theoretical_bound(
                            kind, k, R, D, alpha=alpha, alpha0=alpha, alpha_inf=ainf
                        )
                    )
                )
            if with_alpha:
                row.append(_fmt(trace.alphas[k]))
            row.append(str(int(trace.oracle_calls[k])))
            if dists is not None:
                row.append(_fmt(next(dists)))
            yield row

    _emit_csv(args.out, header, rows())
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    if args.kind == "stepsize":
        try:
            ok = check_eag_c_stepsize(args.alphaR)
        except ContractError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"stepsize alphaR={_fmt(args.alphaR)}: {'PASS' if ok else 'FAIL'}")
        if args.out:
            _emit_csv(args.out, ["alphaR", "verdict"], [[_fmt(args.alphaR), int(ok)]])
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if args.kind == "eagc":
        try:
            certs = eag_c_certificate(args.alphaR, args.k)
        except (ContractError, CertificateError) as exc:
            print(f"certificate failure: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        ok = all(c.verdict for c in certs)
        worst_eig = min(c.min_eig / max(abs(c.S).max(), 1e-300) for c in certs)
        print(
            f"eagc alphaR={_fmt(args.alphaR)} k<={args.k}: "
            f"{'PASS' if ok else 'FAIL'} worst_rel_min_eig={worst_eig:.3e}"
        )
        if args.out:
            _emit_csv(
                args.out,
                ["k", "A_k", "tau_k", "min_eig", "det", "case", "ell", "u", "verdict"],
                (
                    [
                        str(c.k), _fmt(c.A_k), _fmt(c.tau_k), _fmt(c.min_eig),
                        _fmt(c.det), c.case_tag, _fmt(c.ell), _fmt(c.upper),
                        int(c.verdict),
                    ]
                    for c in certs
                ),
            )
        if not ok:
            first = next(c for c in certs if not c.verdict)
            print(f"first failure at k={first.k}", file=sys.stderr)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    # lyapunov
    try:
        problem, z0, preset = _resolve_problem(args.problem, args.seed)
        config = AlgoConfig(
            kind=AlgoKind.EAG_V,
            alpha0=args.alpha0,
            iters=args.iters,
            anchor_delta=args.anchor_delta,
        )
        trace = run(problem, config, z0)
    except (ContractError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalDivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    V = lyapunov_sequence(trace, problem)
    R = problem.lipschitz
    if problem.saddle_point is not None:
        D2 = float(np.sum((z0.coords - problem.saddle_point.coords) ** 2))
    else:
        D2 = max(1.0, float(z0.coords @ z0.coords))
    report = check_lyapunov_monotone(V, R * R * D2)
    print(
        f"lyapunov {preset} alpha0={_fmt(args.alpha0)} iters={args.iters}: "
        f"{'PASS' if report.passed else 'FAIL'} "
        f"({len(report.violations)} violations, tol={report.tol:.3e})"
    )
    if not report.passed:
        pos, jump = report.violations[0]
        k_bad = int(trace.stored_ks[pos + 1])
        print(f"first violation at k={k_bad}: V increased by {jump:.3e}", file=sys.stderr)
    if args.out:
        _emit_csv(
            args.out,
            ["k", "V_k"],
            ([str(k), _fmt(v)] for k, v in zip(trace.stored_ks.tolist(), V)),
        )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_lowerbound(args: argparse.Namespace) -> int:
    if args.k is None:
        print("error: --k is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        inst = build_hard_instance(args.k, args.R, args.D, args.n)
    except (ContractError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    m = inst.m
    target = args.R**2 * args.D**2 / (2 * m + 1) ** 2
    A = inst.A
    kry = krylov_min_residual(A, inst.b, args.k)
    z = chebyshev_solver(A, inst.b, args.k, args.R)
    cheb = float(np.sum((A @ z - inst.b) ** 2))
    rel = max(abs(kry - target), abs(cheb - target)) / target
    ok = rel <= 1e-8
    print(f"closed_form {_fmt(target)}")
    print(f"krylov      {_fmt(kry)}")
    print(f"chebyshev   {_fmt(cheb)}")
    print(f"sandwich rel err {rel:.3e}: {'PASS' if ok else 'FAIL'}")

    rows = [
        ["closed_form", _fmt(target)],
        ["krylov", _fmt(kry)],
        ["chebyshev", _fmt(cheb)],
    ]
    algo_ok = True
    if args.algo is not None:
        try:
            kind = AlgoKind(args.algo)
        except ValueError:
            print(f"error: unknown algorithm {args.algo!r}", file=sys.stderr)
            return EXIT_USAGE
        iters = args.iters if args.iters else max(2, args.k)
        config = AlgoConfig(kind=kind, alpha0=args.alpha, iters=iters)
        z0 = Point(np.zeros(2 * inst.n), inst.n)
        try:
            trace = run(inst.saddle, config, z0, dense=True)
        except NumericalDivergenceError as exc:
            print(f"numerical abort: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        report = verify_lower_bound(inst, trace)
        algo_ok = report.applicable and report.verdict
        print(
            f"{kind.value} on hard instance: "
            f"{'PASS' if algo_ok else 'FAIL'} "
            f"({len(report.steps)} span-counted steps, floor {_fmt(report.floor)})"
        )
        for s in report.steps:
            rows.append(
                [f"{kind.value}_k{s.k_iter}", _fmt(s.grad_sq)]
            )
    if args.out:
        _emit_csv(args.out, ["quantity", "value"], rows)
    return EXIT_OK if ok and algo_ok else EXIT_CHECK_FAILED


def cmd_flow(args: argparse.Namespace) -> int:
    if args.kind is None:
        print("error: --kind is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = FlowSpec(
            kind=FlowKind(args.kind),
            z0=(args.x0, args.y0),
            t_end=args.t_end,
            steps=args.steps,
            lam=args.lam,
            t_start=args.t_start,
        )
    except (ContractError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        traj = integrate_flow(spec)
    except NumericalDivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    closed = flow_closed_form(spec, traj.ts)

    header = ["t", "x_closed", "y_closed", "x_rk4", "y_rk4", "deviation"]
    disc = None
    if args.overlay_algo is not None:
        problem, _ = load_preset("bilinear-unit")
        z0p = Point(np.array([args.x0, args.y0]), 1)
        config = AlgoConfig(
            kind=AlgoKind(args.overlay_algo),
            alpha0=args.overlay_alpha,
            iters=args.steps,
        )
        disc = run(problem, config, z0p, dense=True)
        header += ["x_disc", "y_disc"]

    def rows():
        for i, t in enumerate(traj.ts):
            dev = float(np.linalg.norm(traj.zs[i] - closed[i]))
            row = [
                _fmt(t),
                _fmt(closed[i, 0]), _fmt(closed[i, 1]),
                _fmt(traj.zs[i, 0]), _fmt(traj.zs[i, 1]),
                _fmt(dev),
            ]
            if disc is not None:
                # index-aligned with the time grid, not time-aligned
                z = disc.iterate(i)
                row += [_fmt(z[0]), _fmt(z[1])]
            yield row

    _emit_csv(args.out, header, rows())
    return EXIT_OK


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load key=value defaults from --config; explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        parser.error("--config needs a file path")
    path = argv[i + 1]
    argv = argv[:i] + argv[i + 2:]
    defaults: dict[str, str] = {}
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                defaults[key.strip()] = val.strip()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    subs = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    if not argv or argv[0] not in subs.choices:
        parser.error("--config requires a subcommand")
    subparser = subs.choices[argv[0]]
    actions = {a.dest: a for a in subparser._actions}
    for key, val in defaults.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            parser.error(
                f"config file {path}: unknown key {key!r} for subcommand {argv[0]!r}"
            )
        if action.const in (True, False):  # store_true / store_false flags
            parsed = val.lower() in ("1", "true", "yes")
        elif action.type is not None:
            parsed = action.type(val)
        else:
            parsed = val
        subparser.set_defaults(**{action.dest: parsed})
    return argv


def build_parser() -> argparse.ArgumentParser:
    seed_default = int(os.environ.get("ANCHORED_MINIMAX_SEED", "0"))
    parser = argparse.ArgumentParser(
        prog="anchored-minimax",
        description="anchored extragradient benchmark and certificate harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an algorithm and emit a convergence CSV")
    p_run.add_argument("--problem", default=None,
                       help=f"preset ({', '.join(preset_names())}) or instance file")
    p_run.add_argument("--algo", default=None,
                       choices=[k.value for k in AlgoKind])
    p_run.add_argument("--alpha", type=float, default=None)
    p_run.add_argument("--alpha0", type=float, default=None)
    p_run.add_argument("--iters", type=int, default=1000)
    p_run.add_argument("--anchor-delta", dest="anchor_delta", type=float, default=2.0)
    p_run.add_argument("--simgd-p", dest="simgd_p", type=float, default=0.51)
    p_run.add_argument("--simgd-gamma", dest="simgd_gamma", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=seed_default)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--dense", action="store_true",
                       help="emit every iteration even above the thinning threshold")
    p_run.add_argument("--no-bound", dest="bound", action="store_false",
                       help="suppress the theoretical bound column")
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="verify a numerical certificate")
    p_cert.add_argument("kind", choices=["stepsize", "eagc", "lyapunov"])
    p_cert.add_argument("--alphaR", type=float, default=0.125)
    p_cert.add_argument("--k", type=int, default=1000)
    p_cert.add_argument("--problem", default="bilinear-unit")
    p_cert.add_argument("--alpha0", type=float, default=0.618)
    p_cert.add_argument("--iters", type=int, default=1000)
    p_cert.add_argument("--anchor-delta", dest="anchor_delta", type=float, default=2.0)
    p_cert.add_argument("--seed", type=int, default=seed_default)
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_lb = sub.add_parser("lowerbound", help="build and verify a hard instance")
    p_lb.add_argument("--k", type=int, default=None)
    p_lb.add_argument("--R", type=float, default=1.0)
    p_lb.add_argument("--D", type=float, default=1.0)
    p_lb.add_argument("--n", type=int, default=None)
    p_lb.add_argument("--algo", default=None,
                      choices=[k.value for k in AlgoKind])
    p_lb.add_argument("--alpha", type=float, default=0.1)
    p_lb.add_argument("--iters", type=int, default=None)
    p_lb.add_argument("--out", default=None)
    p_lb.set_defaults(func=cmd_lowerbound)

    p_flow = sub.add_parser("flow", help="closed-form flow vs RK4 integration CSV")
    p_flow.add_argument("--kind", default=None,
                        choices=[k.value for k in FlowKind])
    p_flow.add_argument("--lam", type=float, default=0.01)
    p_flow.add_argument("--x0", type=float, default=1.0)
    p_flow.add_argument("--y0", type=float, default=0.0)
    p_flow.add_argument("--t-end", dest="t_end", type=float, default=20.0)
    p_flow.add_argument("--t-start", dest="t_start", type=float, default=1e-2)
    p_flow.add_argument("--steps", type=int, default=10_000)
    p_flow.add_argument("--overlay-algo", dest="overlay_algo", default=None,
                        choices=[k.value for k in AlgoKind])
    p_flow.add_argument("--overlay-alpha", dest="overlay_alpha", type=float, default=0.1)
    p_flow.add_argument("--out", default=None)
    p_flow.set_defaults(func=cmd_flow)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
