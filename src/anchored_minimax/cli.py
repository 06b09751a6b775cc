"""Command-line front end: runs, certificates, lower-bound labs, flows.

Exit codes: 0 success, 1 certificate or bound failure, 2 usage error,
3 numerical abort; ``main`` maps ContractError, CertificateError and
NumericalDivergenceError to 2, 1 and 3 for every subcommand. All data output
is RFC-4180 CSV with '.' decimals and 17 significant digits; identical command
lines produce byte-identical files at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .algorithms import AlgoConfig, AlgoKind, eag_v_alpha_limit, run, theoretical_bound
from .certificates import (
    CASE_TAGS,
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

# rows formatted and written, and iterates folded into distances, per block;
# bounds the block's copies (iterates, strings), so memory does not grow with
# the number of rows
EMIT_BLOCK = 512

_fmt = "{:.17g}".format


def _fmt_col(values: np.ndarray):
    return map(_fmt, values.tolist())


def _blocks(n: int, block):
    """block(sl) for consecutive slices of at most EMIT_BLOCK of n rows."""
    return (block(slice(lo, lo + EMIT_BLOCK)) for lo in range(0, n, EMIT_BLOCK))


def _emit_csv(path: str | None, header: list[str], blocks) -> None:
    """Write a table given as blocks, each a list of equal-length string columns.

    Every block holds at least one row. Every field is a number or an
    identifier, none of which needs quoting, so a row is its fields joined by
    commas; each line ends in CRLF.
    """
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        out.write(",".join(header) + "\r\n")
        for columns in blocks:
            out.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")
    finally:
        if path:
            out.close()


def _drop(z: np.ndarray) -> None:
    """A ``keep`` for ``run`` that holds no iterate."""


def _saddle_distances(zs: np.ndarray | None):
    """(keep, distances): ``run`` passes ``keep`` each stored z^k, and
    ``distances()`` afterwards returns ||z^k - z*||^2 in stored order.

    Each z is copied into one (EMIT_BLOCK, dim) buffer and every full buffer
    is folded into its distances, so no iterate outlives its block. With no
    saddle point ``keep`` drops z and ``distances()`` is None.
    """
    if zs is None:
        return _drop, lambda: None
    buf = np.empty((EMIT_BLOCK, len(zs)))
    parts: list[np.ndarray] = []
    n = 0

    def fold() -> None:
        nonlocal n
        parts.append(np.sum((buf[:n] - zs) ** 2, axis=1))
        n = 0

    def keep(z: np.ndarray) -> None:
        nonlocal n
        buf[n] = z
        n += 1
        if n == EMIT_BLOCK:
            fold()

    def distances() -> np.ndarray:
        fold()  # the last, partial block
        return np.concatenate(parts)

    return keep, distances


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
        raise ContractError("--problem and --algo are required")
    problem, z0, preset = _resolve_problem(args.problem, args.seed)
    kind = AlgoKind(args.algo)
    alpha = args.alpha0 if args.alpha0 is not None else args.alpha
    if alpha is None:
        alpha = _alpha_default(preset, kind.value)
    if alpha is None and kind == AlgoKind.SIMGD_A:
        alpha = 1.0  # SimGD-A's schedule comes from p and gamma, not alpha
    if alpha is None:
        raise ContractError(f"no step size given and no default for {preset}/{kind.value}")
    config = AlgoConfig(
        kind=kind,
        alpha0=alpha,
        iters=args.iters,
        anchor_delta=args.anchor_delta,
        simgd_p=args.simgd_p,
        simgd_gamma=args.simgd_gamma,
    )
    zs = problem.saddle_point.coords if problem.saddle_point is not None else None
    keep, distances = _saddle_distances(zs)
    trace = run(problem, config, z0, dense=args.dense, keep=keep)
    dists = distances()

    R = problem.lipschitz
    D = float(np.linalg.norm(z0.coords - zs)) if zs is not None else None
    # no theorem, no bound column: the anchored rates are proved for
    # delta = 2, EAG-C's under its step-size conditions, EG's for alpha R < 1
    anchored_rate = config.anchor_delta == 2.0 and (
        kind == AlgoKind.EAG_V
        or kind == AlgoKind.EAG_C and check_eag_c_stepsize(alpha * R)
    )
    with_bound = (
        args.bound
        and D is not None
        and (anchored_rate or kind == AlgoKind.EG and alpha * R < 1)
    )
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

    def block(sl: slice) -> list:
        ks = trace.stored_ks[sl]
        columns = [map(str, ks.tolist()), _fmt_col(trace.grad_sq[ks])]
        if with_bound:
            columns.append(_fmt_col(theoretical_bound(
                kind, ks, R, D, alpha=alpha, alpha0=alpha, alpha_inf=ainf
            )))
        if with_alpha:
            columns.append(_fmt_col(trace.alphas[ks]))
        columns.append(map(str, trace.oracle_calls[ks].tolist()))
        if dists is not None:
            columns.append(_fmt_col(dists[sl]))
        return columns

    _emit_csv(args.out, header, _blocks(len(trace.stored_ks), block))
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    if args.kind == "stepsize":
        ok = check_eag_c_stepsize(args.alphaR)
        print(f"stepsize alphaR={_fmt(args.alphaR)}: {'PASS' if ok else 'FAIL'}")
        if args.out:
            _emit_csv(
                args.out, ["alphaR", "verdict"], [[[_fmt(args.alphaR)], [str(int(ok))]]]
            )
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if args.kind == "eagc":
        rep = eag_c_certificate(args.alphaR, args.k)
        ok = bool(rep.verdict.all())
        worst_eig = np.min(rep.min_eig / np.maximum(rep.scale, 1e-300))
        print(
            f"eagc alphaR={_fmt(args.alphaR)} k<={args.k}: "
            f"{'PASS' if ok else 'FAIL'} worst_rel_min_eig={worst_eig:.3e}"
        )
        if args.out:
            def block(sl: slice) -> list:
                return [
                    map(str, range(len(rep))[sl]),
                    *(_fmt_col(c[sl]) for c in (rep.A[:-1], rep.tau, rep.min_eig, rep.det)),
                    map(CASE_TAGS.__getitem__, rep.case2[sl].tolist()),
                    *(_fmt_col(c[sl]) for c in (rep.ell, rep.upper)),
                    map(str, rep.verdict[sl].astype(int).tolist()),
                ]

            _emit_csv(
                args.out,
                ["k", "A_k", "tau_k", "min_eig", "det", "case", "ell", "u", "verdict"],
                _blocks(len(rep), block),
            )
        if not ok:
            print(f"first failure at k={np.argmin(rep.verdict)}", file=sys.stderr)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    # lyapunov
    problem, z0, preset = _resolve_problem(args.problem, args.seed)
    config = AlgoConfig(
        kind=AlgoKind.EAG_V,
        alpha0=args.alpha0,
        iters=args.iters,
        anchor_delta=args.anchor_delta,
    )
    trace = run(problem, config, z0, keep=_drop)  # V reads no iterate
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
            _blocks(len(V), lambda sl: [
                map(str, trace.stored_ks[sl].tolist()), _fmt_col(V[sl])
            ]),
        )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_lowerbound(args: argparse.Namespace) -> int:
    if args.k is None:
        raise ContractError("--k is required")
    inst = build_hard_instance(args.k, args.R, args.D, args.n)
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

    names, values = ["closed_form", "krylov", "chebyshev"], [target, kry, cheb]
    algo_ok = True
    if args.algo is not None:
        kind = AlgoKind(args.algo)
        iters = args.iters if args.iters else max(2, args.k)
        config = AlgoConfig(kind=kind, alpha0=args.alpha, iters=iters)
        z0 = Point(np.zeros(2 * inst.n), inst.n)
        trace = run(inst.saddle, config, z0, dense=True)
        report = verify_lower_bound(inst, trace)
        algo_ok = report.applicable and report.verdict
        print(
            f"{kind.value} on hard instance: "
            f"{'PASS' if algo_ok else 'FAIL'} "
            f"({len(report.steps)} span-counted steps, floor {_fmt(report.floor)})"
        )
        for s in report.steps:
            names.append(f"{kind.value}_k{s.k_iter}")
            values.append(s.grad_sq)
    if args.out:
        _emit_csv(args.out, ["quantity", "value"], [[names, map(_fmt, values)]])
    return EXIT_OK if ok and algo_ok else EXIT_CHECK_FAILED


def cmd_flow(args: argparse.Namespace) -> int:
    if args.kind is None:
        raise ContractError("--kind is required")
    spec = FlowSpec(
        kind=FlowKind(args.kind),
        z0=(args.x0, args.y0),
        t_end=args.t_end,
        steps=args.steps,
        lam=args.lam,
        t_start=args.t_start,
    )
    traj = integrate_flow(spec)
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

    def block(sl: slice) -> list:
        zs, cl = traj.zs[sl], closed[sl]
        columns = [
            _fmt_col(traj.ts[sl]),
            _fmt_col(cl[:, 0]), _fmt_col(cl[:, 1]),
            _fmt_col(zs[:, 0]), _fmt_col(zs[:, 1]),
            (_fmt(np.linalg.norm(d)) for d in zs - cl),
        ]
        if disc is not None:
            # index-aligned with the time grid, not time-aligned
            Z = np.stack(disc.iterates[sl])
            columns += [_fmt_col(Z[:, 0]), _fmt_col(Z[:, 1])]
        return columns

    _emit_csv(args.out, header, _blocks(len(traj.ts), block))
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
        # set_defaults bypasses argparse's own type and choices checks
        try:
            if action.const in (True, False):  # store_true / store_false flags
                parsed = {"1": True, "true": True, "yes": True,
                          "0": False, "false": False, "no": False}[val.lower()]
            else:
                parsed = val if action.type is None else action.type(val)
        except (KeyError, ValueError):
            parser.error(f"config file {path}: invalid value {val!r} for key {key!r}")
        if action.choices is not None and parsed not in action.choices:
            parser.error(
                f"config file {path}: invalid choice {val!r} for key {key!r} "
                f"(choose from {', '.join(map(str, action.choices))})"
            )
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
    try:
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except NumericalDivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
