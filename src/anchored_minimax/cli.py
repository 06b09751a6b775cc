"""Command-line front end: runs, certificates, lower-bound labs, flows.

Exit codes: 0 success, 1 certificate or bound failure, 2 usage error,
3 numerical abort; ``main`` maps ContractError, CertificateError and
NumericalDivergenceError to 2, 1 and 3 for every subcommand. All data output
is RFC-4180 CSV with '.' decimals and 17 significant digits; identical command
lines produce byte-identical files at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .algorithms import _METHODS, AlgoConfig, AlgoKind, run
from .certificates import (
    CASE_TAGS,
    check_eag_c_stepsize,
    check_lyapunov_monotone,
    eag_c_certificate,
    lyapunov_sequence,
)
from .core import CertificateError, ContractError, NumericalDivergenceError, Point
from .lowerbound import build_hard_instance, sandwich, verify_lower_bound
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

# the package's one float format: 17 significant digits round-trip a float64
_FLOAT = "%.17g"
_fmt = _FLOAT.__mod__


def _blocks(n: int, block):
    """block(sl) for consecutive slices of at most EMIT_BLOCK of n rows."""
    return (block(slice(lo, lo + EMIT_BLOCK)) for lo in range(0, n, EMIT_BLOCK))


def _emit_csv(path: str | None, columns: list[tuple[str, str]], blocks) -> None:
    """Write a table given as blocks, each a list of equal-length value columns.

    ``columns`` pairs each column's name with its % code: "%d" for ints and
    bools, ``_FLOAT`` for floats, "%s" for identifiers. Every block holds at
    least one row. No field needs quoting, so each row is one % format of its
    values, joined by commas; each line ends in CRLF.
    """
    row = ",".join(code for _, code in columns) + "\r\n"
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        out.write(",".join(name for name, _ in columns) + "\r\n")
        for block in blocks:
            out.write("".join(map(row.__mod__, zip(*block))))
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
        block = buf[:n]  # squared in place: no (n, dim) temporaries
        parts.append(np.sum(np.square(np.subtract(block, zs, block), block), axis=1))
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


def cmd_run(args: argparse.Namespace) -> int:
    if args.problem is None or args.algo is None:
        raise ContractError("--problem and --algo are required")
    problem, z0 = load_preset(args.problem)
    kind = AlgoKind(args.algo)
    method = _METHODS[kind]
    alpha = args.alpha0 if args.alpha0 is not None else args.alpha
    if alpha is None:
        alpha = PRESET_STEP_SIZES.get(args.problem, {}).get(kind.value, method.alpha_default)
    if alpha is None:
        raise ContractError(f"no step size given and no default for {args.problem}/{kind.value}")
    config = AlgoConfig(kind, alpha, args.iters, anchor_delta=args.anchor_delta,
                        simgd_p=args.simgd_p, simgd_gamma=args.simgd_gamma)
    zs = problem.saddle_point.coords if problem.saddle_point is not None else None
    keep, distances = _saddle_distances(zs)
    # no theorem, no bound column; a bound that cannot be stated fails before the run
    bound = args.bound and zs is not None and method.rate(
        alpha, problem.lipschitz, args.anchor_delta)
    D = float(np.linalg.norm(z0.coords - zs)) if bound else None
    trace = run(problem, config, z0, dense=args.dense, keep=keep)
    dists = distances()

    columns = [("k", "%d"), ("grad_sq", _FLOAT)]
    if bound:
        columns.append(("bound", _FLOAT))
    if method.varying:
        columns.append(("alpha_k", _FLOAT))
    columns.append(("oracle_calls", "%d"))
    if zs is not None:
        columns.append(("dist_to_saddle_sq", _FLOAT))

    def block(sl: slice) -> list:
        ks = trace.stored_ks[sl]
        values = [ks.tolist(), trace.grad_sq[ks].tolist()]
        if bound:
            values.append(bound(ks, D).tolist())
        if method.varying:
            values.append(trace.alphas[ks].tolist())
        values.append(trace.oracle_calls[ks].tolist())
        if dists is not None:
            values.append(dists[sl].tolist())
        return values

    _emit_csv(args.out, columns, _blocks(len(trace.stored_ks), block))
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    if args.kind == "stepsize":
        ok = check_eag_c_stepsize(args.alphaR)
        print(f"stepsize alphaR={_fmt(args.alphaR)}: {'PASS' if ok else 'FAIL'}")
        if args.out:
            _emit_csv(args.out, [("alphaR", _FLOAT), ("verdict", "%d")], [[[args.alphaR], [ok]]])
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
                    range(len(rep))[sl],
                    *(c[sl].tolist() for c in (rep.A[:-1], rep.tau, rep.min_eig, rep.det)),
                    map(CASE_TAGS.__getitem__, rep.case2[sl].tolist()),
                    *(c[sl].tolist() for c in (rep.ell, rep.upper)),
                    rep.verdict[sl].tolist(),
                ]

            names = ["k", "A_k", "tau_k", "min_eig", "det", "case", "ell", "u", "verdict"]
            codes = ["%d", _FLOAT, _FLOAT, _FLOAT, _FLOAT, "%s", _FLOAT, _FLOAT, "%d"]
            _emit_csv(args.out, list(zip(names, codes)), _blocks(len(rep), block))
        if not ok:
            print(f"first failure at k={np.argmin(rep.verdict)}", file=sys.stderr)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    # lyapunov
    problem, z0 = load_preset(args.problem)
    config = AlgoConfig(AlgoKind.EAG_V, args.alpha0, args.iters, anchor_delta=args.anchor_delta)
    trace = run(problem, config, z0, keep=_drop)  # V reads no iterate
    V = lyapunov_sequence(trace, problem)
    R = problem.lipschitz
    if problem.saddle_point is not None:
        D2 = float(np.sum((z0.coords - problem.saddle_point.coords) ** 2))
    else:
        D2 = max(1.0, float(z0.coords @ z0.coords))
    report = check_lyapunov_monotone(V, R * R * D2)
    print(
        f"lyapunov {args.problem} alpha0={_fmt(args.alpha0)} iters={args.iters}: "
        f"{'PASS' if report.passed else 'FAIL'} "
        f"({len(report.violations)} violations, tol={report.tol:.3e})"
    )
    if not report.passed:
        pos, jump = report.violations[0]
        k_bad = int(trace.stored_ks[pos + 1])
        print(f"first violation at k={k_bad}: V increased by {jump:.3e}", file=sys.stderr)
    if args.out:
        _emit_csv(args.out, [("k", "%d"), ("V_k", _FLOAT)], _blocks(
            len(V), lambda sl: [trace.stored_ks[sl].tolist(), V[sl].tolist()]))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_lowerbound(args: argparse.Namespace) -> int:
    if args.k is None:
        raise ContractError("--k is required")
    inst = build_hard_instance(args.k, args.R, args.D, args.n)
    if args.algo is not None:  # a bad option fails before anything is printed
        kind = AlgoKind(args.algo)
        # only iterates whose oracle budget is within k are checked
        iters = args.iters if args.iters is not None else max(1, args.k // _METHODS[kind].cost)
        config = AlgoConfig(kind, args.alpha, iters)
        trace = run(inst.saddle, config, Point(np.zeros(2 * inst.n), inst.n), dense=True)
        report = verify_lower_bound(inst, trace)
    target, kry, cheb = sandwich(inst)
    rel = max(abs(kry - target), abs(cheb - target)) / target
    ok = rel <= 1e-8
    print(f"closed_form {_fmt(target)}")
    print(f"krylov      {_fmt(kry)}")
    print(f"chebyshev   {_fmt(cheb)}")
    print(f"sandwich rel err {rel:.3e}: {'PASS' if ok else 'FAIL'}")

    names, values = ["closed_form", "krylov", "chebyshev"], [target, kry, cheb]
    algo_ok = True
    if args.algo is not None:
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
        _emit_csv(args.out, [("quantity", "%s"), ("value", _FLOAT)], [[names, values]])
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

    names = ["t", "x_closed", "y_closed", "x_rk4", "y_rk4", "deviation"]
    disc = None
    if args.overlay_algo is not None:
        problem, _ = load_preset("bilinear-unit")
        z0p = Point(np.array([args.x0, args.y0]), 1)
        config = AlgoConfig(AlgoKind(args.overlay_algo), args.overlay_alpha, args.steps)
        disc = run(problem, config, z0p, dense=True)
        names += ["x_disc", "y_disc"]

    def block(sl: slice) -> list:
        zs, cl = traj.zs[sl], closed[sl]
        values = [
            traj.ts[sl].tolist(),
            cl[:, 0].tolist(), cl[:, 1].tolist(),
            zs[:, 0].tolist(), zs[:, 1].tolist(),
            (np.linalg.norm(d) for d in zs - cl),
        ]
        if disc is not None:
            # index-aligned with the time grid, not time-aligned
            Z = np.stack(disc.iterates[sl])
            values += [Z[:, 0].tolist(), Z[:, 1].tolist()]
        return values

    _emit_csv(args.out, [(name, _FLOAT) for name in names], _blocks(len(traj.ts), block))
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
    parser = argparse.ArgumentParser(
        prog="anchored-minimax",
        description="anchored extragradient benchmark and certificate harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an algorithm and emit a convergence CSV")
    p_run.add_argument("--problem", default=None,
                       help=f"preset ({', '.join(preset_names())})")
    p_run.add_argument("--algo", default=None,
                       choices=[k.value for k in AlgoKind])
    p_run.add_argument("--alpha", type=float, default=None)
    p_run.add_argument("--alpha0", type=float, default=None)
    p_run.add_argument("--iters", type=int, default=1000)
    p_run.add_argument("--anchor-delta", dest="anchor_delta", type=float, default=2.0)
    p_run.add_argument("--simgd-p", dest="simgd_p", type=float, default=0.51)
    p_run.add_argument("--simgd-gamma", dest="simgd_gamma", type=float, default=1.0)
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
