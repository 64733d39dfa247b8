"""
Command-line surface.

Subcommands dispatch to the computation modules and print plain text, JSON,
or LaTeX.  Exit codes are meant for scripted pipelines:

    0   success; any requested cross-checks passed
    1   a mathematical verification failed (pipeline disagreement, mirror
        identity violation, a Weil pairing that is not alternating or
        not bilinear, internal consistency assertion)
    2   invalid input (bad flags, out-of-range parameters, a value above
        its stated cap), or an input too large to compute (MemoryError,
        RecursionError)
    130 interrupted (KeyboardInterrupt, such as Ctrl-C)

JSON output is stable-ordered (sorted keys, index-ordered coefficient
arrays) so golden files can compare bytes.

Building the parser imports no computation module: each subcommand imports
the layer it runs, so a call pays only for the modules it uses.

main is the console entry point and ends the process: it freezes the garbage
collector (gc.freeze) before it raises SystemExit, so the interpreter's exit
does not walk every object the call loaded in one last collection.  A
long-lived process should call run, which returns the exit code and leaves
the collector alone.
"""
from __future__ import annotations

import argparse
import gc
import io
import signal
import sys

__all__ = ["build_parser", "run", "main"]

# The cap of mirror --sample bounds the sampled sweep's time, O(g) pairings an
# element; without --sample the certificate covers every element.
MIRROR_MAX_SAMPLE = 65535
# Input caps: the slowest accepted poincare call (vector-bundles, g = 400)
# takes about 2.3 s; macdonald at the caps prints about 2.6 MB.
POINCARE_MAX_GENUS = 400
MACDONALD_MAX_GENUS = 200
MACDONALD_MAX_N = 10000
# Each integer of dims, spectral and git hm, in absolute value: no result nears
# the 4300-digit print limit.
NUMBER_MAX = 10**6


def _at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")


def _check_numbers(args) -> None:
    """The caps of dims and spectral, checked before the layer is imported."""
    _at_most("--rank", args.rank, NUMBER_MAX)
    _at_most("--genus", args.genus, NUMBER_MAX)
    _at_most("|--degree|", abs(args.degree), NUMBER_MAX)


def _latex(poly) -> str:
    """The plain display as inline LaTeX math, exponents braced: t^3 -> t^{3}."""
    return "$" + poly.text("{}") + "$"


def _latex_table(rows) -> str:
    lines = ["\\begin{tabular}{ll}"]
    for key, value in rows:
        lines.append(f"{key} & {value} \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def _output(fmt: str, plain, payload: dict, latex) -> None:
    """
    Print payload as JSON, or the plain or LaTeX text.  A text may be passed
    as a function that builds it, so that a long one is built only if printed.
    """
    if fmt == "json":
        import json

        print(json.dumps(payload, sort_keys=True))
        return
    text = latex if fmt == "latex" else plain
    print(text() if callable(text) else text)


def _cmd_poincare(args) -> int:
    g = args.genus
    _at_most("--genus", g, POINCARE_MAX_GENUS)
    if args.space == "vector-bundles":
        from . import bundles

        pipelines = {"closed": bundles.poincare_N_closed, "recursion": bundles.poincare_N_recursion}
    else:
        from . import higgs

        pipelines = {"closed": higgs.poincare_M_closed, "strata": higgs.poincare_M_stratified}
    if args.via != "both" and args.via not in pipelines:
        raise ValueError(f"--via {args.via} does not apply to --space {args.space}")

    payload = {"space": args.space, "genus": g, "via": args.via}
    if args.via != "both":
        poly = pipelines[args.via](g)
        plain = lambda: str(poly)
    else:
        (name_a, route_a), (name_b, route_b) = pipelines.items()
        poly, poly_b = route_a(g), route_b(g)
        payload["agree"] = poly == poly_b
        if not payload["agree"]:
            payload[f"coeffs_{name_a}"] = poly.to_coeff_list()
            payload[f"coeffs_{name_b}"] = poly_b.to_coeff_list()
            _output(args.format, lambda: f"{name_a}: {poly}\n{name_b}: {poly_b}\nPIPELINES DISAGREE",
                    payload, lambda: _latex_table([(name_a, _latex(poly)), (name_b, _latex(poly_b))]))
            return 1
        del poly_b  # only poly is printed
        plain = lambda: f"{poly}\n{name_a} and {name_b} agree"
    payload["coeffs"] = poly.to_coeff_list()
    _output(args.format, plain, payload, lambda: _latex(poly))
    return 0


def _cmd_mirror(args) -> int:
    from . import mirror

    sample = args.sample
    if sample is not None:
        _at_most("--sample", sample, MIRROR_MAX_SAMPLE)
    report = mirror.mirror_verify(args.genus, sample=sample, seed=args.seed)
    payload = {
        "genus": report.genus,
        "elements_checked": report.elements_checked,
        "pass": report.passed,
        "lhs": report.lhs.to_sorted_dict(),
        "rhs_sample": report.rhs_sample.to_sorted_dict(),
    }
    plain = (
        f"genus {report.genus}: {report.elements_checked} elements checked, "
        f"{'pass' if report.passed else 'FAIL'}"
    )
    latex = _latex_table([
        ("genus", report.genus),
        ("elements checked", report.elements_checked),
        ("pass", str(report.passed).lower()),
    ])
    _output(args.format, plain, payload, latex)
    return 0


def _cmd_dims(args) -> int:
    _check_numbers(args)
    from . import geometry

    params = geometry.ModuliParams(args.rank, args.degree, args.genus, group=args.group.upper())
    dims = {
        "bundles": geometry.moduli_dim(params, "bundles"),
        "higgs": geometry.moduli_dim(params, "higgs"),
        "hitchin_base": geometry.moduli_dim(params, "hitchin-base"),
    }
    payload = {
        "rank": params.r,
        "degree": params.d,
        "genus": params.g,
        "group": params.group,
        **dims,
    }
    header = (
        f"rank {params.r}  degree {params.d}  genus {params.g}  group {params.group}"
    )
    body = "\n".join(f"{name:<13}{value}" for name, value in dims.items())
    _output(args.format, f"{header}\n{body}", payload, _latex_table(payload.items()))
    return 0


def _cmd_spectral(args) -> int:
    _check_numbers(args)
    from . import geometry

    numbers = geometry.spectral_numbers(args.rank, args.genus, args.degree)
    fields = numbers._asdict()
    payload = {"rank": args.rank, "genus": args.genus, "degree": args.degree, **fields}
    width = max(len(name) for name in fields) + 2
    plain = "\n".join(f"{name:<{width}}{value}" for name, value in fields.items())
    latex = _latex_table(list(fields.items()))
    _output(args.format, plain, payload, latex)
    return 0


def _cmd_git_classify(args) -> int:
    from . import stability

    try:
        weights = tuple(int(w) for w in args.weights.split(",") if w.strip() != "")
    except ValueError:
        raise ValueError(f"--weights expects comma-separated integers, got {args.weights!r}")
    verdict = stability.torus_classify(stability.WeightProfile(weights))
    payload = {"weights": list(weights), "verdict": verdict.value}
    latex = _latex_table([("weights", ",".join(map(str, weights))),
                          ("verdict", verdict.value)])
    _output(args.format, verdict.value, payload, latex)
    return 0


def _parse_blocks(text: str) -> list[tuple[int, ...]]:
    """N:a:r:d entries, each as a tuple of four ints."""
    blocks = []
    for chunk in text.split(","):
        pieces = chunk.split(":")
        if len(pieces) != 4:
            raise ValueError(f"--blocks expects N:a:r:d entries, got {chunk!r}")
        try:
            block = tuple(int(p) for p in pieces)
        except ValueError:
            raise ValueError(f"--blocks entries must be integers, got {chunk!r}")
        _at_most("|--blocks entry|", max(map(abs, block)), NUMBER_MAX)
        blocks.append(block)
    return blocks


def _cmd_git_hm(args) -> int:
    _at_most("|--m|", abs(args.m), NUMBER_MAX)
    _at_most("--genus", args.genus, NUMBER_MAX)
    blocks = _parse_blocks(args.blocks)
    from . import stability

    filtration = stability.FiltrationData(blocks, m=args.m, g=args.genus)
    weight = stability.hm_weight(filtration)
    payload = {
        "blocks": [list(b) for b in filtration.blocks],
        "m": filtration.m,
        "n": args.n,
        "genus": filtration.g,
        "weight": weight,
    }
    latex = _latex_table([("blocks", args.blocks), ("m", filtration.m),
                          ("genus", filtration.g), ("weight", weight)])
    _output(args.format, f"weight = {weight}", payload, latex)
    return 0


def _cmd_macdonald(args) -> int:
    _at_most("--genus", args.genus, MACDONALD_MAX_GENUS)
    _at_most("--n", args.n, MACDONALD_MAX_N)
    from . import exactpoly

    poly = exactpoly.coeff_extract_x(args.genus, args.n)
    payload = {"genus": args.genus, "n": args.n, "coeffs": poly.to_coeff_list()}
    _output(args.format, lambda: str(poly), payload, lambda: _latex(poly))
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["plain", "json", "latex"], default="plain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgsmoduli",
        description="Exact Betti numbers, E-polynomials, and GIT stability "
        "for rank-2 moduli of bundles and Higgs bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poincare", help="Poincare polynomial of a moduli space")
    p.add_argument("--space", choices=["vector-bundles", "higgs"], required=True)
    p.add_argument("--genus", type=int, required=True,
                   help=f"curve genus, 2 to {POINCARE_MAX_GENUS}")
    p.add_argument("--via", choices=["closed", "recursion", "strata", "both"],
                   default="both")
    _add_format(p)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("mirror", help="verify the rank-2 mirror-symmetry identity")
    p.add_argument("--genus", type=int, required=True, help="curve genus, 2 to 10")
    p.add_argument("--sample", type=int, default=None,
                   help="check this many random nonzero elements instead of all "
                   f"2^(2g)-1, at most {MIRROR_MAX_SAMPLE}")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_mirror)

    p = sub.add_parser("dims", help="moduli and Hitchin-base dimensions")
    p.add_argument("--rank", type=int, required=True, help=f"at most {NUMBER_MAX}")
    p.add_argument("--genus", type=int, required=True, help=f"curve genus, at most {NUMBER_MAX}")
    p.add_argument("--degree", type=int, default=0, help=f"|degree| at most {NUMBER_MAX}")
    p.add_argument("--group", choices=["gl", "sl", "pgl"], default="sl")
    _add_format(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("spectral", help="spectral-curve numerology")
    p.add_argument("--rank", type=int, required=True, help=f"at most {NUMBER_MAX}")
    p.add_argument("--genus", type=int, required=True, help=f"curve genus, at most {NUMBER_MAX}")
    p.add_argument("--degree", type=int, required=True, help=f"|degree| at most {NUMBER_MAX}")
    _add_format(p)
    p.set_defaults(func=_cmd_spectral)

    gitp = sub.add_parser("git", help="GIT stability tools")
    gitsub = gitp.add_subparsers(dest="git_command", required=True)

    p = gitsub.add_parser("classify", help="classify a torus weight profile")
    p.add_argument("--weights", required=True, metavar="W1,W2,...")
    _add_format(p)
    p.set_defaults(func=_cmd_git_classify)

    p = gitsub.add_parser("hm", help="Hilbert-Mumford weight of a filtration")
    p.add_argument("--blocks", required=True, metavar="N:a:r:d,...",
                   help=f"graded pieces, |entry| at most {NUMBER_MAX}")
    p.add_argument("--m", type=int, required=True, help=f"twist, |m| at most {NUMBER_MAX}")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--genus", type=int, required=True, help=f"curve genus, at most {NUMBER_MAX}")
    _add_format(p)
    p.set_defaults(func=_cmd_git_hm)

    p = sub.add_parser("macdonald", help="Poincare polynomial of a symmetric product")
    p.add_argument("--genus", type=int, required=True,
                   help=f"curve genus, at most {MACDONALD_MAX_GENUS}")
    p.add_argument("--n", type=int, required=True,
                   help=f"symmetric power, at most {MACDONALD_MAX_N}")
    _add_format(p)
    p.set_defaults(func=_cmd_macdonald)

    return parser


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        empty = [name for name, value in vars(args).items() if value == []]
        if empty:  # argparse (3.11) reads "--genus=--" as [], past type= and choices=
            parser.error(f"argument --{empty[0]}: expected one argument")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"error: input too large to compute ({type(exc).__name__})", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """
    Run sys.argv[1:] and end the process with its exit code.

    Before it raises SystemExit, main moves every live object to the
    collector's permanent generation (gc.freeze): the collection that
    interpreter shutdown runs then skips them, and the OS reclaims their
    memory when the process ends.  atexit handlers still run and buffered
    stdout is still flushed.  Call run, not main, from a process that goes on.
    """
    if hasattr(signal, "SIGPIPE"):
        # A reader that closes the pipe early (| head) ends the process the
        # way it ends any filter, instead of a BrokenPipeError traceback and
        # exit 1, the code of a failed cross-check.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        # Unbuffered (python -u, PYTHONUNBUFFERED): each write reaches the raw
        # stream once, and a short write, such as a pipe write cut short when
        # the process is stopped, silently loses the rest of the output.  A
        # buffered writer writes the rest.
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.detach()),
                                      encoding=out.encoding, errors=out.errors)
    try:
        code = run(sys.argv[1:])
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    gc.freeze()
    sys.exit(code)
