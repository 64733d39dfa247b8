"""
Command-line surface.

Each subcommand is declared once, in COMMANDS: its words, help, handler and
arguments, then --format.  run checks the caps that the arguments declare,
then imports the handler from one of four small modules (_cmd_poincare for
poincare and macdonald, _cmd_mirror, _cmd_geometry for dims and spectral,
_cmd_git for both git commands), so a call compiles only the handler it runs.
A handler returns values, not texts: the JSON payload, the plain lines and the
LaTeX value, which _output prints in the format --format names.  Exit codes
are meant for scripted pipelines:

    0   success; any requested cross-checks passed
    1   a mathematical verification failed: pipeline disagreement, or an
        ArithmeticError (mirror identity violation, a Weil pairing that is
        not alternating or not bilinear, internal consistency assertion)
    2   invalid input: bad flags, or a ValueError (out-of-range
        parameters, a value above its stated cap); or an input too large
        to compute (MemoryError, RecursionError)
    130 interrupted (KeyboardInterrupt, such as Ctrl-C)

Every exception class the package exports subclasses exactly one of
ValueError and ArithmeticError, so none escapes run as a traceback.

JSON output is stable-ordered (sorted keys, index-ordered coefficient
arrays) so golden files can compare bytes.

run parses argv along one of two paths, chosen by the form of argv alone.  A
canonical argv (the command words, then distinct declared flags, each followed
by a value that does not start with "-", every type and choices met and every
required flag present) takes a strict parse of COMMANDS that imports nothing.
Any other argv (--help, a usage error, --flag=value, an abbreviated or
repeated flag, a value that starts with "-") goes to the argparse parser that
build_parser makes from the same table, and argparse prints what it always
printed.  The strict parse either returns the namespace argparse would return
for that argv, attribute for attribute, or defers to argparse; it never
rejects an argv itself.  Neither path imports a computation module: each
handler imports the layer it runs, so a call pays only for the modules it
uses, and a well-formed call never loads argparse.

main is the console entry point and ends the process: it freezes the garbage
collector (gc.freeze) before it raises SystemExit, so the interpreter's exit
does not walk every object the call loaded in one last collection.  A reader
that closes the pipe early (| head) ends the process by SIGPIPE, as it ends any
filter: main imports signal only after the BrokenPipeError, then restores
SIGPIPE's default action and raises it.  A long-lived process should call run,
which returns the exit code and leaves the collector and the signals alone.
"""
import gc
import importlib
import io
import sys
from types import SimpleNamespace

__all__ = ["build_parser", "run", "main"]

# Each integer of dims, spectral and git hm, in absolute value: no result nears
# the 4300-digit print limit.
NUMBER_MAX = 10**6


def _at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")


def _latex(value):
    """A polynomial as inline math, exponents braced (t^3 -> $t^{3}$); any other value as is."""
    return "$" + value.text("{}") + "$" if hasattr(value, "text") else value


def _output(fmt: str, payload: dict, lines, latex) -> None:
    """
    Print payload as JSON; or the lines, each a string, a polynomial or a
    (label, value) pair printed "label: value"; or latex, a polynomial as inline
    math or (label, value) rows as a tabular.  Only the printed text is built.
    """
    if fmt == "json":
        import json

        print(json.dumps(payload, sort_keys=True))
    elif fmt == "plain":
        for line in lines:
            print(*(line if isinstance(line, tuple) else [line]), sep=": ")
    elif isinstance(latex, list):
        rows = (f"{label} & {_latex(value)} \\\\" for label, value in latex)
        print("\\begin{tabular}{ll}", *rows, "\\end{tabular}", sep="\n")
    else:
        print(_latex(latex))


# Every subcommand, declared once: its words, then its help, its handler (a
# function of a private module, named relative to the package) and its
# arguments, each a flag and its add_argument options.  Every subcommand also
# takes FORMAT, last.  The first of two words names a group of GROUPS,
# which has its own help.  A capped flag's options hold its cap (abs_cap caps
# |value|), which its help names as {cap} or {abs_cap}: build_parser fills it
# in from the same options.  At the caps, poincare (vector-bundles) takes
# about 0.4 s, mirror prints 1.1 MB of JSON (the sample cap bounds the
# sampled sweep, O(g) pairings an element) and macdonald 2.6 MB.
FORMAT = ("--format", dict(choices=["plain", "json", "latex"], default="plain"))
GROUPS = {"git": "GIT stability tools"}
# The declarations that dims, spectral and git hm share
_RANK = ("--rank", dict(type=int, required=True, cap=NUMBER_MAX, help="at most {cap}"))
_GENUS = ("--genus", dict(type=int, required=True, cap=NUMBER_MAX,
                          help="curve genus, at most {cap}"))
_DEGREE = dict(type=int, abs_cap=NUMBER_MAX, help="|degree| at most {abs_cap}")
COMMANDS = {
    ("poincare",): ("Poincare polynomial of a moduli space", "_cmd_poincare.poincare", [
        ("--space", dict(choices=["vector-bundles", "higgs"], required=True)),
        ("--genus", dict(type=int, required=True, cap=400, help="curve genus, 2 to {cap}")),
        ("--via", dict(choices=["closed", "recursion", "strata", "both"], default="both"))]),
    ("mirror",): ("verify the rank-2 mirror-symmetry identity", "_cmd_mirror.mirror", [
        ("--genus", dict(type=int, required=True, cap=128, help="curve genus, 2 to {cap}")),
        ("--sample", dict(type=int, default=None, cap=65535, help="check this many random "
                          "nonzero elements instead of all 2^(2g)-1, at most {cap}")),
        ("--seed", dict(type=int, default=0))]),
    ("dims",): ("moduli and Hitchin-base dimensions", "_cmd_geometry.dims", [
        _RANK, _GENUS, ("--degree", dict(_DEGREE, default=0)),
        ("--group", dict(choices=["gl", "sl", "pgl"], default="sl"))]),
    ("spectral",): ("spectral-curve numerology", "_cmd_geometry.spectral", [
        _RANK, _GENUS, ("--degree", dict(_DEGREE, required=True))]),
    ("git", "classify"): ("classify a torus weight profile", "_cmd_git.classify", [
        ("--weights", dict(required=True, metavar="W1,W2,..."))]),
    ("git", "hm"): ("Hilbert-Mumford weight of a filtration", "_cmd_git.hm", [
        ("--blocks", dict(required=True, metavar="N:a:r:d,...",
                          help=f"graded pieces, |entry| at most {NUMBER_MAX}")),
        ("--m", dict(type=int, required=True, abs_cap=NUMBER_MAX,
                     help="twist, |m| at most {abs_cap}")),
        ("--n", dict(type=int, default=None)), _GENUS]),
    ("macdonald",): ("Poincare polynomial of a symmetric product", "_cmd_poincare.macdonald", [
        ("--genus", dict(type=int, required=True, cap=200, help="curve genus, at most {cap}")),
        ("--n", dict(type=int, required=True, cap=10000, help="symmetric power, at most {cap}"))]),
}


def build_parser():
    """
    The argparse parser of COMMANDS, for every argv the strict parse defers:
    --help, usage errors and the other spellings argparse accepts.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="higgsmoduli",
        description="Exact Betti numbers, E-polynomials, and GIT stability "
        "for rank-2 moduli of bundles and Higgs bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (help_text, handler, arguments) in COMMANDS.items():
        if len(words) == 2 and words[0] not in groups:
            group = sub.add_parser(words[0], help=GROUPS[words[0]])
            groups[words[0]] = group.add_subparsers(dest=f"{words[0]}_command", required=True)
        p = groups.get(words[0], sub).add_parser(words[-1], help=help_text)
        for flag, options in (*arguments, FORMAT):
            p.add_argument(flag, **{k: v.format(**options) if k == "help" else v
                                    for k, v in options.items() if k not in ("cap", "abs_cap")})
        p.set_defaults(words=words)
    return parser


def _words(argv) -> tuple:
    """The command words argv starts with: two for a group of GROUPS, else one."""
    return tuple(argv[:2 if argv[:1] and argv[0] in GROUPS else 1])


def _strict_parse(argv) -> SimpleNamespace | None:
    """
    The namespace argparse returns for argv, if argv has the canonical form:
    the command words, then distinct declared flags, each followed by a value
    that does not start with "-", every type and choices met and every
    required flag present.  None for any other argv, which argparse parses.
    """
    words = _words(argv)
    n = len(words)
    given = dict(zip(argv[n::2], argv[n + 1::2]))
    if words not in COMMANDS or 2 * len(given) != len(argv) - n:
        return None  # not a command, a flag without its value, or a repeated flag
    values = {"command": argv[0], **({f"{argv[0]}_command": argv[1]} if n == 2 else {})}
    for flag, options in (*COMMANDS[words][2], FORMAT):
        value = given.pop(flag, None)
        if value is None:
            if options.get("required"):
                return None
            value = options.get("default")
        elif value.startswith("-"):
            return None
        else:
            try:
                value = options.get("type", str)(value)
            except ValueError:
                return None
            if value not in options.get("choices", [value]):
                return None
        values[flag[2:].replace("-", "_")] = value
    if given:
        return None  # an undeclared flag, an abbreviation or a --flag=value
    return SimpleNamespace(**values, words=words)


def _refuse_double_dash(parser, argv) -> None:
    """
    Refuse an argument --flag=-- whose flag is declared, named in full or by
    its only abbreviation, with one message on every Python version: before
    3.13, argparse reads the "--" as an empty list, past type= and choices=,
    and from 3.13 on as the value "--".  Undeclared flags are left to
    argparse's own message.
    """
    words = _words(argv)
    for arg in argv[len(words):] if words in COMMANDS else ():
        named = [flag for flag, _ in (*COMMANDS[words][2], FORMAT) if flag.startswith(arg[:-3])]
        if arg.startswith("--") and arg.endswith("=--") and len(named) == 1:
            parser.error(f"argument {named[0]}: expected one argument")


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit code."""
    args = _strict_parse(argv)
    if args is None:
        parser = build_parser()
        try:
            _refuse_double_dash(parser, argv)
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
    _, handler, arguments = COMMANDS[args.words]
    try:
        for flag, options in arguments:  # every cap, before the handler module loads
            value = getattr(args, flag[2:].replace("-", "_"))
            if "abs_cap" in options:
                _at_most(f"|{flag}|", abs(value), options["abs_cap"])
            elif "cap" in options and value is not None:
                _at_most(flag, value, options["cap"])
        module, _, name = handler.rpartition(".")
        payload, lines, latex = getattr(importlib.import_module(f"higgsmoduli.{module}"), name)(args)
        _output(args.format, payload, lines, latex)
        return int(payload.get("agree") is False)  # 1 when --via both's routes disagree
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
    memory when the process ends.  stdout is flushed before the freeze, and
    atexit handlers still run.  Call run, not main, from a process that goes
    on.
    """
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
        sys.stdout.flush()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    except BrokenPipeError:
        # The reader closed the pipe early (| head): end the way any filter
        # ends, not with a traceback and exit 1, the code of a failed
        # cross-check.  Dying by the signal also drops the unwritten output.
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        signal.raise_signal(signal.SIGPIPE)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # python -m or the script: _cmd_git imports this copy, not a second
    sys.modules["higgsmoduli.cli"] = sys.modules[__name__]
    main()
