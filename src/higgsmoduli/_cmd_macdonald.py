"""The macdonald subcommand: the Poincare polynomial of a symmetric product."""
from .cli import MACDONALD_MAX_GENUS, MACDONALD_MAX_N, _at_most, _latex


def macdonald(args):
    _at_most("--genus", args.genus, MACDONALD_MAX_GENUS)
    _at_most("--n", args.n, MACDONALD_MAX_N)
    from . import exactpoly

    poly = exactpoly.coeff_extract_x(args.genus, args.n)
    payload = {"genus": args.genus, "n": args.n, "coeffs": poly.to_coeff_list()}
    return payload, lambda: str(poly), lambda: _latex(poly)
