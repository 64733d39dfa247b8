"""The macdonald subcommand: the Poincare polynomial of a symmetric product."""
from .cli import _latex


def macdonald(args):
    from . import exactpoly

    poly = exactpoly.coeff_extract_x(args.genus, args.n)
    payload = {"genus": args.genus, "n": args.n, "coeffs": poly.to_coeff_list()}
    return payload, lambda: str(poly), lambda: _latex(poly)
