"""
Independent recomputation of the frozen values with sympy's rational-function
arithmetic. These are deliberately written against a different engine so a
kernel bug and a matching test bug cannot cancel.
"""
import sympy
from sympy.abc import t, u, v, x

from higgsmoduli.bundles import poincare_N_closed, strata_equivariant_poly
from higgsmoduli.exactpoly import coeff_extract_x
from higgsmoduli.higgs import poincare_M_closed
from higgsmoduli.mirror import e_poly_kappa_lhs, e_poly_rhs


def poly_from_expr(expr, var):
    p = sympy.Poly(sympy.expand(expr), var)
    return [int(c) for c in reversed(p.all_coeffs())]


def test_bundle_closed_form_matches_sympy_division():
    for g in (2, 3):
        num = (1 + t**3) ** (2 * g) - t ** (2 * g) * (1 + t) ** (2 * g)
        den = (1 - t**2) * (1 - t**4)
        quotient = sympy.cancel(num / den)
        assert sympy.simplify(quotient - sympy.expand(quotient)) == 0
        assert poly_from_expr(quotient, t) == poincare_N_closed(g).to_coeff_list()


def test_stratum_series_matches_sympy_expansion():
    g, order = 2, 5
    expr = ((1 + t) ** (2 * g) / (1 - t**2)) ** 2
    series = sympy.series(expr, t, 0, order).removeO()
    expected = [int(series.coeff(t, i)) for i in range(order)]
    got = strata_equivariant_poly(g, order)
    assert expected == [got.coefficient(i) for i in range(order)]
    assert expected == [1, 8, 30, 72, 129]


def test_higgs_closed_form_matches_sympy_summation():
    for g in (2, 3):
        bracket = (1 + t**2) ** 2 * (1 + t) ** (2 * g) - (1 + t) ** 4 * (1 - t) ** (
            2 * g
        )
        expr = (
            (1 + t**3) ** (2 * g) / ((1 - t**2) * (1 - t**4))
            - t ** (4 * g - 4) * bracket / (4 * (1 - t**2) * (1 - t**4))
            - (g - 1) * t ** (4 * g - 3) * (1 + t) ** (2 * g - 2) / (1 - t)
            + 2 ** (2 * g - 1)
            * t ** (4 * g - 4)
            * ((1 + t) ** (2 * g - 2) - (1 - t) ** (2 * g - 2))
        )
        poly = sympy.cancel(sympy.together(expr))
        assert poly_from_expr(poly, t) == poincare_M_closed(g).to_coeff_list()


def test_macdonald_matches_sympy_series_in_x():
    for g, n in [(2, 1), (3, 3), (2, 4)]:
        expr = (1 + x * t) ** (2 * g) / ((1 - x) * (1 - x * t**2))
        coeff = (
            sympy.series(expr, x, 0, n + 1).removeO().coeff(x, n)
        )
        assert poly_from_expr(sympy.expand(coeff), t) == coeff_extract_x(
            g, n
        ).to_coeff_list()


def bivar_from_expr(expr):
    poly = sympy.Poly(sympy.expand(expr), u, v)
    return {
        (int(p), int(q)): int(c)
        for (p, q), c in zip(poly.monoms(), poly.coeffs())
        if c != 0
    }


def test_mirror_lhs_matches_sympy_half_difference():
    for g in (2, 3):
        expr = (
            (u * v) ** (3 * g - 3)
            * sympy.Rational(1, 2)
            * (
                (1 - u) ** (g - 1) * (1 - v) ** (g - 1)
                - (1 + u) ** (g - 1) * (1 + v) ** (g - 1)
            )
        )
        got = e_poly_kappa_lhs(g)
        assert bivar_from_expr(expr) == got


def test_mirror_rhs_matches_lhs_per_sympy():
    for g in (2, 3):
        lhs = e_poly_kappa_lhs(g)
        rhs = e_poly_rhs(g, 3)
        assert lhs == rhs
