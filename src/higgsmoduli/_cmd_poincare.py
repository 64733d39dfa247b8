"""The poincare and macdonald subcommands: each prints one Poincare polynomial."""


def poincare(args):
    g = args.genus
    if args.via not in ("both", "closed", "recursion" if args.space == "vector-bundles" else "strata"):
        raise ValueError(f"--via {args.via} does not apply to --space {args.space}")
    if args.space == "vector-bundles":
        from . import bundles

        pipelines = {"closed": bundles.poincare_N_closed, "recursion": bundles.poincare_N_recursion}
    else:
        from . import higgs

        pipelines = {"closed": higgs.poincare_M_closed, "strata": higgs.poincare_M_stratified}

    payload = {"space": args.space, "genus": g, "via": args.via}
    if args.via != "both":
        poly = pipelines[args.via](g)
        lines = [poly]
    else:
        (name_a, route_a), (name_b, route_b) = pipelines.items()
        poly, poly_b = route_a(g), route_b(g)
        payload["agree"] = poly == poly_b
        if not payload["agree"]:
            payload[f"coeffs_{name_a}"] = poly.coeffs
            payload[f"coeffs_{name_b}"] = poly_b.coeffs
            rows = [(name_a, poly), (name_b, poly_b)]
            return payload, [*rows, "PIPELINES DISAGREE"], rows
        del poly_b  # only poly is printed
        lines = [poly, f"{name_a} and {name_b} agree"]
    payload["coeffs"] = poly.coeffs
    return payload, lines, poly


def macdonald(args):
    from . import exactpoly

    poly = exactpoly.coeff_extract_x(args.genus, args.n)
    return {"genus": args.genus, "n": args.n, "coeffs": poly.coeffs}, [poly], poly
