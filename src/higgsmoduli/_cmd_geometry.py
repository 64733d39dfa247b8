"""The dims and spectral subcommands."""


def dims(args) -> tuple[dict, list, list]:
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
    header = f"rank {params.r}  degree {params.d}  genus {params.g}  group {params.group}"
    lines = [header, *(f"{name:<13}{value}" for name, value in dims.items())]
    return payload, lines, list(payload.items())


def spectral(args) -> tuple[dict, list, list]:
    from . import geometry

    numbers = geometry.spectral_numbers(args.rank, args.genus, args.degree)
    fields = numbers._asdict()
    payload = {"rank": args.rank, "genus": args.genus, "degree": args.degree, **fields}
    width = max(len(name) for name in fields) + 2
    lines = [f"{name:<{width}}{value}" for name, value in fields.items()]
    return payload, lines, list(fields.items())
