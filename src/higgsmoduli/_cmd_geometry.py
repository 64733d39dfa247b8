"""The dims and spectral subcommands."""


def dims(args) -> tuple[dict, list, list]:
    from . import geometry

    group = args.group.upper()
    spaces = {"bundles": "bundles", "higgs": "higgs", "hitchin_base": "hitchin-base"}
    dims = {key: geometry.moduli_dim(args.rank, args.genus, space, group)
            for key, space in spaces.items()}
    payload = {"rank": args.rank, "degree": args.degree, "genus": args.genus, "group": group, **dims}
    header = f"rank {args.rank}  degree {args.degree}  genus {args.genus}  group {group}"
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
