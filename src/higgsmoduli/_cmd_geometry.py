"""The dims and spectral subcommands."""
from .cli import _latex_table


def dims(args) -> tuple[dict, str, str]:
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
    body = "\n".join(f"{name:<13}{value}" for name, value in dims.items())
    return payload, f"{header}\n{body}", _latex_table(payload.items())


def spectral(args) -> tuple[dict, str, str]:
    from . import geometry

    numbers = geometry.spectral_numbers(args.rank, args.genus, args.degree)
    fields = numbers._asdict()
    payload = {"rank": args.rank, "genus": args.genus, "degree": args.degree, **fields}
    width = max(len(name) for name in fields) + 2
    plain = "\n".join(f"{name:<{width}}{value}" for name, value in fields.items())
    return payload, plain, _latex_table(list(fields.items()))
