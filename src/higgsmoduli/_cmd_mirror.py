"""The mirror subcommand: the rank-2 mirror-symmetry check at one genus."""


def mirror(args) -> tuple[dict, list, list]:
    from .mirror import mirror_verify

    # mirror_verify raises at the first failed check, so a report is a pass
    report = mirror_verify(args.genus, sample=args.sample, seed=args.seed)
    payload = {
        "genus": report.genus,
        "elements_checked": report.elements_checked,
        "pass": True,
        "lhs": {f"{p},{q}": c for (p, q), c in report.lhs.items()},
        "rhs_sample": {f"{p},{q}": c for (p, q), c in report.rhs_sample.items()},
    }
    plain = f"genus {report.genus}: {report.elements_checked} elements checked, pass"
    latex = [("genus", report.genus), ("elements checked", report.elements_checked),
             ("pass", "true")]
    return payload, [plain], latex
