"""The mirror subcommand: the rank-2 mirror-symmetry check at one genus."""


def mirror(args) -> tuple[dict, list, list]:
    from .mirror import mirror_verify

    report = mirror_verify(args.genus, sample=args.sample, seed=args.seed)
    payload = {
        "genus": report.genus,
        "elements_checked": report.elements_checked,
        "pass": report.passed,
        "lhs": report.lhs.to_sorted_dict(),
        "rhs_sample": report.rhs_sample.to_sorted_dict(),
    }
    plain = (f"genus {report.genus}: {report.elements_checked} elements checked, "
             f"{'pass' if report.passed else 'FAIL'}")
    latex = [("genus", report.genus), ("elements checked", report.elements_checked),
             ("pass", str(report.passed).lower())]
    return payload, [plain], latex
