"""The git classify and git hm subcommands."""
from .cli import NUMBER_MAX, _at_most


def classify(args) -> tuple[dict, list, list]:
    from . import stability

    try:
        weights = tuple(int(w) for w in args.weights.split(",") if w.strip() != "")
    except ValueError:
        raise ValueError(f"--weights expects comma-separated integers, got {args.weights!r}")
    verdict = stability.torus_classify(weights)
    latex = [("weights", ",".join(map(str, weights))), ("verdict", verdict.value)]
    return {"weights": list(weights), "verdict": verdict.value}, [verdict.value], latex


def _parse_blocks(text: str) -> list[tuple[int, ...]]:
    """N:a:r:d entries, each as a tuple of four ints."""
    blocks = []
    for chunk in text.split(","):
        pieces = chunk.split(":")
        if len(pieces) != 4:
            raise ValueError(f"--blocks expects N:a:r:d entries, got {chunk!r}")
        try:
            block = tuple(int(p) for p in pieces)
        except ValueError:
            raise ValueError(f"--blocks entries must be integers, got {chunk!r}")
        _at_most("|--blocks entry|", max(map(abs, block)), NUMBER_MAX)
        blocks.append(block)
    return blocks


def hm(args) -> tuple[dict, list, list]:
    blocks = _parse_blocks(args.blocks)
    from . import stability

    filtration = stability.FiltrationData(blocks, m=args.m, g=args.genus)
    weight = stability.hm_weight(filtration)
    payload = {
        "blocks": [list(b) for b in filtration.blocks],
        "m": filtration.m,
        "n": args.n,
        "genus": filtration.g,
        "weight": weight,
    }
    return payload, [f"weight = {weight}"], [("blocks", args.blocks), ("m", filtration.m),
                                              ("genus", filtration.g), ("weight", weight)]
