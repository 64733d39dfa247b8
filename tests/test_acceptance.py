"""
Acceptance gate. One test per criterion; `pytest -v tests/test_acceptance.py`
emits one pass/fail line for each. Every comparison is exact; the timing
budgets are the stated ones.
"""
import json
import math
import random
import time

import pytest

from higgsmoduli import cli
from higgsmoduli.bundles import poincare_N_closed, poincare_N_recursion
from higgsmoduli.exactpoly import coeff_extract_x
from higgsmoduli.geometry import (
    hilbert_poly,
    hitchin_base_dim,
    moduli_dim,
    spectral_numbers,
)
from higgsmoduli.higgs import poincare_M_closed, poincare_M_stratified
from higgsmoduli.mirror import mirror_verify
from higgsmoduli.stability import (
    Stability,
    hm_weight,
    torus_classify,
)
from test_stability import random_filtration


def report(n, label, elapsed=None, budget=None):
    timing = f" ({elapsed:.3f}s < {budget}s)" if elapsed is not None else ""
    print(f"criterion {n}: PASS - {label}{timing}")


def test_criterion_1_vector_bundle_betti_g2(capsys):
    start = time.perf_counter()
    code = cli.run(["poincare", "--space", "vector-bundles", "--genus", "2",
                    "--via", "both"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "1 + t^2 + 4t^3 + t^4 + t^6" in out
    assert "agree" in out
    assert poincare_N_closed(2).to_coeff_list() == [1, 0, 1, 4, 1, 0, 1]
    assert poincare_N_recursion(2).to_coeff_list() == [1, 0, 1, 4, 1, 0, 1]
    assert elapsed < 0.1
    with capsys.disabled():
        report(1, "vector-bundle Betti numbers g=2, both pipelines", elapsed, 0.1)


def test_criterion_2_higgs_betti_g2(capsys):
    start = time.perf_counter()
    code = cli.run(["poincare", "--space", "higgs", "--genus", "2",
                    "--via", "both", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["coeffs"] == [1, 0, 1, 4, 2, 34, 2]
    assert poincare_M_stratified(2).to_coeff_list() == [1, 0, 1, 4, 2, 34, 2]
    assert poincare_M_closed(2).to_coeff_list() == [1, 0, 1, 4, 2, 34, 2]
    assert elapsed < 0.5
    with capsys.disabled():
        report(2, "Higgs Betti numbers g=2, both pipelines", elapsed, 0.5)


def test_criterion_3_cross_pipeline_sweep(capsys):
    start = time.perf_counter()
    for g in range(2, 9):
        assert poincare_N_closed(g) == poincare_N_recursion(g), f"N mismatch at g={g}"
        assert poincare_M_closed(g) == poincare_M_stratified(g), f"M mismatch at g={g}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    with capsys.disabled():
        report(3, "closed == recursion and closed == strata for g=2..8", elapsed, 30)


def test_criterion_4_mirror_identity(capsys, monkeypatch):
    expected_counts = {2: 15, 3: 63, 4: 255, 5: 1023, 6: 4095}
    for g in range(2, 6):
        rep = mirror_verify(g)
        assert rep.elements_checked == expected_counts[g]
    start = time.perf_counter()
    rep = mirror_verify(6)
    elapsed = time.perf_counter() - start
    assert rep.elements_checked == 4095
    assert elapsed < 60

    import higgsmoduli.mirror as mirror_mod

    with monkeypatch.context() as mp:
        mp.setattr(mirror_mod, "fermionic_shift", lambda g: 2 * g - 1)
        assert cli.run(["mirror", "--genus", "2"]) == 1
    with monkeypatch.context() as mp:
        mp.setattr(mirror_mod, "weil_pairing", lambda g, a, b: 1)
        assert cli.run(["mirror", "--genus", "2"]) == 1
    with monkeypatch.context() as mp:
        # not bilinear: -1 on every nonzero pair, caught by the alternation check
        mp.setattr(mirror_mod, "weil_pairing",
                   lambda g, a, b: 1 if a == 0 or b == 0 else -1)
        assert cli.run(["mirror", "--genus", "2"]) == 1
    capsys.readouterr()
    with capsys.disabled():
        report(4, "mirror identity g=2..6 exhaustive; mutations exit 1", elapsed, 60)


def test_criterion_5_property_suites(capsys):
    # palindromicity of P_t(N) about 3(g-1)
    for g in range(2, 8):
        p = poincare_N_closed(g)
        assert p.degree() == 6 * (g - 1) and p.is_palindromic()

    # Macdonald palindromicity about n and the Euler-characteristic identity
    for g in range(2, 6):
        for n in range(0, 9):
            q = coeff_extract_x(g, n)
            coeffs = q.to_coeff_list() + [0] * (2 * n + 1 - len(q.to_coeff_list()))
            assert coeffs == coeffs[::-1]
            assert q.evaluate(-1) == (-1) ** n * math.comb(2 * g - 2, n)

    # half-dimension identity, r=1..6, g=2..10
    for r in range(1, 7):
        for g in range(2, 11):
            assert 2 * hitchin_base_dim(r, g) == moduli_dim(r, g, "higgs", group="GL")
            if r >= 2:
                assert 2 * hitchin_base_dim(r, g, reduced=True) == moduli_dim(r, g, "higgs")

    # Riemann-Hurwitz consistency
    for r in range(1, 7):
        for g in range(2, 8):
            for d in (-3, 0, 1, 5):
                sn = spectral_numbers(r, g, d)
                assert 2 * sn.spectral_genus - 2 == r * (2 * g - 2) + sn.ramification_degree

    # two-expression agreement on 1000 randomized filtrations
    rng = random.Random(99)
    for _ in range(1000):
        hm_weight(random_filtration(rng))

    # torus classifier invariance under positive scaling
    rng = random.Random(7)
    for _ in range(300):
        ws = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        scale = rng.randint(1, 9)
        assert torus_classify(ws) is torus_classify([scale * w for w in ws])

    with capsys.disabled():
        report(5, "property suites (palindromes, Euler, half-dimension, "
                  "Riemann-Hurwitz, 1000 filtrations, scaling)")


def test_criterion_6_git_golden_cases(capsys):
    assert torus_classify([1, 2]) is Stability.UNSTABLE
    assert torus_classify([0]) is Stability.STRICTLY_POLYSTABLE
    assert torus_classify([-1, 2]) is Stability.STABLE
    for flags, expected in [
        ("1,2", "Unstable"),
        ("0", "StrictlyPolystable"),
        ("-1,2", "Stable"),
    ]:
        assert cli.run(["git", "classify", f"--weights={flags}"]) == 0
    capsys.readouterr()
    with capsys.disabled():
        report(6, "torus classifier golden verdicts")
