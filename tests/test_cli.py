"""Command-line surface: dispatch, formats, exit codes, JSON stability."""
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import higgsmoduli
from higgsmoduli import cli
from higgsmoduli.exactpoly import IntPoly, coeff_extract_x

ROOT = Path(__file__).resolve().parents[1]


def cap(words, flag):
    """The cap that cli.COMMANDS declares for flag of the command words."""
    return dict(cli.COMMANDS[words][2])[flag]["cap"]


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def restore_sigpipe():
    """
    cli.main freezes the collector for its process, and resets SIGPIPE after
    a broken pipe; give the test process its handler and its collectable
    objects back.
    """
    previous = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    yield
    if previous is not None:
        signal.signal(signal.SIGPIPE, previous)
    gc.unfreeze()


@pytest.mark.parametrize(
    "coeffs, plain, latex",
    [
        ([-1, 1, 0, -3, 1, 0, 12], "-1 + t - 3t^3 + t^4 + 12t^6", "-1 + t - 3t^{3} + t^{4} + 12t^{6}"),
        ([], "0", "0"),
        ([0, -1], "-t", "-t"),
        ([5], "5", "5"),
        ([0] * 10 + [-1], "-t^10", "-t^{10}"),
    ],
    ids=["mixed-signs", "zero", "minus-t", "constant", "two-digit-exponent"],
)
def test_poly_display(coeffs, plain, latex):
    poly = IntPoly(coeffs)
    assert str(poly) == plain
    assert cli._latex(poly) == f"${latex}$"
    assert repr(poly) == f"IntPoly('{poly}')"


# Calls that print Poincare polynomials, and whether both routes agree
TEXT_CALLS = {
    "poincare-both": (("poincare", "--space", "higgs", "--genus", "3"), True),
    "poincare-one": (("poincare", "--space", "vector-bundles", "--genus", "3", "--via", "closed"),
                     True),
    "macdonald": (("macdonald", "--genus", "3", "--n", "3"), True),
    "poincare-disagree": (("poincare", "--space", "higgs", "--genus", "3"), False),
}


@pytest.mark.parametrize(
    "fmt, argv, agree",
    [(fmt, *call) for fmt in ("json", "plain", "latex") for call in TEXT_CALLS.values()],
    ids=[name if fmt == "json" else f"{fmt}-{name}"
         for fmt in ("json", "plain", "latex") for name in TEXT_CALLS],
)
def test_json_call_formats_no_polynomial_text(capsys, monkeypatch, fmt, argv, agree):
    # each format builds only the text it prints: a JSON call none, which keeps
    # them out of the peak memory of a JSON call at the genus cap; a plain
    # call no braced exponents, and a LaTeX call no plain text
    original = IntPoly.text

    def text(poly, braces=""):
        if fmt == "json" or bool(braces) != (fmt == "latex"):
            raise AssertionError(f"a {fmt} call built a text it does not print")
        return original(poly, braces)

    if not agree:
        import higgsmoduli.higgs as higgs

        monkeypatch.setattr(higgs, "poincare_M_stratified", lambda g: IntPoly([1]))
    monkeypatch.setattr(IntPoly, "__str__", text)
    monkeypatch.setattr(IntPoly, "text", text)
    code, out, _ = invoke(capsys, *argv, "--format", fmt)
    assert code == (0 if agree else 1)
    if fmt == "json":
        assert json.loads(out)["coeffs"] if agree else json.loads(out)["agree"] is False
    else:
        assert "t^" in out
        assert ("t^{" in out) == (fmt == "latex")


class TestPoincare:
    def test_vector_bundles_both_plain(self, capsys):
        code, out, _ = invoke(
            capsys, "poincare", "--space", "vector-bundles", "--genus", "2"
        )
        assert code == 0
        assert "1 + t^2 + 4t^3 + t^4 + t^6" in out
        assert "agree" in out

    def test_higgs_both_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "poincare", "--space", "higgs", "--genus", "2",
            "--via", "both", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == [1, 0, 1, 4, 2, 34, 2]
        assert payload["agree"] is True
        assert payload["space"] == "higgs"
        assert payload["via"] == "both"

    def test_single_pipeline_json_schema(self, capsys):
        code, out, _ = invoke(
            capsys,
            "poincare", "--space", "vector-bundles", "--genus", "3",
            "--via", "closed", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"space", "genus", "via", "coeffs"}
        assert payload["via"] == "closed"
        assert payload["genus"] == 3

    def test_latex_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            "poincare", "--space", "vector-bundles", "--genus", "2",
            "--via", "closed", "--format", "latex",
        )
        assert code == 0
        assert out.strip() == "$1 + t^{2} + 4t^{3} + t^{4} + t^{6}$"

    def test_genus_one_is_invalid_input(self, capsys):
        code, _, err = invoke(capsys, "poincare", "--space", "higgs", "--genus", "1")
        assert code == 2
        assert "error" in err

    def test_via_mismatch_is_invalid_input(self, capsys):
        code, _, _ = invoke(
            capsys,
            "poincare", "--space", "higgs", "--genus", "2", "--via", "recursion",
        )
        assert code == 2
        code, _, _ = invoke(
            capsys,
            "poincare", "--space", "vector-bundles", "--genus", "2", "--via", "strata",
        )
        assert code == 2

    def test_pipeline_disagreement_exits_one(self, capsys, monkeypatch):
        import higgsmoduli.bundles as bundles
        from higgsmoduli.exactpoly import IntPoly

        monkeypatch.setattr(
            bundles, "poincare_N_recursion",
            lambda g, order=None: IntPoly([1]),
        )
        code, out, _ = invoke(
            capsys,
            "poincare", "--space", "vector-bundles", "--genus", "2",
            "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["agree"] is False
        assert "coeffs_closed" in payload and "coeffs_recursion" in payload

    @pytest.mark.parametrize(
        "space, module, route, stand_in, expected",
        [
            ("vector-bundles", "bundles", "poincare_N_recursion", [1, 0, -2, 3], {
                "plain": "closed: 1 + t^2 + 4t^3 + t^4 + t^6\n"
                         "recursion: 1 - 2t^2 + 3t^3\n"
                         "PIPELINES DISAGREE\n",
                "json": '{"agree": false, "coeffs_closed": [1, 0, 1, 4, 1, 0, 1], '
                        '"coeffs_recursion": [1, 0, -2, 3], "genus": 2, '
                        '"space": "vector-bundles", "via": "both"}\n',
                "latex": "\\begin{tabular}{ll}\n"
                         "closed & $1 + t^{2} + 4t^{3} + t^{4} + t^{6}$ \\\\\n"
                         "recursion & $1 - 2t^{2} + 3t^{3}$ \\\\\n"
                         "\\end{tabular}\n",
            }),
            ("higgs", "higgs", "poincare_M_stratified", [0] * 11 + [5], {
                "plain": "closed: 1 + t^2 + 4t^3 + 2t^4 + 34t^5 + 2t^6\n"
                         "strata: 5t^11\n"
                         "PIPELINES DISAGREE\n",
                "json": '{"agree": false, "coeffs_closed": [1, 0, 1, 4, 2, 34, 2], '
                        '"coeffs_strata": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5], '
                        '"genus": 2, "space": "higgs", "via": "both"}\n',
                "latex": "\\begin{tabular}{ll}\n"
                         "closed & $1 + t^{2} + 4t^{3} + 2t^{4} + 34t^{5} + 2t^{6}$ \\\\\n"
                         "strata & $5t^{11}$ \\\\\n"
                         "\\end{tabular}\n",
            }),
        ],
        ids=["vector-bundles", "higgs"],
    )
    def test_disagreement_bytes(self, capsys, monkeypatch, space, module, route, stand_in,
                                expected):
        monkeypatch.setattr(importlib.import_module(f"higgsmoduli.{module}"), route,
                            lambda g: IntPoly(stand_in))
        for fmt, text in expected.items():
            assert invoke(capsys, "poincare", "--space", space, "--genus", "2",
                          "--format", fmt) == (1, text, "")

    def test_payload_key_sets(self, capsys, monkeypatch):
        def keys(code, *argv):
            result = invoke(capsys, "poincare", "--space", "higgs", "--genus", "2",
                            "--format", "json", *argv)
            assert result[0] == code
            return sorted(json.loads(result[1]))

        assert keys(0, "--via", "strata") == ["coeffs", "genus", "space", "via"]
        assert keys(0) == ["agree", "coeffs", "genus", "space", "via"]
        monkeypatch.setattr(importlib.import_module("higgsmoduli.higgs"),
                            "poincare_M_stratified", lambda g: IntPoly([1]))
        assert keys(1) == ["agree", "coeffs_closed", "coeffs_strata", "genus", "space", "via"]

    def test_genus_cap(self, capsys, monkeypatch):
        import higgsmoduli.bundles as bundles

        code, out, err = invoke(capsys, "poincare", "--space", "higgs", "--genus", "401")
        assert code == 2
        assert out == ""
        assert err == "error: --genus must be at most 400, got 401\n"
        # 400 itself is accepted (stand-in pipelines keep this fast)
        monkeypatch.setattr(bundles, "poincare_N_closed", lambda g: IntPoly([g]))
        monkeypatch.setattr(bundles, "poincare_N_recursion", lambda g: IntPoly([g]))
        code, out, _ = invoke(capsys, "poincare", "--space", "vector-bundles", "--genus", "400")
        assert code == 0
        assert out == "400\nclosed and recursion agree\n"
        code, out, _ = invoke(capsys, "poincare", "--help")
        assert code == 0 and "2 to 400" in out


class TestMirror:
    def test_genus_two_plain(self, capsys):
        code, out, _ = invoke(capsys, "mirror", "--genus", "2")
        assert code == 0
        assert "15 elements checked, pass" in out

    def test_json_report(self, capsys):
        code, out, _ = invoke(capsys, "mirror", "--genus", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["genus"] == 2
        assert payload["elements_checked"] == 15
        assert payload["pass"] is True
        assert payload["lhs"] == {"3,4": -1, "4,3": -1}
        assert payload["rhs_sample"] == payload["lhs"]

    def test_sample_flag(self, capsys):
        code, out, _ = invoke(
            capsys, "mirror", "--genus", "4", "--sample", "7", "--seed", "5"
        )
        assert code == 0
        assert "7 elements checked" in out

    def test_certificate_is_the_default_at_every_genus(self, capsys, monkeypatch):
        import higgsmoduli.mirror as mirror_mod

        certified = []
        certificate = mirror_mod._certificate
        monkeypatch.setattr(mirror_mod, "_certificate",
                            lambda g: certified.append(g) or certificate(g))
        for genus, count in ((7, 16383), (10, 1048575)):
            code, out, _ = invoke(capsys, "mirror", "--genus", str(genus))
            assert code == 0
            assert f"{count} elements checked, pass" in out
        assert certified == [7, 10]

    def test_help_states_the_genus_range(self, capsys):
        code, out, _ = invoke(capsys, "mirror", "--help")
        assert code == 0 and f"2 to {cap(('mirror',), '--genus')}" in out

    def test_genus_cap(self, capsys):
        top = cap(("mirror",), "--genus")
        code, out, err = invoke(capsys, "mirror", "--genus", str(top + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: --genus must be at most {top}, got {top + 1}\n"
        code, out, _ = invoke(capsys, "mirror", "--genus", str(top), "--sample", "1")
        assert code == 0
        assert f"genus {top}: 1 elements checked, pass" in out

    def test_sample_past_ssize_t(self, capsys):
        # from g = 32 on, 4^g - 1 does not fit a C ssize_t; the draw never needs it to
        code, out, err = invoke(capsys, "mirror", "--genus", "32", "--sample", "3")
        assert (code, out, err) == (0, "genus 32: 3 elements checked, pass\n", "")

    def test_sample_cap(self, capsys):
        # the cap is the same at every genus
        code, out, err = invoke(capsys, "mirror", "--genus", "10", "--sample", "65536")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "65535" in err
        code, out, _ = invoke(capsys, "mirror", "--genus", "2", "--sample", "65535")
        assert code == 0
        assert "15 elements checked, pass" in out

    def test_identity_violation_exits_one(self, capsys, monkeypatch):
        import higgsmoduli.mirror as mirror_mod

        monkeypatch.setattr(mirror_mod, "fermionic_shift", lambda g: 2 * g - 1)
        code, _, err = invoke(capsys, "mirror", "--genus", "2")
        assert code == 1
        assert "verification failed" in err


class TestDims:
    def test_plain(self, capsys):
        code, out, _ = invoke(
            capsys, "dims", "--rank", "2", "--genus", "2", "--degree", "1"
        )
        assert code == 0
        assert "bundles" in out and "3" in out

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "dims", "--rank", "2", "--genus", "2", "--degree", "1",
            "--group", "gl", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "bundles": 5,
            "degree": 1,
            "genus": 2,
            "group": "GL",
            "higgs": 10,
            "hitchin_base": 5,
            "rank": 2,
        }

    def test_default_group_is_sl(self, capsys):
        code, out, _ = invoke(
            capsys, "dims", "--rank", "2", "--genus", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["group"] == "SL"
        assert payload["bundles"] == 3

    def test_invalid_rank(self, capsys):
        code, _, _ = invoke(capsys, "dims", "--rank", "0", "--genus", "2")
        assert code == 2

    @given(st.integers(1, 6), st.integers(2, 9), st.sampled_from(["gl", "sl", "pgl"]))
    @settings(max_examples=30, deadline=None)
    def test_degree_enters_no_dimension(self, rank, genus, group):
        # --degree is echoed, but no dimension formula reads it
        seen = set()
        for degree in range(-20, 21):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(["dims", "--rank", str(rank), "--genus", str(genus),
                                f"--degree={degree}", "--group", group, "--format", "json"])
            payload = json.loads(out.getvalue())
            assert code == 0 and payload["degree"] == degree
            seen.add((payload["bundles"], payload["higgs"], payload["hitchin_base"]))
        assert len(seen) == 1


class TestSpectral:
    def test_plain_columns_stay_separated(self, capsys):
        code, out, _ = invoke(
            capsys, "spectral", "--rank", "3", "--genus", "2", "--degree", "0"
        )
        assert code == 0
        rows = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert rows == {
            "ramification_degree": "12",
            "spectral_genus": "10",
            "line_degree_delta": "6",
        }

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "spectral", "--rank", "2", "--genus", "2", "--degree", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "degree": 1,
            "genus": 2,
            "line_degree_delta": 3,
            "ramification_degree": 4,
            "rank": 2,
            "spectral_genus": 5,
        }


class TestGitSubcommands:
    def test_classify_golden(self, capsys):
        for weights, verdict in [
            ("1,2", "Unstable"),
            ("0", "StrictlyPolystable"),
            ("-1,2", "Stable"),
        ]:
            code, out, _ = invoke(capsys, "git", "classify", f"--weights={weights}")
            assert code == 0
            assert out.strip() == verdict

    def test_classify_json(self, capsys):
        code, out, _ = invoke(
            capsys, "git", "classify", "--weights=-1,2", "--format", "json"
        )
        assert json.loads(out) == {"verdict": "Stable", "weights": [-1, 2]}

    def test_classify_bad_weights(self, capsys):
        code, _, err = invoke(capsys, "git", "classify", "--weights", "a,b")
        assert code == 2
        code, _, _ = invoke(capsys, "git", "classify", "--weights", "")
        assert code == 2

    def test_hm_example(self, capsys):
        code, out, _ = invoke(
            capsys,
            "git", "hm", "--blocks", "1:1:1:0,1:-1:1:1", "--m", "5", "--genus", "2",
        )
        assert code == 0
        assert "weight = 1" in out

    def test_hm_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "git", "hm", "--blocks", "1:1:1:0,1:-1:1:1",
            "--m", "5", "--genus", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["weight"] == 1
        assert payload["blocks"] == [[1, 1, 1, 0], [1, -1, 1, 1]]

    def test_hm_bad_blocks(self, capsys):
        code, _, _ = invoke(
            capsys, "git", "hm", "--blocks", "1:1:1", "--m", "5", "--genus", "2"
        )
        assert code == 2
        code, _, _ = invoke(
            capsys, "git", "hm", "--blocks", "1:1:1:0", "--m", "5", "--genus", "2"
        )
        assert code == 2  # single block must carry weight 0


class TestMacdonald:
    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "macdonald", "--genus", "2", "--n", "1")
        assert code == 0
        assert out.strip() == "1 + 4t + t^2"

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "macdonald", "--genus", "3", "--n", "3", "--format", "json"
        )
        assert json.loads(out) == {
            "coeffs": [1, 6, 16, 26, 16, 6, 1],
            "genus": 3,
            "n": 3,
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--genus", "201", "--n", "1"), "--genus must be at most 200, got 201"),
            (("--genus", "2", "--n", "10001"), "--n must be at most 10000, got 10001"),
            # used to compute first, then fail on Python's int-to-str digit limit
            (("--genus", "10000", "--n", "10000"), "--genus must be at most 200, got 10000"),
        ],
    )
    def test_caps(self, capsys, argv, message):
        code, out, err = invoke(capsys, "macdonald", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_largest_accepted_call(self, capsys):
        code, out, _ = invoke(capsys, "macdonald", "--genus", "200", "--n", "10000")
        assert code == 0
        assert out == str(coeff_extract_x(200, 10000)) + "\n"
        code, out, _ = invoke(capsys, "macdonald", "--help")
        assert code == 0 and "at most 200" in out and "at most 10000" in out


class TestNumberCaps:
    BIG = "1" + "0" * 2100  # parses (under 4300 digits), but r^2 g would not print

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("dims", "--rank", "1000000000000", "--genus", "2"),
             "--rank must be at most 1000000, got 1000000000000"),
            (("dims", "--rank", "2", "--genus", "1000001"),
             "--genus must be at most 1000000, got 1000001"),
            (("dims", "--rank", "2", "--genus", "2", "--degree=-1000001"),
             "|--degree| must be at most 1000000, got 1000001"),
            (("spectral", "--rank", BIG, "--genus", BIG, "--degree", "0"),
             f"--rank must be at most 1000000, got {BIG}"),
            (("spectral", "--rank", "2", "--genus", "2", "--degree", "1000001"),
             "|--degree| must be at most 1000000, got 1000001"),
            (("git", "hm", "--blocks", "1:1:1:0,1:-1:1:1", "--m", BIG, "--genus", "2"),
             f"|--m| must be at most 1000000, got {BIG}"),
            (("git", "hm", "--blocks", "1:1:1:0,1:-1:1:1", "--m", "5", "--genus", "1000001"),
             "--genus must be at most 1000000, got 1000001"),
            (("git", "hm", "--blocks", "1:1:1:0,1:-1:1:-1000001", "--m", "5", "--genus", "2"),
             "|--blocks entry| must be at most 1000000, got 1000001"),
        ],
        ids=["dims-rank", "dims-genus", "dims-degree", "spectral-huge", "spectral-degree",
             "hm-m", "hm-genus", "hm-block"],
    )
    def test_caps(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("dims", "--rank", "1000000", "--genus", "1000000", "--degree=-1000000"),
            ("spectral", "--rank", "1000000", "--genus", "1000000", "--degree", "1000000"),
            ("git", "hm", "--blocks", "1000000:1000000:1000000:-1000000,1000000:-1000000:1:1000000",
             "--m=-1000000", "--genus", "1000000"),
        ],
        ids=["dims", "spectral", "git-hm"],
    )
    def test_largest_accepted_call(self, capsys, argv):
        code, _, _ = invoke(capsys, *argv)
        assert code == 0
        help_argv = argv[:2] if argv[0] == "git" else argv[:1]
        code, out, _ = invoke(capsys, *help_argv, "--help")
        assert code == 0 and "at most 1000000" in out


# Every --help screen at 80 columns, byte for byte: the order of the arguments,
# their help strings and --format in last place.
HELP_SCREENS = {
    "": """\
usage: higgsmoduli [-h] {poincare,mirror,dims,spectral,git,macdonald} ...

Exact Betti numbers, E-polynomials, and GIT stability for rank-2 moduli of
bundles and Higgs bundles.

positional arguments:
  {poincare,mirror,dims,spectral,git,macdonald}
    poincare            Poincare polynomial of a moduli space
    mirror              verify the rank-2 mirror-symmetry identity
    dims                moduli and Hitchin-base dimensions
    spectral            spectral-curve numerology
    git                 GIT stability tools
    macdonald           Poincare polynomial of a symmetric product

options:
  -h, --help            show this help message and exit
""",
    "poincare": """\
usage: higgsmoduli poincare [-h] --space {vector-bundles,higgs} --genus GENUS
                            [--via {closed,recursion,strata,both}]
                            [--format {plain,json,latex}]

options:
  -h, --help            show this help message and exit
  --space {vector-bundles,higgs}
  --genus GENUS         curve genus, 2 to 400
  --via {closed,recursion,strata,both}
  --format {plain,json,latex}
""",
    "mirror": """\
usage: higgsmoduli mirror [-h] --genus GENUS [--sample SAMPLE] [--seed SEED]
                          [--format {plain,json,latex}]

options:
  -h, --help            show this help message and exit
  --genus GENUS         curve genus, 2 to 128
  --sample SAMPLE       check this many random nonzero elements instead of all
                        2^(2g)-1, at most 65535
  --seed SEED
  --format {plain,json,latex}
""",
    "dims": """\
usage: higgsmoduli dims [-h] --rank RANK --genus GENUS [--degree DEGREE]
                        [--group {gl,sl,pgl}] [--format {plain,json,latex}]

options:
  -h, --help            show this help message and exit
  --rank RANK           at most 1000000
  --genus GENUS         curve genus, at most 1000000
  --degree DEGREE       |degree| at most 1000000
  --group {gl,sl,pgl}
  --format {plain,json,latex}
""",
    "spectral": """\
usage: higgsmoduli spectral [-h] --rank RANK --genus GENUS --degree DEGREE
                            [--format {plain,json,latex}]

options:
  -h, --help            show this help message and exit
  --rank RANK           at most 1000000
  --genus GENUS         curve genus, at most 1000000
  --degree DEGREE       |degree| at most 1000000
  --format {plain,json,latex}
""",
    "git": """\
usage: higgsmoduli git [-h] {classify,hm} ...

positional arguments:
  {classify,hm}
    classify     classify a torus weight profile
    hm           Hilbert-Mumford weight of a filtration

options:
  -h, --help     show this help message and exit
""",
    "git classify": """\
usage: higgsmoduli git classify [-h] --weights W1,W2,...
                                [--format {plain,json,latex}]

options:
  -h, --help            show this help message and exit
  --weights W1,W2,...
  --format {plain,json,latex}
""",
    "git hm": """\
usage: higgsmoduli git hm [-h] --blocks N:a:r:d,... --m M [--n N] --genus
                          GENUS [--format {plain,json,latex}]

options:
  -h, --help            show this help message and exit
  --blocks N:a:r:d,...  graded pieces, |entry| at most 1000000
  --m M                 twist, |m| at most 1000000
  --n N
  --genus GENUS         curve genus, at most 1000000
  --format {plain,json,latex}
""",
    "macdonald": """\
usage: higgsmoduli macdonald [-h] --genus GENUS --n N
                             [--format {plain,json,latex}]

options:
  -h, --help            show this help message and exit
  --genus GENUS         curve genus, at most 200
  --n N                 symmetric power, at most 10000
  --format {plain,json,latex}
""",
}


@pytest.mark.parametrize("command", HELP_SCREENS, ids=[c or "top" for c in HELP_SCREENS])
def test_help_screen_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(capsys, *command.split(), "--help")
    assert (code, err) == (0, "")
    assert out.encode() == HELP_SCREENS[command].encode()


# Every capped flag of cli.COMMANDS: its command words, the flag and its options
CAPPED = [(words, flag, options) for words, (_, _, arguments) in cli.COMMANDS.items()
          for flag, options in arguments if "cap" in options or "abs_cap" in options]


@pytest.mark.parametrize("words, flag, options", CAPPED,
                         ids=[" ".join([*words, flag]) for words, flag, _ in CAPPED])
def test_help_states_each_cap(capsys, monkeypatch, words, flag, options):
    # the flag's --help line ends with the cap that run checks, and has bars
    # (|degree|) exactly when the cap is on the absolute value
    monkeypatch.setenv("COLUMNS", "200")  # one line a flag
    code, out, _ = invoke(capsys, *words, "--help")
    line = next(line for line in out.splitlines() if line.lstrip().startswith(f"{flag} "))
    assert code == 0
    assert line.endswith(f" {options.get('cap', options.get('abs_cap'))}")
    assert ("|" in line) == ("abs_cap" in options)


def test_every_stated_cap_is_declared():
    # a help that states a cap belongs to a capped flag, save --blocks, whose
    # entries only the handler parses and caps
    stated = {(words, flag) for words, (_, _, arguments) in cli.COMMANDS.items()
              for flag, options in arguments if "at most" in options.get("help", "")
              or " to " in options.get("help", "")}
    assert stated - {(words, flag) for words, flag, _ in CAPPED} == {(("git", "hm"), "--blocks")}


# Stand-in pipelines, defined once for the test process and for a child.
STAND_INS = """
from higgsmoduli.exactpoly import IntPoly

def disagreeing(g):
    return IntPoly([1])

def interrupted(g):
    raise KeyboardInterrupt
"""
# Registered before main: writes how many objects are frozen when the process exits.
MAIN_WITH_ATEXIT_REPORT = """
import atexit, gc, os

def report():
    with open(os.environ["FREEZE_REPORT"], "w") as f:
        f.write(str(gc.get_freeze_count()))

atexit.register(report)
from higgsmoduli.cli import main; main()
"""
# Every exit code of main: argv, and (module, pipeline, stand-in) or None.
EXIT_PATHS = {
    "pass": (("poincare", "--space", "higgs", "--genus", "3"), None),
    "disagree": (("poincare", "--space", "higgs", "--genus", "3"),
                 ("higgs", "poincare_M_stratified", "disagreeing")),
    "over-cap": (("poincare", "--space", "higgs", "--genus", "401"), None),
    "interrupt": (("poincare", "--space", "vector-bundles", "--genus", "2"),
                  ("bundles", "poincare_N_closed", "interrupted")),
    "help": (("--help",), None),
}


def split_importtime(stderr):
    """The modules that -X importtime lists in stderr, and the rest of stderr."""
    imports, rest = [], b""
    for line in stderr.splitlines(keepends=True):
        if line.startswith(b"import time:"):
            imports.append(line.rpartition(b"|")[2].strip())
        else:
            rest += line
    return imports, rest


# Every exception class the package exports, and the exit code and stderr
# prefix of each family that run maps; an exported class in neither family
# would escape run as a traceback and exit 1.
EXPORTED_ERRORS = sorted(
    name for names in higgsmoduli._EXPORTS.values() for name in names
    if isinstance(getattr(higgsmoduli, name), type)
    and issubclass(getattr(higgsmoduli, name), BaseException))
EXIT_FAMILIES = {ValueError: (2, "error: "), ArithmeticError: (1, "verification failed: ")}


class TestPlumbing:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (("dims", "--rank", "2", "--genus=--"), "--genus"),
        (("poincare", "--space=--", "--genus", "2"), "--space"),
    ])
    def test_double_dash_as_a_value_is_a_usage_error(self, capsys, argv, flag):
        # argparse hands "--flag=--" over as an empty list before 3.13, past
        # type= and choices=, and as the value "--" from 3.13 on
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == f"higgsmoduli: error: argument {flag}: expected one argument"

    @pytest.mark.parametrize("argv, last_line", [
        (("dims", "--rank", "2", "--gen=--"), "higgsmoduli: error: argument --genus: expected one argument"),
        (("dims", "--rank", "2", "--genus", "3", "--foo=--"),
         "higgsmoduli: error: unrecognized arguments: --foo=--"),
        (("mirror", "--genus", "2", "--s=--"),
         "higgsmoduli mirror: error: ambiguous option: --s=-- could match --sample, --seed"),
    ], ids=["abbreviated", "undeclared", "ambiguous"])
    def test_double_dash_after_other_flag_spellings(self, capsys, argv, last_line):
        # an abbreviation of one declared flag is refused like the flag itself;
        # an undeclared or ambiguous one keeps argparse's own message
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == last_line

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "poincare" in out

    def test_unbuffered_stdout_survives_short_writes(self, monkeypatch, restore_sigpipe):
        # python -u hands print's bytes to the raw stream once; a pipe write
        # cut short by a stop signal returns a short count like this stream.
        class ShortWrites(io.RawIOBase):
            def __init__(self):
                self.data = bytearray()

            def writable(self):
                return True

            def write(self, b):
                self.data += bytes(b[:1000])
                return min(len(b), 1000)

        raw = ShortWrites()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        monkeypatch.setattr(sys, "argv", ["higgsmoduli", "macdonald", "--genus", "3", "--n", "400"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        sys.stdout.flush()
        assert exc.value.code == 0
        assert raw.data.decode() == str(coeff_extract_x(3, 400)) + "\n"
        assert len(raw.data) > 1000

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_reader_closing_the_pipe_early_is_not_a_failed_check(self):
        # higgsmoduli poincare --space higgs --genus 200 | head -c 20
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-c", "from higgsmoduli.cli import main; main()",
             "poincare", "--space", "higgs", "--genus", "200"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(20)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert len(head) == 20
        assert proc.returncode == -signal.SIGPIPE
        assert b"Traceback" not in err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch, restore_sigpipe):
        import higgsmoduli.bundles as bundles

        def interrupted(g):
            raise KeyboardInterrupt

        monkeypatch.setattr(bundles, "poincare_N_closed", interrupted)
        monkeypatch.setattr(sys, "argv", ["higgsmoduli", "poincare", "--space", "vector-bundles",
                                          "--genus", "2"])
        try:
            cli.main()
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped cli.main")
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 130
        assert captured.out == ""
        assert captured.err == "interrupted\n"

    @pytest.mark.parametrize("path", EXIT_PATHS, ids=list(EXIT_PATHS))
    def test_main_in_a_child_prints_what_run_prints(self, capsys, monkeypatch, tmp_path, path):
        # main freezes the collector on every exit path; the process still
        # exits through SystemExit, so atexit hooks run after the freeze and
        # the buffered stdout is flushed
        argv, stand_in = EXIT_PATHS[path]
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
        patch = ""
        if stand_in is not None:
            module, name, replacement = stand_in
            stand_ins = {}
            exec(STAND_INS, stand_ins)
            monkeypatch.setattr(importlib.import_module(f"higgsmoduli.{module}"), name,
                                stand_ins[replacement])
            patch = f"import higgsmoduli.{module} as m; m.{name} = {replacement}\n"
        try:
            code = cli.run(list(argv))
            interrupted = ""
        except KeyboardInterrupt:
            code, interrupted = 130, "interrupted\n"
        expected = capsys.readouterr()

        report = tmp_path / "freeze_count"
        child = STAND_INS + patch + MAIN_WITH_ATEXIT_REPORT
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80",
               "FREEZE_REPORT": str(report)}
        done = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                              env=env, timeout=60)
        assert done.returncode == code
        assert done.stdout == expected.out.encode()
        assert done.stderr == (expected.err + interrupted).encode()
        assert int(report.read_text()) > 0

    def test_module_form_prints_what_main_prints(self):
        # python -m higgsmoduli.cli and the file run as a script run main, as
        # the installed entry point does, and each holds one cli: _cmd_git,
        # which imports it, gets the running module, not a second copy
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        over = str(cap(("mirror",), "--genus") + 1)
        for argv, code in ((["mirror", "--genus", "2", "--format", "json"], 0),
                           (["mirror", "--genus", over], 2),
                           (["git", "hm", "--blocks", "1:1:1:0,1:-1:1:1", "--m", "5",
                             "--genus", "2"], 0)):
            entry, *others = (subprocess.run([sys.executable, "-X", "importtime", *head, *argv],
                                             capture_output=True, env=env, timeout=60)
                              for head in (["-c", "from higgsmoduli.cli import main; main()"],
                                           ["-m", "higgsmoduli.cli"],
                                           [str(ROOT / "src" / "higgsmoduli" / "cli.py")]))
            entry_imports, entry_err = split_importtime(entry.stderr)
            assert entry.returncode == code
            assert entry.stdout if code == 0 else entry_err.startswith(b"error: ")
            assert b"higgsmoduli.cli" in entry_imports
            for done in others:
                imports, err = split_importtime(done.stderr)
                assert (done.returncode, done.stdout, err) == (code, entry.stdout, entry_err), argv
                assert b"higgsmoduli.cli" not in imports, (done.args, argv)

    def test_every_invocation_form_prints_the_same_bytes(self):
        # the entry point's code, python -m and the file run as a script: each
        # prints the same bytes and exits with the same code
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        over = str(cap(("mirror",), "--genus") + 1)
        forms = (["-c", "from higgsmoduli.cli import main; main()"], ["-m", "higgsmoduli.cli"],
                 [str(ROOT / "src" / "higgsmoduli" / "cli.py")])
        for argv, code in ((["dims", "--rank", "2", "--genus", "3"], 0),
                           (["git", "hm", "--blocks", "1:1:1:0,1:-1:1:1", "--m", "5",
                             "--genus", "2", "--format", "json"], 0),
                           (["mirror", "--genus", over], 2),
                           (["poincare", "--space", "higgs", "--genus", "3", "--format", "latex"],
                            0)):
            entry, *others = (subprocess.run([sys.executable, *form, *argv], capture_output=True,
                                             env=env, timeout=60) for form in forms)
            assert entry.returncode == code
            assert entry.stdout if code == 0 else entry.stderr.startswith(b"error: ")
            for done in others:
                assert (done.returncode, done.stdout, done.stderr) == (
                    code, entry.stdout, entry.stderr), argv

    def test_run_leaves_the_collector_alone(self, capsys):
        frozen = gc.get_freeze_count()
        code, _, _ = invoke(capsys, "poincare", "--space", "higgs", "--genus", "3")
        assert code == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_resource_exhaustion_is_input_error(self, capsys, monkeypatch, error):
        # Running out of memory or stack is not a failed cross-check: exit 2,
        # one line on stderr, no traceback.
        import higgsmoduli.bundles as bundles

        def exhausted(g):
            raise error("simulated")

        monkeypatch.setattr(bundles, "poincare_N_closed", exhausted)
        code, out, err = invoke(capsys, "poincare", "--space", "vector-bundles", "--genus", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert error.__name__ in err
        assert "Traceback" not in err

    def test_exported_errors_are_found(self):
        # the test below must not pass by running over no class
        assert {"NonDivisible", "IdentityViolation", "TrivialElement",
                "NonPositiveEuler"} <= set(EXPORTED_ERRORS)

    @pytest.mark.parametrize("name", EXPORTED_ERRORS)
    def test_every_exported_error_exits_by_its_family(self, capsys, monkeypatch, name):
        import higgsmoduli._cmd_geometry as handlers

        error = getattr(higgsmoduli, name)
        families = [family for family in EXIT_FAMILIES if issubclass(error, family)]
        assert len(families) == 1, f"{name} must subclass exactly one of {list(EXIT_FAMILIES)}"
        code, prefix = EXIT_FAMILIES[families[0]]

        def failing(args):
            raise error.__new__(error, "stubbed")  # past each class's own __init__

        monkeypatch.setattr(handlers, "dims", failing)
        expected = (code, "", f"{prefix}stubbed\n")  # one line on stderr, no traceback
        assert invoke(capsys, "dims", "--rank", "2", "--genus", "2") == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ("poincare", "--space", "higgs", "--genus", "3", "--format", "json"),
            ("mirror", "--genus", "2", "--format", "json"),
            ("dims", "--rank", "3", "--genus", "4", "--format", "json"),
            ("spectral", "--rank", "2", "--genus", "3", "--degree", "2", "--format", "json"),
            ("git", "classify", "--weights=1,0,-2", "--format", "json"),
            ("macdonald", "--genus", "2", "--n", "4", "--format", "json"),
        ],
    )
    def test_json_round_trips_to_identical_bytes(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        line = out.strip()
        assert json.dumps(json.loads(line), sort_keys=True) == line


def _joined(values, sep):
    return st.lists(values, max_size=5).map(lambda xs: sep.join(map(str, xs)))


# Each subcommand's flags with well-formed values, inside the caps and small
# enough that every call finishes in milliseconds.
GRAMMAR = {
    "poincare": {
        "--space": st.sampled_from(["vector-bundles", "higgs"]),
        "--genus": st.integers(-1, 8),
        "--via": st.sampled_from(["closed", "recursion", "strata", "both"]),
    },
    "mirror": {
        "--genus": st.integers(-1, 4),
        "--sample": st.integers(-2, 300),
        "--seed": st.integers(-9, 9),
    },
    "dims": {
        "--rank": st.integers(-1, 60),
        "--genus": st.integers(-1, 60),
        "--degree": st.integers(-60, 60),
        "--group": st.sampled_from(["gl", "sl", "pgl"]),
    },
    "spectral": {
        "--rank": st.integers(-1, 60),
        "--genus": st.integers(-1, 60),
        "--degree": st.integers(-60, 60),
    },
    "git classify": {"--weights": _joined(st.integers(-9, 9), ",")},
    "git hm": {
        "--blocks": st.sampled_from(["1:1:1:0,1:-1:1:1", "2:1:2:3,1:0:1:0,2:-1:1:-2"])
        | _joined(_joined(st.integers(-4, 4), ":"), ","),
        "--m": st.integers(-30, 30),
        "--n": st.integers(-9, 9),
        "--genus": st.integers(-1, 9),
    },
    "macdonald": {"--genus": st.integers(-1, 12), "--n": st.integers(-1, 40)},
}
MALFORMED = st.one_of(
    st.sampled_from(["", "x", "1.5", "-", "--", "1e3", "0x10", "1,,2", "1:2", "--bogus", "-h"]),
    st.text(max_size=3),
)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = {**GRAMMAR[command], "--format": st.sampled_from(["plain", "json", "latex"])}
    argv = command.split()
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 9)) == 0:  # leave a flag out now and then
            continue
        value = draw(MALFORMED if draw(st.integers(0, 9)) == 0 else flags[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]
    return argv


@given(cli_argvs())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_exits_zero_or_two(argv):
    # a well-formed or malformed call is answered or rejected, never reported
    # as a failed cross-check, and never escapes cli.run as an exception
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv
    elif "-h" not in argv:
        assert err.getvalue() == "" and out.getvalue() != "", argv


# Values of each declared argument built from cli.COMMANDS: its choices, or
# ints in the spellings int() reads ("+5", "1_0", an Arabic-Indic three), or
# text; now and then a value that must not parse or that starts with "-".
ODD_INTS = st.sampled_from([" 4", "4 ", "+5", "1_0", "\u0663", "007", "0x10", "1.5", "1e3"])
NEAR_MISSES = st.one_of(
    st.sampled_from(["", "x", "-", "--", "-h", "--help", "-3", "=", "--genus"]),
    st.text(max_size=3),
)


def _declared_values(options):
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(-3, 12).map(str) | ODD_INTS
    return st.sampled_from(["1,-1", "0,1,-2", "1:1:1:0,1:-1:1:1", "x"])


@st.composite
def table_argvs(draw):
    """An argv of a command of cli.COMMANDS, and whether it has the canonical form."""
    words = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, arguments = cli.COMMANDS[words]
    argv, canonical = list(words), True
    for flag, options in draw(st.permutations([*arguments, cli.FORMAT])):
        if draw(st.integers(0, 7)) == 0:  # leave a flag out, required or not
            continue
        values = _declared_values(options)
        value = draw(NEAR_MISSES if draw(st.integers(0, 7)) == 0 else values)
        spelling = draw(st.sampled_from(["plain"] * 12 + ["equals", "abbreviated", "repeated"]))
        if spelling == "equals":
            argv.append(f"{flag}={value}")
        elif spelling == "abbreviated":
            argv += [flag[:draw(st.integers(2, len(flag) - 1))], value]
        elif spelling == "repeated":
            argv += [flag, value, flag, draw(values)]
        else:
            argv += [flag, value]
        canonical &= spelling == "plain" and not value.startswith("-")
    if draw(st.integers(0, 9)) == 0:
        extra = draw(st.sampled_from(["-h", "--help", "--", "x", *words]))
        argv.insert(draw(st.integers(0, len(argv))), extra)
        canonical = False
    return argv, canonical


@given(table_argvs())
@settings(max_examples=400, deadline=None)
def test_strict_parse_returns_argparses_namespace_or_defers(case):
    # argparse is the oracle: an argv the strict parse accepts must give the
    # namespace argparse gives, and a canonical argv argparse accepts must not
    # be deferred
    argv, canonical = case
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        expected = None
    args = cli._strict_parse(argv)
    if args is not None:
        assert vars(args) == expected, argv
    elif canonical:
        assert expected is None, argv


@pytest.mark.parametrize(
    "spelling, canonical",
    [
        (("mirror", "--genus=3"), ("mirror", "--genus", "3")),
        (("mirror", "--gen", "3"), ("mirror", "--genus", "3")),
        (("mirror", "--genus", "2", "--genus", "3"), ("mirror", "--genus", "3")),
        (("poincare", "--space", "higgs", "--genus", "3", "--format=json"),
         ("poincare", "--space", "higgs", "--genus", "3", "--format", "json")),
        (("dims", "--rank", "2", "--genus", "3", "--degree=-1"),
         ("dims", "--rank", "2", "--genus", "3", "--degree", "-1")),
    ],
    ids=["equals", "abbreviation", "repeat", "format-equals", "negative-value"],
)
def test_argparse_spelling_prints_what_its_twin_prints(capsys, spelling, canonical):
    # a spelling the strict parse defers goes through argparse to the same bytes
    assert cli._strict_parse(list(spelling)) is None
    code, out, err = invoke(capsys, *canonical)
    assert code == 0 and out and not err
    assert invoke(capsys, *spelling) == (code, out, err)


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py, loaded read-only as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def test_benchmarked_calls_are_inside_the_caps(bench):
    # each cap as cli.COMMANDS declares it, and the handler's cap on a --blocks entry
    parser = cli.build_parser()
    argvs = [argv for workload in bench.WORKLOADS for argv in bench.all_argvs(workload)]
    checked = set()
    for argv in argvs:
        args = parser.parse_args(list(argv))
        for flag, options in cli.COMMANDS[args.words][2]:
            value = getattr(args, flag[2:])
            if "abs_cap" in options:
                assert abs(value) <= options["abs_cap"], argv
            elif "cap" in options and value is not None:
                assert value <= options["cap"], argv
            else:
                continue
            checked.add((args.words, flag))
        if args.words == ("git", "hm"):
            entries = [int(x) for block in args.blocks.split(",") for x in block.split(":")]
            assert max(map(abs, entries)) <= cli.NUMBER_MAX, argv
    assert {words for words, _ in checked} == {words for words, _, _ in CAPPED}


def test_benchmarked_calls_print_the_recorded_bytes(capsys, bench):
    # perfbench/expected.json pins the SHA-256 of every benchmarked call's stdout,
    # over all four workloads
    expected = json.loads(bench.EXPECTED.read_text())
    argvs = [argv for workload in bench.WORKLOADS for argv in bench.all_argvs(workload)]
    mismatched = []
    for argv in argvs:
        code = cli.run(list(argv))
        out = capsys.readouterr().out
        if code != 0 or bench.digest(out.encode()) != expected[bench.key(argv)]:
            mismatched.append(bench.key(argv))
    assert argvs
    assert mismatched == []


def test_benchmarked_calls_take_the_strict_parse(bench):
    # every argv perfbench/expected.json pins skips argparse, and gets the
    # namespace argparse would give it
    parser = cli.build_parser()
    keys = json.loads(bench.EXPECTED.read_text())
    for key in keys:
        argv = key.split(" ")
        args = cli._strict_parse(argv)
        assert args is not None, key
        assert vars(args) == vars(parser.parse_args(argv)), key
    assert len(keys) > 100


# SHA-256 of each demo's stdout: an API change that ports a demo must leave
# what it prints byte for byte as it was.
DEMO_STDOUT_SHA256 = {
    "betti_tables.py": "1c9857f78d6bd573ea6fcd15091507e41dc56f5058031b2ac081aa0148fea024",
    "mirror_symmetry.py": "ff78a2f0d412adcdd94d469e8b17de06b28ba53dd6a24e823666cb244952480f",
    "spectral_and_dimensions.py": "1b960cb8905fb057aa3d940e197e2be0da0ab75c18c50a822d0456b15a316da3",
    "stability_playground.py": "6ba465a4f87f857bbc8265f1170f090bec3311f653d12fe7299236ce8d121d81",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    stderr = done.stderr.decode(errors="replace")
    assert done.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name]
