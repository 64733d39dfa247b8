"""Package surface: the public names and what reaches them, what an import loads, what
each pair of routes shares, and the README and docstring examples."""
import ast
import doctest
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import higgsmoduli
from higgsmoduli import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "random"}


def run_child(code):
    """The modules a fresh interpreter holds after running `code`, and its stderr.

    -S keeps site-packages start-up files (which may import modules of their
    own) out of the count, so only the interpreter and the code remain.
    """
    code += "\nimport sys; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return set(done.stdout.splitlines()[-1].split()), done.stderr


def loaded_modules(code):
    return run_child(code)[0]


def test_cli_import_loads_no_layer_and_no_heavy_stdlib():
    # no handler module either: run imports the one it calls, after the parse
    modules = loaded_modules("import higgsmoduli.cli")
    assert {m for m in modules if m.startswith("higgsmoduli.")} == {"higgsmoduli.cli"}
    assert modules & LEAN == set()


def test_runtime_imports_only_the_standard_library():
    # every absolute import in the package, at module level or in a function,
    # names the package or a module of the standard library
    imported = set()
    for path in sorted((SRC / "higgsmoduli").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    top = {name.partition(".")[0] for name in imported}
    assert "operator" in top  # the walk reached the package's imports
    assert top - sys.stdlib_module_names <= {"higgsmoduli"}, top - sys.stdlib_module_names


# Every higgsmoduli module a call holds after it runs, beyond the package and
# its command line, so a subcommand's import graph cannot quietly grow; and the
# modules it must not load.  A well-formed call never loads argparse (nor the
# gettext it imports), which only --help and usage errors need, nor typing or
# re; nor signal, which main imports only after a broken pipe, nor __future__.
POINCARE = ["_cmd_poincare", "_record", "exactpoly", "strata", "bundles"]
MIRROR = ["_cmd_mirror", "strata", "mirror"]
LEAN = {*HEAVY, "argparse", "gettext", "typing", "re", "signal", "__future__"}


@pytest.mark.parametrize(
    "argv, layers, absent",
    [
        (["poincare", "--space", "vector-bundles", "--genus", "3", "--via", "recursion"], POINCARE,
         LEAN),
        (["poincare", "--space", "vector-bundles", "--genus", "3", "--via", "closed"], POINCARE,
         LEAN),
        (["poincare", "--space", "higgs", "--genus", "3"], [*POINCARE, "higgs"], LEAN),
        (["mirror", "--genus", "3"], MIRROR, LEAN),
        (["mirror", "--genus", "3", "--sample", "5"], MIRROR, LEAN - {"random"}),
        (["dims", "--rank", "2", "--genus", "3"], ["_cmd_geometry", "geometry"], LEAN),
        (["spectral", "--rank", "2", "--genus", "3", "--degree", "1"], ["_cmd_geometry", "geometry"],
         LEAN),
        (["git", "classify", "--weights", "1,-1"],
         ["_cmd_git", "_record", "geometry", "stability"], LEAN),
        (["git", "hm", "--blocks", "1:1:1:0,1:-1:1:1", "--m", "5", "--genus", "2"],
         ["_cmd_git", "_record", "geometry", "stability"], LEAN),
        (["macdonald", "--genus", "3", "--n", "3"], ["_cmd_poincare", "_record", "exactpoly"],
         LEAN),
    ],
    ids=["recursion", "closed", "higgs", "mirror", "mirror-sample", "dims", "spectral",
         "git-classify", "git-hm", "macdonald"],
)
def test_call_loads_exactly_its_modules(argv, layers, absent):
    modules = loaded_modules(f"from higgsmoduli import cli; assert cli.run({argv!r}) == 0")
    held = {m for m in modules if m.partition(".")[0] == "higgsmoduli"}
    assert held == {"higgsmoduli", "higgsmoduli.cli", *(f"higgsmoduli.{m}" for m in layers)}
    assert modules & absent == set()


# Over-cap argvs, one for each capped flag and one for each order in which
# two caps are checked, with the one error line each prints.
OVER_CAP = [
    (["poincare", "--space", "higgs", "--genus", "401"], "--genus must be at most 400, got 401"),
    (["mirror", "--genus", "129"], "--genus must be at most 128, got 129"),
    (["mirror", "--genus", "2", "--sample", "65536"], "--sample must be at most 65535, got 65536"),
    (["mirror", "--genus", "129", "--sample", "65536"], "--genus must be at most 128, got 129"),
    (["dims", "--rank", "1000001", "--genus", "2"], "--rank must be at most 1000000, got 1000001"),
    (["dims", "--rank", "2", "--genus", "1000001"], "--genus must be at most 1000000, got 1000001"),
    (["dims", "--rank", "2", "--genus", "2", "--degree=-1000001"],
     "|--degree| must be at most 1000000, got 1000001"),
    (["spectral", "--rank", "1000001", "--genus", "1000001", "--degree", "1000001"],
     "--rank must be at most 1000000, got 1000001"),
    (["spectral", "--rank", "2", "--genus", "1000001", "--degree", "1000001"],
     "--genus must be at most 1000000, got 1000001"),
    (["spectral", "--rank", "2", "--genus", "2", "--degree", "1000001"],
     "|--degree| must be at most 1000000, got 1000001"),
    (["git", "hm", "--blocks", "1:1:1:-1000001", "--m", "1000001", "--genus", "1000001"],
     "|--m| must be at most 1000000, got 1000001"),
    (["git", "hm", "--blocks", "1:1:1:-1000001", "--m", "5", "--genus", "1000001"],
     "--genus must be at most 1000000, got 1000001"),
    (["macdonald", "--genus", "201", "--n", "10001"], "--genus must be at most 200, got 201"),
    (["macdonald", "--genus", "2", "--n", "10001"], "--n must be at most 10000, got 10001"),
]
# Inputs a handler refuses, before it imports its layer: a --blocks entry,
# which only the handler parses, and a --via that does not apply to --space.
REFUSED_BY_THE_HANDLER = [
    (["git", "hm", "--blocks", "1:1:1:-1000001", "--m", "5", "--genus", "2"],
     "|--blocks entry| must be at most 1000000, got 1000001", "_cmd_git"),
    (["poincare", "--space", "higgs", "--genus", "3", "--via", "recursion"],
     "--via recursion does not apply to --space higgs", "_cmd_poincare"),
    (["poincare", "--space", "vector-bundles", "--genus", "3", "--via", "strata"],
     "--via strata does not apply to --space vector-bundles", "_cmd_poincare"),
]


def test_value_above_a_cap_is_rejected_before_any_layer_loads():
    # run checks every cap of a command before it imports the handler module
    for argv, message, *handler in [*OVER_CAP, *REFUSED_BY_THE_HANDLER]:
        modules, err = run_child(f"from higgsmoduli import cli; assert cli.run({argv!r}) == 2")
        held = {m for m in modules if m.startswith("higgsmoduli.")}
        assert held == {"higgsmoduli.cli", *(f"higgsmoduli.{m}" for m in handler)}, argv
        assert err == f"error: {message}\n", argv


def test_names_resolve_lazily():
    modules = loaded_modules("import higgsmoduli")
    assert {m for m in modules if m.startswith("higgsmoduli")} == {"higgsmoduli"}
    modules = loaded_modules("from higgsmoduli import moduli_dim")
    assert "higgsmoduli.geometry" in modules and "higgsmoduli.exactpoly" not in modules
    # a submodule is still an attribute of the package, as under an eager import
    modules = loaded_modules("import higgsmoduli; higgsmoduli.mirror.mirror_verify")
    assert "higgsmoduli.mirror" in modules
    assert set(higgsmoduli.__all__) <= set(dir(higgsmoduli))
    with pytest.raises(AttributeError, match="no_such_name"):
        higgsmoduli.no_such_name


@pytest.mark.parametrize("name", higgsmoduli._EXPORTS)
def test_submodule_exports_are_package_exports(name):
    # _EXPORTS is the one list of public names: each row is exactly the public
    # classes and functions its module defines, so a name added to a module,
    # or deleted from it, cannot be missed by the table or stay behind in it
    module = importlib.import_module(f"higgsmoduli.{name}")
    defined = {attr for attr, value in vars(module).items()
               if not attr.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
               and value.__module__ == module.__name__}
    assert defined == set(higgsmoduli._EXPORTS[name])


def test_package_exports_resolve():
    for name in higgsmoduli.__all__:
        assert hasattr(higgsmoduli, name), name


# Exported names that no command or demo reaches, each with the reason it stays.
UNREACHED_EXPORTS = {
    "recursion_strata_count": "perfbench/tracer.py counts the recursion's strata through it, and "
                              "CI's trace step requires that count to be nonzero",
}


def names_in(tree):
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_export_is_reached_from_a_command_or_a_demo():
    # start from the names the command line, its handlers and the demos use and
    # follow names through the module-level definitions of the package
    definitions = {}
    for path in (SRC / "higgsmoduli").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in names_in(target):
                        definitions.setdefault(name, []).append(node)
    roots = [SRC / "higgsmoduli" / "cli.py", *(SRC / "higgsmoduli").glob("_cmd_*.py"),
             *(ROOT / "demos").glob("*.py")]
    reached = set().union(*(names_in(ast.parse(path.read_text())) for path in roots))
    todo = list(reached)
    while todo:
        for node in definitions.get(todo.pop(), ()):
            new = names_in(node) - reached
            reached |= new
            todo.extend(new)
    # a listed name that is reached, or no longer exported, fails as well
    assert set(higgsmoduli._MODULE_OF) - reached == set(UNREACHED_EXPORTS)


def functions_called(route):
    """The code object of every package function that route() enters, by sys.setprofile."""
    called = {}

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("higgsmoduli."):
            called[frame.f_code] = f"{module[len('higgsmoduli.'):]}.{frame.f_code.co_name}"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(previous)
    return called


def mirror_right_side(g):
    for _, minus in higgsmoduli.mirror._minus_counts(g, range(1, 4**g)):
        higgsmoduli.mirror._rhs_from_count(g, minus)


# Functions that both routes of a pair may call beyond the kernel and the two
# input validators, each with the reason the share keeps the routes independent.
SHARED_BY_DESIGN = {}


@pytest.mark.parametrize(
    "one, other",
    [
        (lambda: higgsmoduli.poincare_N_closed(4), lambda: higgsmoduli.poincare_N_recursion(4)),
        (lambda: higgsmoduli.poincare_M_closed(4), lambda: higgsmoduli.poincare_M_stratified(4)),
        (lambda: higgsmoduli.e_poly_kappa_lhs(4), lambda: mirror_right_side(4)),
    ],
    ids=["N-closed-recursion", "M-closed-stratified", "mirror-lhs-rhs"],
)
def test_two_routes_share_only_the_kernel_and_the_validators(one, other):
    # the routes are checked against each other, so a function both call must
    # be one that cannot make them agree by itself
    first, second = functions_called(one), functions_called(other)
    shared = {first[code] for code in first.keys() & second.keys()}
    assert "strata._check_genus" in shared
    allowed = {"strata._check_genus", "strata._check_stratum", *SHARED_BY_DESIGN}
    assert {name for name in shared if not name.startswith("exactpoly.")} <= allowed


def readme_block(heading, language):
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n")[1].split("\n## ")[0]
    return section.split(f"```{language}\n")[1].split("```")[0]


def test_readme_library_example_states_its_values():
    # each "expression  # value ..." line evaluates to the literal its comment starts with
    setup, stated = [], []
    for line in readme_block("Library", "python").splitlines():
        expression, comment, text = line.partition("  # ")
        if comment:
            literal = re.match(r"\[[^]]*\]|'[^']*'|-?\d+", text).group()
            stated.append((expression, ast.literal_eval(literal)))
        else:
            setup.append(line)
    namespace = {}
    exec("\n".join(setup), namespace)
    assert len(stated) == 5
    for expression, value in stated:
        assert eval(expression, namespace) == value, expression


def test_readme_command_lines_succeed():
    calls = [shlex.split(line, comments=True)[1:]
             for line in readme_block("Command line", "sh").splitlines()
             if line.startswith("higgsmoduli ")]
    assert len(calls) == 11
    for argv in calls:
        assert cli.run(argv) == 0, argv


@pytest.mark.parametrize(
    "name, args",
    [
        ("hn_codim_rank2", (2.5, 1)),
        ("hn_codim_rank2", (3, 1.5)),
        ("fermionic_shift", (2.5,)),
        ("bb_codimension", (3, 1.5)),
        ("recursion_strata_count", (2.0,)),
        ("recursion_strata_count", (3, 30.0)),
        ("coeff_extract_x", (2.0, 1)),
        ("quotient_semistability_test", (1.5, 1, 0, 2, 2, 1, 2, 5)),
        ("TruncSeries", (higgsmoduli.IntPoly([1, 2]), 2.5)),
        ("mirror_verify", (4, 300.0)),
        ("e_poly_rhs", (4, 0.0)),
    ],
    ids=["hn_codim_rank2-genus", "hn_codim_rank2-k", "fermionic_shift", "bb_codimension",
         "recursion_strata_count-genus", "recursion_strata_count-order", "coeff_extract_x",
         "quotient_semistability_test", "TruncSeries", "mirror_verify-sample", "e_poly_rhs-gamma"],
)
def test_numeric_functions_reject_a_non_integer(name, args):
    # a float is refused, not truncated or carried into a formula
    with pytest.raises(TypeError):
        getattr(higgsmoduli, name)(*args)


class IntLike(int):
    """An integer type whose arithmetic raises, as numpy.int64's can overflow:
    a routine must compute with operator.index of it, a plain int."""


def _refuse(*args):
    raise AssertionError("arithmetic on the integer-like argument itself")


for _op in ("add", "sub", "mul", "floordiv", "truediv", "mod", "divmod", "pow",
            "lshift", "rshift", "and", "or", "xor"):
    setattr(IntLike, f"__{_op}__", _refuse)
    setattr(IntLike, f"__r{_op}__", _refuse)
for _op in ("neg", "pos", "abs", "invert"):
    setattr(IntLike, f"__{_op}__", _refuse)

@pytest.mark.parametrize(
    "name, args",
    [
        ("variant_hodge_numbers", (5, 2)),
        ("bb_codimension", (5, 2)),
        ("hn_codim_rank2", (5, 2)),
        ("poincare_N_closed", (4,)),
        ("strata_equivariant_poly", (4, 40)),
        ("classifying_space_poly", (4, 40)),
        ("recursion_strata_count", (4, 33)),
        ("poincare_N_recursion", (4, 33)),
        ("fixed_locus_poincare", (4, 1)),
        ("poincare_M_stratified", (4,)),
        ("poincare_M_closed", (4,)),
        ("fermionic_shift", (4,)),
        ("e_poly_kappa_lhs", (4,)),
        ("e_poly_rhs", (4, 5)),
        ("weil_pairing", (2, 0b1101, 0b0110)),
        ("mirror_verify", (4,)),
        ("IntPoly.__pow__", (7,)),
        ("mirror_verify", (4, 5)),
        ("IntPoly.shift", (2,)),
        ("TruncSeries.polynomial_part", (1,)),
    ],
)
def test_numeric_functions_compute_with_the_index_of_an_int_like(name, args):
    # a genus, stratum, exponent, pairing argument, sample, shift or degree
    # of an integer-like type, and a series' order or the recursion's
    # window, give the plain int's result
    methods = {
        "IntPoly.__pow__": higgsmoduli.IntPoly([1, 0, -1]).__pow__,
        "IntPoly.shift": higgsmoduli.IntPoly([1, 1]).shift,
        "TruncSeries.polynomial_part": higgsmoduli.TruncSeries(higgsmoduli.IntPoly([1, 2]), 5).polynomial_part,
    }
    function = methods[name] if name in methods else getattr(higgsmoduli, name)
    assert function(*map(IntLike, args)) == function(*args)


def test_series_expand_computes_with_the_index_of_an_int_like_order():
    numerator, factors = higgsmoduli.IntPoly([1, 2, 1]), [higgsmoduli.IntPoly([1, 0, -1])]
    series = higgsmoduli.series_expand(numerator, factors, IntLike(6))
    assert series == higgsmoduli.series_expand(numerator, factors, 6)
    assert type(series.order) is int


def test_mirror_report_counts_a_bool_sample_as_an_int():
    assert type(higgsmoduli.mirror_verify(3, True).elements_checked) is int


def test_the_benchmark_tracer_finds_what_it_reads_by_name():
    # perfbench/tracer.py wraps these methods by name, reads a series'
    # order and counts the recursion's strata with exactly this call, so a
    # trim of src/ that breaks it fails tier-1 too.  The benchmark refresh of
    # ROADMAP.md item 0a, which reads the wrapped names from one declared
    # list, retires this test.
    from higgsmoduli import bundles
    from higgsmoduli.exactpoly import IntPoly, TruncSeries, series_expand

    assert {"__mul__", "__rmul__"} <= vars(TruncSeries).keys()
    assert {"__mul__", "__rmul__", "__pow__"} <= vars(IntPoly).keys()
    assert series_expand(IntPoly([1]), [IntPoly([1, -1])], 3).order == 3
    for g in range(2, 6):
        assert 0 < bundles.recursion_strata_count(g, None) == bundles.recursion_strata_count(g)


# Every module of the package, so a doctest added anywhere runs; the modules
# that have examples keep a floor on how many, so they cannot quietly vanish.
MODULES = ["higgsmoduli", *(f"higgsmoduli.{m.name}" for m in pkgutil.iter_modules(higgsmoduli.__path__))]
MIN_DOCTESTS = {"higgsmoduli.exactpoly": 7, "higgsmoduli.mirror": 3, "higgsmoduli.strata": 1}


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    results = doctest.testmod(importlib.import_module(name))
    assert results.failed == 0
    assert results.attempted >= MIN_DOCTESTS.get(name, 0)
