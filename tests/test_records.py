"""Value records: keyword construction, repr, equality, hashing and immutability."""
import copy
import pickle

import pytest

from higgsmoduli._record import Record
from higgsmoduli.exactpoly import IntPoly, TruncSeries
from higgsmoduli.mirror import MirrorReport
from higgsmoduli.stability import FiltrationData


def report(genus=2):
    return MirrorReport(genus=genus, elements_checked=15,
                        lhs={(1, 0): 1}, rhs_sample={(1, 0): 1})


# (build an instance, its repr, build an unequal instance of the same class, a field)
CASES = {
    "IntPoly": (
        lambda: IntPoly(coeffs=[1, 0, -2, 3]),
        "IntPoly('1 - 2t^2 + 3t^3')",
        lambda: IntPoly([1, 0, -2]),
        "coeffs",
    ),
    "TruncSeries": (
        lambda: TruncSeries(poly=IntPoly([1, 1, 1, 1, 1]), order=3),
        "TruncSeries(poly=IntPoly('1 + t + t^2'), order=3)",
        lambda: TruncSeries(IntPoly([1, 1, 1]), 4),
        "order",
    ),
    "MirrorReport": (
        report,
        "MirrorReport(genus=2, elements_checked=15, "
        "lhs={(1, 0): 1}, rhs_sample={(1, 0): 1})",
        lambda: report(genus=3),
        "genus",
    ),
    "FiltrationData": (
        lambda: FiltrationData(blocks=[(1, 1, 1, 0), (1, -1, 1, 1)], m=5, g=2),
        "FiltrationData(blocks=(Block(N=1, a=1, r=1, d=0), Block(N=1, a=-1, r=1, d=1)), m=5, g=2)",
        lambda: FiltrationData([(1, 1, 1, 0), (1, -1, 1, 1)], m=6, g=2),
        "m",
    ),
}
UNHASHABLE = {"MirrorReport"}  # the report holds its two E-polynomials as dicts


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, text, _, _ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_equality_is_by_value_and_class(name):
    make, _, make_other, _ = CASES[name]
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a.__eq__(object()) is NotImplemented
    assert a.__eq__(repr(a)) is NotImplemented


@pytest.mark.parametrize("name", CASES)
def test_hash(name):
    make, _, _, _ = CASES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1


@pytest.mark.parametrize("name", CASES)
def test_assignment(name):
    make, _, make_other, field = CASES[name]
    record = make()
    replacement = getattr(make_other(), field)
    with pytest.raises(AttributeError):
        setattr(record, field, replacement)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == make()


@pytest.mark.parametrize("name", CASES)
def test_copies_are_equal(name):
    make, _, _, _ = CASES[name]
    record = make()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


# Two builds of each record from a float or a string where an integer belongs.
NON_INTEGER = {
    "FiltrationData": (
        lambda: FiltrationData([(1, 1, 1, 0), (1, -1, 1, 1)], m=5.9, g=2.7),
        lambda: FiltrationData([(1, 1, 1, "0"), (1, -1, 1, 1)], m=5, g=2),
    ),
}


@pytest.mark.parametrize("name", NON_INTEGER)
def test_non_integer_input_raises_type_error(name):
    # read with operator.index: never truncated, never parsed from text
    for build in NON_INTEGER[name]:
        with pytest.raises(TypeError):
            build()


def test_records_of_different_classes_are_never_equal():
    # equal field values, different classes
    class Coeffs(Record):
        __slots__ = _fields = ("coeffs",)

    poly, other = IntPoly([0, 1]), Coeffs((0, 1))
    assert poly.coeffs == other.coeffs
    assert poly.__eq__(other) is NotImplemented and poly != other
    assert other.__eq__(poly) is NotImplemented and other != poly

