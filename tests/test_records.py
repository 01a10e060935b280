"""The records' semantics: value equality (identity for a marking), the
work each constructor does, frozen fields, and copies."""

import copy
import pickle
from fractions import Fraction

import pytest

from canstrip.hilbert import HilbertData, LevelTable, expand, hilbert_gp
from canstrip.ratpoly import RatPoly, SturmCertificate, _sturm_sequence, sturm_certificate
from canstrip.root_system import SimpleType, build_root_system, mark, marked
from canstrip.varieties import AbelianSpec, complete_intersection
from canstrip.verify import LineCheck, strip_report

RECORDS = {
    "RatPoly": (lambda: RatPoly((1, 2)), "ints"),
    "SturmCertificate": (lambda: SturmCertificate(Fraction(0), 2, 1, 0, 1), "count"),
    "SimpleType": (lambda: SimpleType("A", 2), "rank"),
    "RootSystem": (lambda: build_root_system(SimpleType("A", 2)), "positive_roots"),
    "MarkedSystem": (lambda: marked("A", 2, 1), "index"),
    "LevelTable": (lambda: LevelTable(1, 1, {1: 1}), "counts"),
    "HilbertData": (lambda: HilbertData("point", 0, 1), "sections"),
    "AbelianSpec": (lambda: AbelianSpec(1, 1, (((2,), 2),)), "numbers"),
    "LineCheck": (lambda: LineCheck("not_applicable", None), "status"),
    "StripReport": (lambda: strip_report(hilbert_gp(marked("A", 2, 1))), "verdicts"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_frozen_records_refuse_assignment(name):
    make, field = RECORDS[name]
    record = make()
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_root_system_is_built_once_per_type():
    assert build_root_system(SimpleType("E", 8)) is build_root_system(SimpleType("E", 8))
    assert SimpleType("E", 8) == SimpleType("E", 8) != SimpleType("E", 7)
    assert hash(SimpleType("E", 8)) == hash(SimpleType("E", 8))


@pytest.mark.parametrize("series, rank", [("E", 9), ("B", 1), ("G", 3), ("H", 3), ("A", 0)])
def test_invalid_simple_type_is_refused(series, rank):
    with pytest.raises(ValueError):
        SimpleType(series, rank)


def test_marked_system_hashes_by_identity():
    ms = marked("E", 6, 4)
    twin = ms._replace()
    assert twin is not ms and twin != ms and not twin == ms
    assert ms == ms and hash(ms) == object.__hash__(ms)
    assert {ms: 1}.get(twin) is None
    assert mark(ms.rs, 4) is ms
    assert hilbert_gp(ms) is hilbert_gp(ms)


def test_level_table_normalizes_its_keys():
    table = LevelTable(1, 2, {2: 1, 4: 1})
    assert table == LevelTable(1, 1, {1: 1, 2: 1})
    assert (table.den, table.counts) == (1, {1: 1, 2: 1})
    assert LevelTable(1, 2, {1: 1}) != LevelTable(1, 1, {1: 1})
    assert LevelTable(1, 6, {3: 2, 9: 1}).exponents == {Fraction(1, 2): 2, Fraction(3, 2): 1}
    assert list(LevelTable(1, 1, {2: 2, 1: 1, 3: 1}).counts) == [1, 2, 3]


def test_hilbert_data_equality_ignores_its_caches():
    ms = marked("A", 3, 1)
    cached = hilbert_gp(ms)
    complete_intersection(ms, [2])  # memoized in cached.sections, which read Q
    fresh = hilbert_gp.__wrapped__(ms)
    assert cached.sections and not fresh.sections
    assert cached._even is not None and fresh._even is None
    assert fresh == cached and fresh is not cached
    other = copy.copy(fresh)
    object.__setattr__(other, "_even", RatPoly())  # the slot behind `even`
    assert other.even == RatPoly() and other == fresh
    assert isinstance(fresh.levels, tuple)
    assert HilbertData("x", 0, 1) != HilbertData("y", 0, 1)
    # P^1 with its factor z + 1 in a table, or left in the residual, where it
    # is (v/2)^1 * Q_R(v^2) with Q_R = 1 in v = 2z + 2: one expansion, but
    # not the same factored form
    by_table = HilbertData("x", 1, 2, [LevelTable(1, 1, {1: 1})])
    by_residual = HilbertData("x", 1, 2)
    assert by_residual.residual == RatPoly((1, 1))
    assert expand(by_table) == expand(by_residual) and by_table != by_residual


@pytest.mark.parametrize("name", ["SimpleType", "RootSystem", "LevelTable", "HilbertData",
                                  "AbelianSpec"])
def test_a_record_is_rebuilt_from_its_fields(name):
    record = RECORDS[name][0]()
    assert type(record)(*record._values()) == record


def test_records_that_hold_a_dict_have_no_hash():
    # a level table's counts is a dict, and a HilbertData holds tables
    for record in (LevelTable(1, 1, {1: 1}), HilbertData("point", 0, 1), hilbert_gp(marked("A", 2, 1))):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(record).__name__}'"):
            hash(record)
    for name in ("RatPoly", "SimpleType", "RootSystem", "AbelianSpec"):
        record = RECORDS[name][0]()
        assert hash(record) == hash(copy.copy(record))


def test_ratpoly_equality_and_hash_follow_the_normal_form():
    a, b = RatPoly((Fraction(1, 2), 1)), RatPoly((1, 2)) * Fraction(1, 2)
    assert (a.ints, a.num, a.den) == ((1, 2), 1, 2)
    assert a == b and hash(a) == hash(b)
    assert RatPoly((0, 2, 0)) == 2 * RatPoly((0, 1))
    assert RatPoly((1, 2)) != RatPoly((2, 4))
    assert len({RatPoly((2, 4)), 2 * RatPoly((1, 2)), RatPoly((1, 2))}) == 2
    assert RatPoly(()) == RatPoly((0, 0)) and RatPoly((1,)) != 1


def test_sturm_certificate_dict_keeps_its_keys():
    cert = sturm_certificate(_sturm_sequence(RatPoly((-1, 0, 1))), Fraction(1, 2))
    assert cert.as_dict() == {"hi": "1/2", "chain_length": 3, "variations_lo": 2,
                              "variations_hi": 1, "count": 1, "lo": None}
    assert list(cert.as_dict()) == ["hi", "chain_length", "variations_lo", "variations_hi",
                                    "count", "lo"]


@pytest.mark.parametrize("name", ["RatPoly", "SimpleType", "RootSystem", "LevelTable",
                                  "HilbertData", "AbelianSpec"])
def test_copies_and_pickles_are_equal(name):
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and repr(twin) == repr(record)


def test_an_unexpanded_gp_copies_and_pickles():
    # the copies carry no expansion either, and each takes its own on first read
    hd = hilbert_gp.__wrapped__(marked("E", 6, 4))
    twins = (copy.copy(hd), copy.deepcopy(hd), pickle.loads(pickle.dumps(hd)))
    assert hd._even is None and all(twin._even is None for twin in twins)
    for twin in twins:
        assert twin == hd and twin.residual_even == hd.residual_even and twin.sections == {}
        assert twin.even == hd.even and twin.even is not hd.even
