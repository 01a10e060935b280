import re
from fractions import Fraction
from math import factorial

import pytest

from canstrip import hilbert, ratpoly, varieties, verify
from canstrip.cli import _iter_multidegrees, main
from canstrip.hilbert import (
    HilbertData,
    LevelTable,
    degree_of,
    expand,
    hilbert_gp,
    multiply_linear,
    validate,
)
from canstrip.ratpoly import ConsistencyError, RatPoly, symmetric_split
from canstrip.root_system import all_simple_types, build_root_system, mark, marked

from canstrip.varieties import complete_intersection, double_cover, section_step
from canstrip.verify import check_line, strip_report

from oracles import (binom_poly, centered, factor_product, factored_value, fraction_marked_lengths,
                     fraction_rho_pair, interleave, padd, pcompose_affine, peval, pmul, pshift,
                     residual_even)

E6_P4_TABLES = {
    1: {1: 1, 2: 3, 3: 5, 4: 5, 5: 3, 6: 1},
    2: {5: 1, 6: 2, 7: 3, 8: 2, 9: 1},
    3: {10: 1, 11: 1},
}


def weyl_product(ms, k):
    """chi(L^k) straight from the root list, bypassing the level tables."""
    value = Fraction(1)
    i = ms.node - 1
    d = fraction_marked_lengths(ms.rs.cartan, i)
    for a in ms.rs.positive_roots:
        if a[i] > 0:
            rho = fraction_rho_pair(d, a)
            value *= (k * a[i] + rho) / rho
    return value


class TestHilbertGP:
    def test_projective_space_tables(self):
        for n in range(1, 8):
            hd = hilbert_gp(marked("A", n, 1))
            assert len(hd.levels) == 1
            assert hd.levels[0].exponents == {Fraction(k): 1 for k in range(1, n + 1)}
            assert list(expand(hd).coeffs) == binom_poly(n)

    def test_p3_expanded(self):
        hd = hilbert_gp(marked("A", 3, 1))
        assert expand(hd) == RatPoly((1, Fraction(11, 6), 1, Fraction(1, 6)))

    def test_p1_anticanonical(self):
        hd = hilbert_gp(marked("A", 1, 1))
        assert expand(hd).compose_affine(hd.index, 0) == RatPoly((1, 2))

    def test_e6_p4_tables(self):
        hd = hilbert_gp(marked("E", 6, 4))
        got = {t.level: {int(k): h for k, h in t.exponents.items()} for t in hd.levels}
        assert got == E6_P4_TABLES

    def test_b_and_top(self):
        for t in all_simple_types(5):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                hd = hilbert_gp(ms)
                for table in hd.levels:
                    keys = table.exponents
                    assert min(keys) + max(keys) == table.level * ms.index
                    assert sum(keys.values()) == len(ms.levels[table.level])

    def test_the_largest_table_root_is_iota_minus_2(self):
        # on every mark of rank <= 10 the smallest key over level is 1, so the
        # largest table root in v = 2z + iota, iota - 2k/l, is iota - 2; a
        # mark whose keys break it is refused by name
        count = 0
        for t in all_simple_types(10):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                hd = hilbert_gp(mark(rs, node))
                roots = [hd.index - Fraction(2 * n, table.level * table.den)
                         for table in hd.levels for n in table.counts]
                assert max(roots) == hd.index - 2, hd.description
                count += 1
        assert count == 237
        ms = marked("E", 8, 4)
        with pytest.raises(ConsistencyError, match="^E8/P4: the smallest key over level is not 1$"):
            hilbert_gp.__wrapped__(ms._replace(d_den=2 * ms.d_den))


class TestDegree:
    def test_projective_spaces(self):
        for n in range(1, 8):
            assert degree_of(hilbert_gp(marked("A", n, 1))) == 1

    def test_known_classical_degrees(self):
        for series, rank, node, want in [
            ("A", 3, 2, 2),      # the Pluecker quadric Gr(2,4)
            ("A", 4, 2, 5),      # Gr(2,5)
            ("B", 2, 1, 2),      # 3-dimensional quadric
            ("D", 5, 1, 2),      # 8-dimensional quadric
            ("D", 5, 5, 12),     # 10-dimensional spinor variety
            ("E", 6, 1, 78),     # Cayley plane
            ("E", 7, 7, 13110),  # 27-dimensional Freudenthal variety
        ]:
            assert degree_of(hilbert_gp(marked(series, rank, node))) == want

    def test_e6_p4_degree(self):
        # forced by the level tables: 29! times the product of (l/k)^h
        hd = hilbert_gp(marked("E", 6, 4))
        lead = Fraction(1)
        for level, exps in E6_P4_TABLES.items():
            for k, h in exps.items():
                lead *= Fraction(level, k) ** h
        assert factorial(29) * lead == 6976089058498560
        assert degree_of(hd) == 6976089058498560
        assert degree_of(hd) == hd.index * 996584151214080


class TestCrossChecks:
    def test_weyl_product_small_window(self):
        for t in all_simple_types(4):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                H = expand(hilbert_gp(ms))
                assert H(0) == 1
                for k in range(6):
                    assert H(k) == weyl_product(ms, k), ms.description

    def test_d5_node1_against_evaluation(self):
        # degree-8 quadric: ten evaluations pin the degree-8 polynomial
        ms = marked("D", 5, 1)
        hd = hilbert_gp(ms)
        assert hd.dim == 8
        H = expand(hd)
        for k in range(10):
            assert H(k) == weyl_product(ms, k)

    def test_e6_module_dimension(self):
        H = expand(hilbert_gp(marked("E", 6, 4)))
        assert H(1) == 2925

    def test_cominuscule_roots(self):
        # full splitting: anticanonical roots are -j/iota, 0 < j < iota
        for series, rank, node in [("A", 4, 1), ("A", 5, 2), ("D", 5, 1), ("E", 6, 1)]:
            ms = marked(series, rank, node)
            assert max(ms.levels) == 1
            hd = hilbert_gp(ms)
            roots = {}
            for table in hd.levels:
                for k, h in table.exponents.items():
                    r = -k / (table.level * ms.index)
                    roots[r] = roots.get(r, 0) + h
            assert set(roots) == {Fraction(-j, ms.index) for j in range(1, ms.index)}


class TestValidate:
    def test_symmetry_violation_detected(self):
        # of the right degree, so (S) is what refuses it: the key 2 at index 2
        # mirrors to 0, which the table lacks
        with pytest.raises(ConsistencyError, match=r"^broken: level 1 not symmetric: h\(2\) = 1 but h\(0\) = 0$"):
            HilbertData("broken", 3, 2, [LevelTable(1, 1, {1: 2, 2: 1})])

    def test_unimodality_violation_detected(self):
        # symmetric about l*iota/2 and of the right degree, but h falls below
        # the middle; the keys print as rationals
        with pytest.raises(ConsistencyError, match=r"^broken: level 1 not unimodal: h\(1\) > h\(2\)$"):
            HilbertData("broken", 5, 4, [LevelTable(1, 1, {1: 2, 2: 1, 3: 2})])
        with pytest.raises(ConsistencyError, match=r"^broken: level 1 not unimodal: h\(1/2\) > h\(1\)$"):
            HilbertData("broken", 5, 2, [LevelTable(1, 2, {1: 2, 2: 1, 3: 2})])
        assert LevelTable(1, 1, {1: 2, 2: 1, 3: 2}).unimodality_violations(4) == [(1, 2)]

    def test_degree_must_leave_zero_or_one(self):
        # dim - sum h - 2 deg Q_R is the e of R = (v/2)^e Q_R(v^2)
        with pytest.raises(ConsistencyError, match=r"^broken: dim 2 is neither 3, the degree"):
            HilbertData("broken", 2, 2, [LevelTable(1, 1, {1: 2, 2: 1})])
        with pytest.raises(ConsistencyError, match=r"^broken: dim 4 is neither 2, .* nor one more$"):
            HilbertData("broken", 4, 0, [], RatPoly((0, 1)))
        # one more is e = 1: R = (v/2) * (v^2/2) at index 0, where v = 2z
        assert expand(HilbertData("2z^3", 3, 0, [], RatPoly((0, Fraction(1, 2))))) == RatPoly((0, 0, 0, 2))

    @pytest.mark.parametrize("dim, index, name", [
        (1.0, 2, "dim"), (1, 2.0, "index"), (True, 2, "dim"), (1, True, "index"),
    ], ids=["float dim", "float index", "bool dim", "bool index"])
    def test_dim_and_index_must_be_ints(self, dim, index, name):
        # a float died deep in validate with a bare TypeError, and dim=True
        # built a P^1; each is refused up front, by the field's name
        value = dim if name == "dim" else index
        with pytest.raises(ValueError, match=f"^x: {name} must be an int, not {re.escape(repr(value))}$"):
            HilbertData("x", dim, index)

    def test_a_negative_degree_is_refused(self):
        # -z at index 0: R = -(v/2) in v = 2z, integer-valued, and with no
        # chi check at index 0 it is built; its degree -1 is refused
        hd = HilbertData("negative", 1, 0, [], RatPoly((-1,)))
        assert expand(hd) == RatPoly((0, -1))
        with pytest.raises(ConsistencyError, match=r"^negative: degree -1 is not a positive integer$"):
            degree_of(hd)

    def test_unimodality_gate(self):
        # same shape that real mixed-length marks produce; allowed only there
        table = LevelTable(1, 1, {1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1})
        assert table.unimodality_violations(7)
        hd = hilbert_gp(marked("C", 4, 2))
        assert not hd.simply_laced

    def test_a_zero_residual_is_refused(self):
        # refused before its degree is read: no Hilbert polynomial is zero
        with pytest.raises(ConsistencyError, match="the residual is zero"):
            HilbertData("zero", -1, 0, [], RatPoly())

    def test_wrong_chi_detected(self):
        # 4z + 2 with index 1: Q_R = 4 in R = (v/2) * Q_R, v = 2z + 1
        with pytest.raises(ConsistencyError, match=r"chi\(O\) = 2 != 1"):
            HilbertData("broken", 1, 1, [], RatPoly((4,)))

    def test_chi_alone_detected(self):
        # 2(z + 1) on P^1 with index 2, v = 2z + 2: symmetric and
        # integer-valued, chi = 2
        with pytest.raises(ConsistencyError, match="chi"):
            HilbertData("broken", 1, 2, [], RatPoly((2,)))

    def test_non_integer_value_detected(self, monkeypatch):
        # both are refused from the tables alone, with no product taken
        calls = []
        monkeypatch.setattr(hilbert, "multiply_linear", lambda t: calls.append(t))
        # (z + 1)/2 on P^1: right degree and anticanonical symmetry, H(0) = 1/2
        with pytest.raises(ConsistencyError, match="is not an integer"):
            HilbertData("broken", 1, 2, [LevelTable(1, 1, {1: 1})], RatPoly((Fraction(1, 2),)))
        # (z + 1)(z + 3)/3 with index 4: symmetric, unimodal and of degree 2
        with pytest.raises(ConsistencyError, match=r"H\(-2\) = -1/3 is not an integer"):
            HilbertData("broken", 2, 4, [LevelTable(1, 1, {1: 1, 3: 1})])
        assert calls == []

    def test_unimodality_reads_the_keys_in_order(self):
        # a table given its keys out of order is the same table, and is unimodal
        hd = HilbertData("x", 4, 4, [LevelTable(1, 1, {2: 2, 1: 1, 3: 1})])
        assert hd == HilbertData("x", 4, 4, [LevelTable(1, 1, {1: 1, 2: 2, 3: 1})])

    def test_each_object_is_validated_once_when_it_is_built(self, monkeypatch, capsys):
        # every construction ends in _carrying, which validates what it built;
        # nothing else validates, so strip_report re-checks nothing
        built, checked, inside = [], [], []
        carrying, check = hilbert._carrying, hilbert.validate

        def spy_carrying(*args, **kwargs):
            inside.append(True)
            try:
                built.append(carrying(*args, **kwargs))
            finally:
                inside.pop()
            return built[-1]

        def spy_validate(hd):
            checked.append((hd, bool(inside)))
            check(hd)

        monkeypatch.setattr(hilbert, "_carrying", spy_carrying)
        monkeypatch.setattr(varieties, "_carrying", spy_carrying)
        monkeypatch.setattr(hilbert, "validate", spy_validate)
        hilbert_gp.cache_clear()  # no object left over from an earlier test
        assert main(["sweep", "--max-rank", "4", "--max-total-degree", "2", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert built and [hd for hd, _ in checked] == built
        assert all(during for _, during in checked)


class TestIntegerKernel:
    def test_expansion_matches_the_product_of_root_factors(self):
        # straight from the root list: one factor (l*z + k)/k per root, so
        # the level tables are bypassed; B, C, F4 and G2 bring keys k = p/q
        # with q > 1, where the integer factor is (l*q*z + p)/p
        fractional = 0
        for t in all_simple_types(4):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                d = fraction_marked_lengths(rs.cartan, node - 1)
                want = [Fraction(1)]
                for level, roots in ms.levels.items():
                    for a in roots:
                        k = fraction_rho_pair(d, a)
                        fractional += k.denominator > 1
                        want = pmul(want, [Fraction(1), level / k])
                assert list(expand(hilbert_gp(ms)).coeffs) == want, ms.description
        assert fractional > 0

    def test_keys_must_be_positive_and_a_denominator_carries(self):
        # every key is a positive rho-pairing, so a key 0 or -6 is refused,
        # and so is a level below 1
        for level, counts in ((2, {0: 1, 5: 1}), (2, {-6: 2, 5: 1}), (0, {5: 1}), (-1, {5: 1})):
            with pytest.raises(ValueError, match="must be positive"):
                LevelTable(level, 4, counts)
        for level, counts in ((0, {1: 1}), (1, {0: 1})):
            with pytest.raises(ValueError, match="must be positive"):
                LevelTable(level, 1, counts)
        # a denominator below 1 would make the keys n/den negative or undefined
        for den in (-2, 0, -1):
            with pytest.raises(ValueError, match="must be positive"):
                LevelTable(1, den, {1: 1, 3: 1})
        # so would a multiplicity below 1 make a factor a constant or a
        # quotient, and one that is not an int a power `validate` cannot take
        for h in (0, -1, 2.0):
            with pytest.raises(ValueError, match="level 1: .* every multiplicity a positive integer"):
                LevelTable(1, 1, {1: h, 3: h})
        # numerators over den: the factor ((l*z + k)/k)^h for k = n/den, in
        # the centered form v^(dim mod 2) * D(v^2) of F(z) * (v/2)^e; the
        # second table has the middle key 9/3 = l*iota/2
        tables = [LevelTable(2, 4, {6: 2, 10: 2}), LevelTable(3, 3, {2: 1, 16: 1, 9: 3})]
        assert (tables[0].den, tables[1].den) == (2, 3)
        F = factor_product([(t.level, t.exponents) for t in tables])
        for e in (0, 1):
            D = multiply_linear(tables, 9 + e, 2)
            assert interleave(list(D.coeffs), (9 + e) % 2) == centered(F, 2, e)
        # a section rebuilt by hand from its fields multiplies Q_R by the
        # factor product, and so recovers the H(z) - H(z-d) the step divided
        cut = complete_intersection(marked("B", 3, 2), [1])
        assert cut.levels[0].den == 2 and cut.residual.degree == 3
        rebuilt = HilbertData(*cut._values())
        assert rebuilt == cut and rebuilt._even is None and expand(rebuilt) == expand(cut)
        exponents = [(t.level, t.exponents) for t in cut.levels]
        assert list(expand(rebuilt).coeffs) == pmul(list(cut.residual.coeffs), factor_product(exponents))

    def test_expansion_is_rebuilt_where_read_and_its_sources_are_fixed(self):
        # Q is kept once read; H in z is one substitution of it per read
        hd = hilbert_gp(marked("B", 3, 2))
        assert hd.even is hd.even and expand(hd) == expand(hd)
        assert not hasattr(hd, "poly") and "_poly" not in HilbertData.__slots__
        assert isinstance(hd.levels, tuple)
        for name in ("levels", "residual_even", "residual", "even"):
            with pytest.raises(AttributeError):
                setattr(hd, name, getattr(hd, name))

    @pytest.mark.parametrize("level, den, counts", [
        (2.0, 1, {1: 1, 3: 1}),        # a float level
        (1, 1.0, {1: 1}),              # a float denominator
        (1, 1, {Fraction(1): 1}),      # a key that is not an int
        (1, 1, {1: True}),             # a bool multiplicity
    ], ids=["level", "den", "key", "bool multiplicity"])
    def test_a_table_refuses_what_it_cannot_hold(self, level, den, counts):
        with pytest.raises(ValueError, match=f"^level {level}: .* must be positive integers"):
            LevelTable(level, den, counts)


class TestFactoredForm:
    """A G/P is validated and reported from its tables, and multiplied out
    only when its expansion is read."""

    def test_a_gp_is_multiplied_out_on_its_first_read(self, monkeypatch):
        calls = []
        real = hilbert.multiply_linear
        monkeypatch.setattr(hilbert, "multiply_linear", lambda *a: calls.append(a) or real(*a))
        hd = hilbert_gp.__wrapped__(marked("E", 8, 4))
        assert degree_of(hd) > 0 and strip_report(hd).verdicts
        assert calls == [] and hd._even is None
        assert expand(hd) == expand(hd) and hd.even is hd.even
        assert len(calls) == 1

    def test_factored_values_and_degree_match_the_expansion(self):
        # every G/P up to rank 10: H(k) on the validation window and the
        # degree, from the tables, against the expansion by Fraction Horner
        count = 0
        for t in all_simple_types(10):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                hd = hilbert_gp.__wrapped__(mark(rs, node))
                values, den = hilbert._window_values(hd)
                degree = degree_of(hd)
                assert hd._even is None
                exponents = [(table.level, table.exponents) for table in hd.levels]
                want = [factored_value(exponents, k) for k in hilbert._WINDOW]
                assert [Fraction(v, den) for v in values] == want, hd.description
                H = list(expand(hd).coeffs)
                assert [peval(H, k) for k in hilbert._WINDOW] == want, hd.description
                assert degree == factorial(hd.dim) * H[-1], hd.description
                count += 1
        assert count == 237

    def test_a_section_reads_its_expansion_and_its_tables_agree(self):
        # a section validates from the expansion its step divided; the same
        # fields built by hand carry none and validate from R times the kept
        # factors; both give the expansion's values, and degree_of the degree
        for t in all_simple_types(4):
            for node in range(1, t.rank + 1):
                gp = hilbert_gp.__wrapped__(marked(t.series, t.rank, node))
                for d, kind in ((1, "intersection"), (2, "intersection"), (2, "cover")):
                    hd = section_step(gp, d, kind)
                    bare = HilbertData(*hd._values())
                    H = list(expand(hd).coeffs)
                    want = [peval(H, k) for k in hilbert._WINDOW]
                    for obj in (hd, bare):
                        values, den = hilbert._window_values(obj)
                        assert [Fraction(v, den) for v in values] == want, hd.description
                    assert bare._even is None and bare == hd
                    assert degree_of(hd) == factorial(hd.dim) * H[-1], hd.description

    def test_every_object_is_rebuilt_from_its_fields(self):
        # the constructor takes the fields it keeps: every G/P, section
        # (codim <= 3, total degree <= 3) and cover (d <= 2 iota + 2) of the
        # rank <= 4 marks equals the object built from its _values(), which
        # multiplies out its Q from the tables, and expands to the same H
        count = 0
        for t in all_simple_types(4):
            for node in range(1, t.rank + 1):
                ms = marked(t.series, t.rank, node)
                objects = [complete_intersection(ms, list(degrees))
                           for degrees in _iter_multidegrees(3, min(3, ms.dim))]
                objects += [double_cover(ms, d) for d in range(1, 2 * ms.index + 3)]
                for hd in objects:
                    bare = HilbertData(*hd._values())
                    assert bare == hd and repr(bare) == repr(hd), hd.description
                    assert bare.even == hd.even and expand(bare) == expand(hd), hd.description
                    count += 1
        assert count == 701


def assert_factored(hd, parent, d, sign):
    """The residual times the factor product, multiplied out by the oracle,
    is the H(z) -/+ H(z-d) of the parent that hd's step divided."""
    H = list(expand(parent).coeffs)
    product = pmul(list(hd.residual.coeffs), factor_product([(t.level, t.exponents) for t in hd.levels]))
    assert product == padd(H, [sign * c for c in pshift(H, d)])


def assert_mirror(hd):
    """H(-iota-z) = (-1)^dim H(z) on the whole expansion, by Fraction Horner."""
    H = list(expand(hd).coeffs)
    assert pcompose_affine(H, -1, -hd.index) == [(-1) ** hd.dim * c for c in H], hd.description


class TestAnticanonicalMirror:
    """`validate` checks the mirror on the residual alone; the identity for
    the whole expansion is checked here."""

    def test_every_mark_up_to_rank_10(self):
        count = 0
        for t in all_simple_types(10):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                assert_mirror(hilbert_gp(mark(rs, node)))
                count += 1
        assert count == 237

    def test_every_section_and_cover_up_to_rank_4(self):
        # codimension <= 2 and total degree <= iota + 1, covers d <= iota
        count = 0
        for t in all_simple_types(4):
            for node in range(1, t.rank + 1):
                ms = mark(build_root_system(t), node)
                top = ms.index + 1
                tuples = [(d,) for d in range(1, top + 1)]
                tuples += [(d, e) for d in range(1, top) for e in range(d, top + 1 - d)]
                for degrees in tuples:
                    if len(degrees) <= ms.dim:
                        cut = complete_intersection(ms, list(degrees))
                        assert_mirror(cut)
                        parent = complete_intersection(ms, list(degrees[:-1]))
                        assert_factored(cut, parent, degrees[-1], -1)
                        count += 1
                for d in range(1, ms.index + 1):
                    cover = double_cover(ms, d)
                    assert_mirror(cover)
                    assert_factored(cover, hilbert_gp(ms), d, 1)
                    count += 1
        assert count == 797

    @pytest.fixture
    def shifts(self, monkeypatch):
        """The shift of every integer Taylor shift made while the test runs."""
        seen = []
        real = ratpoly._taylor_shift
        monkeypatch.setattr(ratpoly, "_taylor_shift", lambda ints, b: seen.append(b) or real(ints, b))
        return seen

    def test_no_taylor_shift_on_a_gp(self, shifts):
        # building, validating and reporting a G/P (residual 1) shifts nothing
        for t in all_simple_types(4):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                hd = hilbert_gp.__wrapped__(mark(rs, node))
                validate(hd)
                strip_report(hd)
        assert shifts == []
        # a section shifts G by +d once, in v = 2z + iota; validate and the
        # report read the Q and Q_R it carries and shift nothing more
        cut = section_step(hilbert_gp(marked("E", 6, 4)), 3, "intersection")
        validate(cut)
        strip_report(cut)
        assert shifts == [3]
        # reading R in z is one substitution, v = 2z + iota
        assert (cut.index, cut.residual.degree, shifts) == (4, 23, [3, 4])

    def test_a_digits_report_reads_the_residual_once(self, shifts, capsys):
        # the section's shift by d = 3 and R read once in v = 2z + 6, as
        # without --digits: the advisory roots read the carried Q_R in u and
        # evaluate their residuals on that same R, with no rescale or split
        hilbert_gp.cache_clear()  # no section memoized by an earlier test
        argv = ["ci", "--type", "E8", "--node", "4", "--degrees", "3", "--format", "json", "--digits", "6"]
        assert main(argv) == 0
        capsys.readouterr()
        assert shifts == [3, 6]
        # a bare polynomial is split once, for its line check and its roots
        del shifts[:]
        assert main(["check", "--coeffs", "1,0,1", "--digits", "6"]) == 0
        capsys.readouterr()
        assert shifts == [0]

    def test_one_shift_per_section_step_in_a_sweep(self, shifts, monkeypatch, capsys):
        made, splits = [], []
        step = varieties.section_step
        monkeypatch.setattr(varieties, "section_step", lambda *a: made.append(step(*a)) or made[-1])
        real = ratpoly.symmetric_split
        assert not hasattr(hilbert, "symmetric_split")
        for module in (ratpoly, verify):
            monkeypatch.setattr(module, "symmetric_split", lambda p: splits.append(p) or real(p))
        hilbert_gp.cache_clear()  # no section memoized by an earlier test
        assert main(["sweep", "--max-rank", "4", "--max-total-degree", "3", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert len(shifts) == len(made) > 0 and splits == []
        assert 0 < sum(hd.residual_even.degree >= 1 for hd in made) < len(made)

    def test_a_gp_report_takes_no_product(self, monkeypatch, capsys):
        # a G/P is reported from its tables: neither its expansion in z nor
        # its Q in u, which only a section needs, is multiplied out
        calls = []
        real = hilbert.multiply_linear
        monkeypatch.setattr(hilbert, "multiply_linear", lambda *a: calls.append(a) or real(*a))
        hilbert_gp.cache_clear()
        assert main(["gp", "--type", "E8", "--node", "4", "--format", "json"]) == 0
        capsys.readouterr()
        assert calls == []

    def test_a_residual_with_no_center_fails_the_mirror(self):
        # 1 + z^3 is symmetric about no point: it has no Q_R, so no object
        # can carry it, and the line check of the bare polynomial finds no
        # line either
        assert symmetric_split(RatPoly((1, 0, 0, 1))) is None
        assert residual_even([1, 0, 0, 1], 1) is None
        line = check_line(RatPoly((1, 0, 0, 1)))
        assert (line.status, line.center, line.certificates) == ("violated", None, ())

