from fractions import Fraction
from math import factorial

import pytest

from canstrip import hilbert
from canstrip.hilbert import (
    HilbertData,
    LevelTable,
    degree_of,
    expand,
    hilbert_gp,
    multiply_linear,
    validate,
)
from canstrip.ratpoly import ConsistencyError, RatPoly
from canstrip.root_system import all_simple_types, build_root_system, mark, marked, rho_pair

from canstrip.varieties import complete_intersection, double_cover, section_step

from oracles import binom_poly, pcompose_affine, peval, pmul

E6_P4_TABLES = {
    1: {1: 1, 2: 3, 3: 5, 4: 5, 5: 3, 6: 1},
    2: {5: 1, 6: 2, 7: 3, 8: 2, 9: 1},
    3: {10: 1, 11: 1},
}


def weyl_product(ms, k):
    """chi(L^k) straight from the root list, bypassing the level tables."""
    value = Fraction(1)
    i = ms.node - 1
    for a in ms.rs.positive_roots:
        if a[i] > 0:
            rho = rho_pair(ms, a)
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
            assert ms.cominuscule
            hd = hilbert_gp(ms)
            roots = {}
            for table in hd.levels:
                for k, h in table.exponents.items():
                    r = -k / (table.level * ms.index)
                    roots[r] = roots.get(r, 0) + h
            assert set(roots) == {Fraction(-j, ms.index) for j in range(1, ms.index)}


class TestValidate:
    def test_symmetry_violation_detected(self):
        hd = HilbertData("broken", 2, 2, [LevelTable(1, 1, {1: 2, 2: 1})])
        with pytest.raises(ConsistencyError):
            validate(hd)

    def test_unimodality_gate(self):
        # same shape that real mixed-length marks produce; allowed only there
        table = LevelTable(1, 1, {1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1})
        assert table.unimodality_violations(7)
        hd = hilbert_gp(marked("C", 4, 2))
        assert not hd.simply_laced

    def test_wrong_chi_detected(self):
        hd = HilbertData("broken", 1, 1, [], RatPoly((2, 2)))
        with pytest.raises(ConsistencyError):
            validate(hd)

    def test_chi_alone_detected(self):
        # 2(z + 1) on P^1 with index 2: symmetric and integer-valued, chi = 2
        hd = HilbertData("broken", 1, 2, [], RatPoly((2, 2)))
        with pytest.raises(ConsistencyError, match="chi"):
            validate(hd)
        hd = HilbertData("broken", 1, 1, [], RatPoly((2, 2)))
        with pytest.raises(ConsistencyError, match="anticanonical symmetry"):
            validate(hd)

    def test_non_integer_value_detected(self):
        # (z + 1)/2 on P^1: right degree and anticanonical symmetry, H(0) = 1/2
        hd = HilbertData("broken", 1, 2, [LevelTable(1, 1, {1: 1})], RatPoly.const(Fraction(1, 2)))
        with pytest.raises(ConsistencyError, match="is not an integer"):
            validate(hd)


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
                want = [Fraction(1)]
                for level, roots in ms.levels.items():
                    for a in roots:
                        k = rho_pair(ms, a)
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
        # numerators over den: the factor ((l*z + k)/k)^h for k = n/den
        tables = [LevelTable(2, 4, {6: 2, 5: 1}), LevelTable(3, 3, {2: 1, 7: 3})]
        assert tables[0].den == 4 and tables[1].den == 3
        want = [Fraction(1)]
        for t in tables:
            for k, h in t.exponents.items():
                for _ in range(h):
                    want = pmul(want, [Fraction(1), t.level / k])
        assert list(multiply_linear(tables).coeffs) == want
        # a residual built by hand multiplies the factor product out once more
        base = RatPoly((Fraction(1, 2), Fraction(-3)))
        want = pmul(list(base.coeffs), want)
        assert list(HilbertData("by hand", 8, 1, tables, base).poly.coeffs) == want

    def test_expansion_is_stored_once_and_its_sources_are_fixed(self):
        hd = hilbert_gp(marked("B", 3, 2))
        assert expand(hd) is hd.poly is expand(hd)
        assert isinstance(hd.levels, tuple)
        for name in ("levels", "residual", "poly"):
            with pytest.raises(AttributeError):
                setattr(hd, name, getattr(hd, name))


def assert_factored(hd, parent, d, sign):
    """The residual times the factor product, multiplied out by
    `RatPoly.__mul__`, is the H(z) -/+ H(z-d) of the parent that hd's step
    divided."""
    H = expand(parent)
    assert hd.residual * multiply_linear(hd.levels) == H + sign * H.compose_affine(1, -d)


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

    def test_no_taylor_shift_on_a_gp(self, monkeypatch):
        shifts = []
        real = hilbert._taylor_shift
        monkeypatch.setattr(hilbert, "_taylor_shift", lambda ints, b: shifts.append(b) or real(ints, b))
        for t in all_simple_types(4):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                validate(hilbert_gp(mark(rs, node)))
        assert shifts == []
        cut = section_step(hilbert_gp(marked("E", 6, 4)), 3, "intersection")
        assert cut.residual.degree > 0
        shifts.clear()
        validate(cut)
        assert shifts == [-cut.index]

