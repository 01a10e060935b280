from fractions import Fraction
from math import factorial

import pytest

from canstrip import hilbert, ratpoly, varieties
from canstrip.cli import main
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
from canstrip.root_system import all_simple_types, build_root_system, mark, marked, rho_pair

from canstrip.varieties import complete_intersection, double_cover, section_step
from canstrip.verify import check_line, strip_report

from oracles import binom_poly, factored_value, pcompose_affine, peval, pmul

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
            assert ms.lmax == 1
            hd = hilbert_gp(ms)
            roots = {}
            for table in hd.levels:
                for k, h in table.exponents.items():
                    r = -k / (table.level * ms.index)
                    roots[r] = roots.get(r, 0) + h
            assert set(roots) == {Fraction(-j, ms.index) for j in range(1, ms.index)}


class TestValidate:
    def test_symmetry_violation_detected(self):
        with pytest.raises(ConsistencyError):
            HilbertData("broken", 2, 2, [LevelTable(1, 1, {1: 2, 2: 1})])

    def test_unimodality_gate(self):
        # same shape that real mixed-length marks produce; allowed only there
        table = LevelTable(1, 1, {1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1})
        assert table.unimodality_violations(7)
        hd = hilbert_gp(marked("C", 4, 2))
        assert not hd.simply_laced

    def test_wrong_chi_detected(self):
        with pytest.raises(ConsistencyError):
            HilbertData("broken", 1, 1, [], RatPoly((2, 2)))

    def test_chi_alone_detected(self):
        # 2(z + 1) on P^1 with index 2: symmetric and integer-valued, chi = 2
        with pytest.raises(ConsistencyError, match="chi"):
            HilbertData("broken", 1, 2, [], RatPoly((2, 2)))
        with pytest.raises(ConsistencyError, match="anticanonical symmetry"):
            HilbertData("broken", 1, 1, [], RatPoly((2, 2)))

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
        # numerators over den: the factor ((l*z + k)/k)^h for k = n/den
        def factor_product(tables):
            want = [Fraction(1)]
            for t in tables:
                for k, h in t.exponents.items():
                    for _ in range(h):
                        want = pmul(want, [Fraction(1), t.level / k])
            return want

        tables = [LevelTable(2, 4, {6: 2, 5: 1}), LevelTable(3, 3, {2: 1, 7: 3})]
        assert tables[0].den == 4 and tables[1].den == 3
        assert list(multiply_linear(tables).coeffs) == factor_product(tables)
        # a section rebuilt by hand from its fields multiplies its residual by
        # the factor product, and so recovers the H(z) - H(z-d) the step divided
        cut = complete_intersection(marked("B", 3, 2), [1])
        assert cut.levels[0].den == 2 and cut.residual.degree == 3
        rebuilt = HilbertData(cut.description, cut.dim, cut.index, cut.levels, cut.residual, cut.simply_laced)
        assert rebuilt == cut and rebuilt.poly == cut.poly
        assert list(rebuilt.poly.coeffs) == pmul(list(cut.residual.coeffs), factor_product(cut.levels))

    def test_expansion_is_stored_once_and_its_sources_are_fixed(self):
        hd = hilbert_gp(marked("B", 3, 2))
        assert expand(hd) is hd.poly is expand(hd)
        assert isinstance(hd.levels, tuple)
        for name in ("levels", "residual", "poly"):
            with pytest.raises(AttributeError):
                setattr(hd, name, getattr(hd, name))


class TestFactoredForm:
    """A G/P is validated and reported from its tables, and multiplied out
    only when its expansion is read."""

    def test_a_gp_is_multiplied_out_on_its_first_read(self, monkeypatch):
        calls = []
        real = hilbert.multiply_linear
        monkeypatch.setattr(hilbert, "multiply_linear", lambda t: calls.append(t) or real(t))
        hd = hilbert_gp.__wrapped__(marked("E", 8, 4))
        assert degree_of(hd) > 0 and strip_report(hd).verdicts
        assert calls == [] and hd._poly is None
        assert expand(hd) is hd.poly is expand(hd)
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
                assert hd._poly is None
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
                    bare = HilbertData(hd.description, hd.dim, hd.index, hd.levels, hd.residual,
                                       hd.simply_laced)
                    H = list(hd.poly.coeffs)
                    want = [peval(H, k) for k in hilbert._WINDOW]
                    for obj in (hd, bare):
                        values, den = hilbert._window_values(obj)
                        assert [Fraction(v, den) for v in values] == want, hd.description
                    assert bare._poly is None and bare == hd
                    assert degree_of(hd) == factorial(hd.dim) * H[-1], hd.description


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
        # a section shifts H by -d once, and its residual once to the center
        # -iota/2 = -2, which validate and the report then share
        cut = section_step(hilbert_gp(marked("E", 6, 4)), 3, "intersection")
        validate(cut)
        strip_report(cut)
        assert (cut.index, cut.residual.degree, shifts) == (4, 23, [-3, -2])

    def test_one_shift_per_section_step_and_residual_in_a_sweep(self, shifts, monkeypatch, capsys):
        made = []
        step = varieties.section_step
        monkeypatch.setattr(varieties, "section_step", lambda *a: made.append(step(*a)) or made[-1])
        hilbert_gp.cache_clear()  # no section memoized by an earlier test
        assert main(["sweep", "--max-rank", "4", "--max-total-degree", "2", "--jobs", "1"]) == 0
        capsys.readouterr()
        residuals = sum(hd.residual.degree >= 1 for hd in made)
        assert 0 < residuals < len(made)
        assert len(shifts) == len(made) + residuals

    def test_a_residual_with_no_center_fails_the_mirror(self):
        # 1 + z^3 is symmetric about no point: construction refuses it, and
        # the line check of the bare polynomial finds no line either
        assert symmetric_split(RatPoly((1, 0, 0, 1))) is None
        with pytest.raises(ConsistencyError, match="anticanonical symmetry fails"):
            HilbertData("no centre", 3, 1, [], RatPoly((1, 0, 0, 1)))
        line = check_line(RatPoly((1, 0, 0, 1)))
        assert (line.status, line.center, line.certificates) == ("violated", None, ())

