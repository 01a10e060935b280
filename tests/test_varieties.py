import itertools
import random
import re
from fractions import Fraction
from math import factorial

import pytest

from canstrip import hilbert, varieties
from canstrip.cli import _iter_multidegrees
from canstrip.hilbert import HilbertData, degree_of, expand, hilbert_gp
from canstrip.ratpoly import ConsistencyError, RatPoly, symmetric_split
from canstrip.root_system import all_simple_types, build_root_system, mark, marked
from canstrip.varieties import (
    AbelianSpec,
    abelian_ci,
    abelian_spec_from_json,
    complete_intersection,
    double_cover,
    pell,
    section_step,
)
from canstrip.verify import check_line, strip_report

from oracles import (binom_poly, cover_sum, factor_product, iterated_difference, padd, pdivmod, pmul,
                     pshift, psub, symmetric_even_part)


def as_ratpoly(coeffs):
    return RatPoly(tuple(coeffs))


class TestSectionStep:
    def test_hyperplane_in_projective_space(self):
        for n in range(2, 7):
            cut = complete_intersection(marked("A", n, 1), [1])
            plain = hilbert_gp(marked("A", n - 1, 1))
            assert expand(cut) == expand(plain)
            assert (cut.dim, cut.index) == (plain.dim, plain.index)
            assert [t.exponents for t in cut.levels] == [t.exponents for t in plain.levels]
            assert cut.residual == plain.residual == RatPoly((1,))

    def test_quadric_surface(self):
        hd = complete_intersection(marked("A", 3, 1), [2])
        assert expand(hd) == RatPoly((1, 2, 1))
        assert (hd.index, hd.dim) == (2, 2)
        assert expand(hd) == as_ratpoly(iterated_difference(binom_poly(3), [2]))
        rep = strip_report(hd)
        # one -1/2 comes from the kept level factor, the other sits in the
        # residual (2z+1 in the anticanonical variable), certified on-line
        assert rep.rational_roots == [(Fraction(-1, 2), 1)]
        assert rep.residual_on_line == "certified"
        assert hd.residual == RatPoly((1, 1))
        assert rep.verdicts == {k: "holds" for k in ("CS", "NCS", "TCS", "CL")}

    def test_quintic_threefold(self):
        hd = complete_intersection(marked("A", 4, 1), [5])
        oracle = iterated_difference(binom_poly(4), [5])
        assert list(expand(hd).coeffs) == oracle
        assert hd.index == 0
        assert expand(hd)(0) == 0
        line = check_line(expand(hd))
        assert line.status == "certified" and line.center == 0

    def test_reconstruction_across_kinds(self):
        hd = hilbert_gp(marked("B", 3, 2))
        H = expand(hd)
        for d in (1, 2, 3):
            # the carried expansion against the factored form, multiplied
            # out by RatPoly.__mul__
            cut = section_step(hd, d, "intersection")
            factored = cut.residual * RatPoly(factor_product([(t.level, t.exponents) for t in cut.levels]))
            assert expand(cut) == factored == H + (-1) * H.compose_affine(1, -d)
            cov = section_step(hd, d, "cover")
            factored = cov.residual * RatPoly(factor_product([(t.level, t.exponents) for t in cov.levels]))
            assert expand(cov) == factored == H + H.compose_affine(1, -d)
            assert cov.dim == hd.dim and cut.dim == hd.dim - 1
            assert cov.index == cut.index == hd.index - d

    def test_a_remainder_fails_the_reconstruction(self, monkeypatch):
        # kept factors that do not divide H(z) - H(z-d) leave a remainder
        real = varieties.multiply_linear
        monkeypatch.setattr(varieties, "multiply_linear", lambda *a: real(*a) * RatPoly((3, 1)))
        with pytest.raises(ConsistencyError, match="does not reconstruct H\\(z\\) - H\\(z-d\\)"):
            section_step(hilbert_gp(marked("B", 3, 2)), 1, "intersection")

    def test_one_product_per_step(self, monkeypatch):
        # the step multiplies out only its divisor and keeps the quotient's
        # target as its Q; the parent's own Q, taken on its first read, is
        # taken before the calls are counted
        calls = []
        real = varieties.multiply_linear
        for module in (varieties, hilbert):
            monkeypatch.setattr(module, "multiply_linear", lambda *a: calls.append(a) or real(*a))
        hd = hilbert_gp(marked("E", 6, 4))
        hd.even
        for kind in ("intersection", "cover"):
            calls.clear()
            assert section_step(hd, 3, kind).residual.degree > 0
            assert len(calls) == 1

    def test_bad_inputs(self):
        hd = hilbert_gp(marked("A", 2, 1))
        with pytest.raises(ValueError):
            section_step(hd, 0, "intersection")
        with pytest.raises(ValueError):
            section_step(hd, 1, "union")
        point = complete_intersection(marked("A", 1, 1), [1])
        assert point.dim == 0
        with pytest.raises(ValueError):
            section_step(point, 1, "intersection")


class TestCenteredForm:
    """A section or cover carries Q and Q_R in u = v^2, v = 2z + iota; its
    fields in z, rebuilt from them where they are read, against the Fraction
    oracles."""

    def assert_matches(self, hd, H):
        # H is the oracle's H(z) -/+ H(z-d); R is its quotient by the factors
        assert list(expand(hd).coeffs) == H, hd.description
        R, rest = pdivmod(H, factor_product([(t.level, t.exponents) for t in hd.levels]))
        assert rest == [] and list(hd.residual.coeffs) == R, hd.description
        if len(R) > 1:  # Q_R is the split's q in u = 4w^2, content included
            center, q = symmetric_even_part(R)
            assert center == Fraction(-hd.index, 2)
            assert [c * 4**i for i, c in enumerate(hd.residual_even.coeffs)] == q
            assert symmetric_split(hd.residual)[1].coeffs == tuple(q)
            # the z-form recipe for building by hand recovers Q_R from R
            assert symmetric_split(hd.residual)[1].compose_affine(Fraction(1, 4), 0) == hd.residual_even
        else:
            assert list(hd.residual_even.coeffs) == R
        # a copy built by hand from the fields multiplies out the same Q from
        # its tables
        bare = HilbertData(*hd._values())
        assert bare == hd and bare._even is None and bare.even == hd.even

    def test_every_section_and_cover_up_to_rank_4(self):
        # codim <= 3 and total degree <= iota + 3; covers d <= 2 * iota + 2
        count = 0
        for t in all_simple_types(4):
            for node in range(1, t.rank + 1):
                ms = marked(t.series, t.rank, node)
                gp = hilbert_gp(ms)
                H = {(): factor_product([(t.level, t.exponents) for t in gp.levels])}
                for degrees in _iter_multidegrees(ms.index + 3, min(3, ms.dim)):
                    if degrees:
                        parent = H[degrees[:-1]]
                        H[degrees] = psub(parent, pshift(parent, degrees[-1]))
                        self.assert_matches(complete_intersection(ms, list(degrees)), H[degrees])
                        count += 1
                for d in range(1, 2 * ms.index + 3):
                    self.assert_matches(double_cover(ms, d), cover_sum(H[()], d))
                    count += 1
        assert count == 2107

    def test_an_asymmetric_residual_is_refused(self):
        cut = complete_intersection(marked("E", 6, 4), [3])
        assert cut.index == 4 and cut.residual.degree == 23
        # R + z keeps R's top two coefficients, so its only possible center,
        # -iota/2, but adds a monomial of the wrong parity about it: the
        # z-form recipe's split finds no even part, so there is no Q_R to
        # build on; R itself passed as Q_R is refused for its degree
        assert symmetric_split(cut.residual + RatPoly((0, 1))) is None
        with pytest.raises(ConsistencyError, match=re.escape("E6/P4 ∩ (3): dim 28 is neither 51,")):
            HilbertData(cut.description, cut.dim, cut.index, cut.levels, cut.residual)


class TestCompleteIntersection:
    def test_del_pezzo_of_degree_four(self):
        hd = complete_intersection(marked("A", 4, 1), [2, 2])
        assert (hd.dim, hd.index) == (2, 1)
        assert degree_of(hd) == 4
        assert list(expand(hd).coeffs) == iterated_difference(binom_poly(4), [2, 2])
        rep = strip_report(hd)
        assert rep.verdicts["TCS"] == "holds" and rep.verdicts["CL"] == "holds"

    def test_quartic_surface_k3(self):
        hd = complete_intersection(marked("A", 3, 1), [4])
        assert hd.index == 0
        assert expand(hd)(0) == 2  # chi(O) of a K3
        rep = strip_report(hd)
        assert rep.variety_class == "Calabi-Yau"
        assert rep.verdicts["CL"] == "holds"

    def test_e6_calabi_yau_cut(self):
        hd = complete_intersection(marked("E", 6, 4), [7])
        assert hd.index == 0
        assert strip_report(hd).verdicts["CL"] == "holds"

    def test_order_independence(self):
        ms = marked("A", 5, 1)
        polys = {
            expand(complete_intersection(ms, list(perm)))
            for perm in itertools.permutations([2, 3, 4])
        }
        assert len(polys) == 1
        ms = marked("B", 3, 1)
        polys = {
            expand(complete_intersection(ms, list(perm)))
            for perm in itertools.permutations([1, 2, 2])
        }
        assert len(polys) == 1

    def test_oracle_equivalence_on_projective_spaces(self):
        rng = random.Random(17)
        for n in range(1, 9):
            ms = marked("A", n, 1)
            cases = [[1], [2], [n + 1], [1, 1], [2, 3]]
            for _ in range(4):
                k = rng.randint(1, min(3, n))
                cases.append(sorted(rng.randint(1, 6) for _ in range(k)))
            for degrees in cases:
                if len(degrees) > n:
                    continue
                got = expand(complete_intersection(ms, degrees))
                want = iterated_difference(binom_poly(n), degrees)
                assert list(got.coeffs) == want, (n, degrees)

    def test_too_many_degrees(self):
        with pytest.raises(ValueError):
            complete_intersection(marked("A", 2, 1), [1, 1, 1])

    def test_general_type_stays_on_line(self):
        hd = complete_intersection(marked("A", 2, 1), [4])
        assert hd.index == -1
        rep = strip_report(hd)
        assert rep.variety_class == "general type"
        assert rep.verdicts["CL"] == "holds"
        assert rep.residual_line == Fraction(1, 2)  # L-variable center -iota/2


class TestSharedSections:
    def test_hilbert_gp_returns_one_object_per_mark(self):
        ms, other = marked("E", 6, 4), marked("B", 3, 2)
        first = hilbert_gp(ms)
        assert hilbert_gp(ms) is first
        # one cached mark at a time: asking for another mark drops the first
        assert hilbert_gp(other) is hilbert_gp(other)
        again = hilbert_gp(ms)
        assert again is not first and again == first

    def test_prefix_reuse_matches_an_uncached_chain(self):
        for series, rank, node in (("C", 3, 2), ("E", 6, 4), ("G", 2, 1)):
            ms = marked(series, rank, node)
            cut1 = complete_intersection(ms, [1])
            cut12 = complete_intersection(ms, [1, 2])
            assert cut1.sections[2] is cut12
            assert complete_intersection(ms, [1]) is cut1
            plain = hilbert_gp.__wrapped__(ms)
            plain = section_step(plain, 1, "intersection", f"{ms.description} ∩ (1)")
            plain = section_step(plain, 2, "intersection", f"{ms.description} ∩ (1,2)")
            assert plain is not cut12
            assert cut12.levels == plain.levels
            assert cut12.residual == plain.residual
            assert cut12.description == plain.description == f"{ms.description} ∩ (1,2)"
            assert expand(cut12) == expand(plain)

    def test_fields_cannot_be_assigned(self):
        hd = complete_intersection(marked("A", 3, 1), [2])
        for name in ("description", "dim", "index", "levels", "residual", "sections"):
            with pytest.raises(AttributeError):
                setattr(hd, name, getattr(hd, name))
        assert hd.index == 2


class TestDoubleCover:
    def test_worked_examples(self):
        assert expand(double_cover(marked("A", 1, 1), 1)) == RatPoly((1, 2))
        assert expand(double_cover(marked("A", 2, 1), 1)) == RatPoly((1, 2, 1))
        assert expand(double_cover(marked("A", 1, 1), 2)) == RatPoly((0, 2))

    def test_oracle_equivalence(self):
        for n in range(1, 6):
            ms = marked("A", n, 1)
            for d in range(1, n + 2):
                got = expand(double_cover(ms, d))
                assert list(got.coeffs) == cover_sum(binom_poly(n), d), (n, d)

    def test_dichotomy_for_quadric_covers(self):
        for series, rank in [("B", 2), ("B", 3), ("D", 4), ("D", 5)]:
            ms = marked(series, rank, 1)
            for d in range(1, ms.index + 1):
                rep = strip_report(double_cover(ms, d))
                key = "TCS" if rep.index > 0 else "CL"
                assert rep.verdicts[key] == "holds", (ms.description, d)

    def test_calabi_yau_cover(self):
        ms = marked("A", 1, 1)
        hd = double_cover(ms, 2)
        rep = strip_report(hd)
        assert rep.variety_class == "Calabi-Yau"
        assert rep.verdicts["CL"] == "holds"

    def test_beyond_the_index(self):
        # no structural claim applies, but the polynomial is still computable
        hd = double_cover(marked("A", 1, 1), 3)
        assert expand(hd) == RatPoly((-1, 2))
        rep = strip_report(hd)
        assert rep.variety_class == "general type"
        assert rep.verdicts["CL"] == "holds"


class TestAbelian:
    def test_genus_two_curve(self):
        spec = AbelianSpec(1, 1, (((2,), 2),))
        poly = abelian_ci(spec)
        assert poly == RatPoly((-1, 2))
        line = check_line(poly)
        assert line.status == "certified" and line.center == Fraction(1, 2)

    def test_abelian_surface_hypersurface(self):
        spec = AbelianSpec(2, 1, (((3,), 6),))
        assert abelian_ci(spec) == RatPoly((1, -3, 3))
        assert check_line(abelian_ci(spec)).status == "certified"

    def test_single_term_matches_direct_formula(self):
        for n in range(1, 6):
            spec = AbelianSpec(n, 1, (((n + 1,), 5),))
            want = pell(n + 1) * Fraction(5, factorial(n + 1))
            assert abelian_ci(spec) == want

    def test_multifactor(self):
        spec = AbelianSpec(2, 2, (((2, 2), 4), ((1, 3), 6), ((3, 1), 6)))
        poly = abelian_ci(spec)
        assert poly.degree == 2
        assert check_line(poly).status == "certified"
        # the Koszul sum again, on the oracle's coefficient lists
        want = []
        for tup, value in spec.numbers:
            term = [Fraction(value)]
            for e in tup:
                term = pmul(term, [c / factorial(e) for c in iterated_difference([0] * e + [1], [1])])
            want = padd(want, term)
        assert list(poly.coeffs) == want

    def test_pell_is_the_difference_of_two_powers(self):
        # the binomial closed form against z^l - (z-1)^l, the zero polynomial at l = 0
        for l in range(13):
            assert list(pell(l).coeffs) == iterated_difference([0] * l + [1], [1])

    def test_pell_properties(self):
        for l in range(1, 13):
            p = pell(l)
            assert p.degree == l - 1
            shifted = p.compose_affine(1, Fraction(1, 2))
            assert all(c >= 0 for c in shifted.coeffs)
            # parity: even function for odd l, odd function for even l
            sign = (-1) ** (l + 1)
            assert shifted.compose_affine(-1, 0) == shifted * sign
            if l >= 2:
                line = check_line(p)
                assert line.status == "certified" and line.center == Fraction(1, 2)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            AbelianSpec(1, 1, (((3,), 2),))  # sum != n + c
        with pytest.raises(ValueError):
            AbelianSpec(1, 1, (((2,), 0),))  # non-positive number
        with pytest.raises(ValueError):
            AbelianSpec(1, 1, (((2,), 2), ((2,), 3)))  # duplicate tuple
        with pytest.raises(ValueError):
            AbelianSpec(2, 2, (((4,), 2),))  # tuple length != c
        # every field is an int, not a bool or a float that would be coerced
        for args, message in [((True, 1, (((2,), 2),)), "n must be an integer, got True"),
                              ((1.0, 1, (((2,), 2),)), "n must be an integer, got 1.0"),
                              ((1, 1, (((2,), True),)), "intersection number must be an integer, got True"),
                              ((1, 1, (((2.0,), 2),)), "tuple entry must be an integer, got 2.0")]:
            with pytest.raises(ValueError) as exc:
                AbelianSpec(*args)
            assert str(exc.value) == message

    def test_json_parsing(self):
        spec = abelian_spec_from_json(
            {"n": 1, "c": 1, "numbers": [{"tuple": [2], "value": 2}]}
        )
        assert spec == AbelianSpec(1, 1, (((2,), 2),))
        with pytest.raises(ValueError):
            abelian_spec_from_json({"n": 1, "c": 1})


class TestSymmetryPropagation:
    def test_every_output_is_symmetric(self):
        rng = random.Random(23)
        bases = [("A", 3, 2), ("B", 3, 1), ("C", 3, 3), ("G", 2, 1), ("D", 4, 2)]
        for series, rank, node in bases:
            ms = marked(series, rank, node)
            for _ in range(4):
                k = rng.randint(1, min(3, ms.dim - 1))
                degrees = [rng.randint(1, 4) for _ in range(k)]
                hd = complete_intersection(ms, degrees)
                H = expand(hd)
                assert H.compose_affine(-1, -hd.index) == H * ((-1) ** hd.dim)


def test_the_critical_line_past_degree_iota_minus_2():
    """B = iota - 2 on every G/P, so a step by d >= iota - 1 puts every root
    on the critical line, and a later step keeps it there.  On every mark of
    rank <= 6, for d = iota - 1 ... iota + 10: the hypersurface, its further
    degree-1 cut and the double cover branched in |2dL| each have their
    residual certified on the line by counting, and every table root at -1/2."""
    cases = 0
    for t in all_simple_types(6):
        for node in range(1, t.rank + 1):
            ms = marked(t.series, t.rank, node)
            for d in range(max(ms.index - 1, 1), ms.index + 11):
                cuts = [complete_intersection(ms, [d]), double_cover(ms, d)]
                if cuts[0].dim >= 1:
                    cuts.append(section_step(cuts[0], 1, "intersection"))
                for cut in cuts:
                    rep = strip_report(cut)
                    assert rep.residual_on_line in ("certified", "not_applicable"), cut.description
                    assert all(r == Fraction(-1, 2) for r, _ in rep.rational_roots), cut.description
                    assert rep.verdicts["CL"] == "holds", cut.description
                    cases += 1
    assert cases == 3084
