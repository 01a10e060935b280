import math
from fractions import Fraction

import pytest

from canstrip import proposer, verify
from canstrip.hilbert import HilbertData, LevelTable, expand, hilbert_gp
from canstrip.ratpoly import RatPoly, squarefree_parts, symmetric_split
from canstrip.root_system import all_simple_types, marked
from canstrip.varieties import complete_intersection, double_cover, section_step
from canstrip.cli import variety_report
from canstrip.proposer import approx_roots
from canstrip.verify import _certify, check_line, strip_report

from oracles import alternates, binom_poly, iterated_difference, residual_even


def P(*coeffs):
    return RatPoly(tuple(Fraction(c) for c in coeffs))


class TestCheckLine:
    def test_on_line(self):
        line = check_line(P(1, 1, 1))
        assert line.status == "certified"
        assert line.center == Fraction(-1, 2)
        assert line.certificates[0].count == 1  # the u-root -3/4

    def test_off_line(self):
        line = check_line(P(2, 3, 1))  # roots -1 and -2
        assert line.status == "violated"

    def test_quintic_threefold_oracle_polynomial(self):
        poly = P(*iterated_difference(binom_poly(4), [5]))
        line = check_line(poly)
        assert line.status == "certified" and line.center == 0

    def test_constant(self):
        assert check_line(P(5)).status == "not_applicable"
        with pytest.raises(ValueError):
            check_line(RatPoly())

    def test_linear(self):
        line = check_line(P(1, 2))
        assert line.status == "certified" and line.center == Fraction(-1, 2)

    def test_asymmetric_rejected(self):
        assert check_line(P(1, 0, 0, 1)) == verify.LineCheck("violated", None)

    def test_multiplicity_handling(self):
        # (z^2+z+1)^2 has all roots on the line, detected via square-free parts
        line = check_line(P(1, 1, 1) * P(1, 1, 1))
        assert line.status == "certified"


def certify(p, radius2):
    """_certify on p's one split, as check_line takes it."""
    return _certify(symmetric_split(p), radius2)


def around_half(*factors):
    """p(z) = q((z + 1/2)^2) for q the product of the given factors of u."""
    q = math.prod(factors, start=RatPoly((1,)))
    w2 = P(Fraction(1, 4), 1, 1)  # (z + 1/2)^2
    p = RatPoly()
    for c in reversed(q.coeffs):
        p = p * w2 + P(c)
    return p


class TestCertifyMultipleRoots:
    """One Sturm sequence of the even part q, with a multiple root of q lying
    exactly on an endpoint of the count, 0 or r^2."""

    R2 = Fraction(1, 9)

    def test_double_root_at_r2(self):
        # q = (u - r^2)^2 (u + 1): roots -1 (on the line) and r^2 (a real
        # pair at the segment's ends), so the segment holds with contact
        line, segment = certify(around_half(P(-self.R2, 1), P(-self.R2, 1), P(1, 1)), self.R2)
        assert line.center == Fraction(-1, 2)
        assert line.status == "violated" and line.certificates[0].count == 1
        assert segment.status == "certified" and segment.segment_boundary
        assert segment.segment_pairs == 1
        assert [c.count for c in segment.certificates] == [2]
        # q = (u - r^2)^2 (u - 2 r^2): every term of the chain vanishes at
        # r^2, and the root beyond it must still be seen
        p = around_half(P(-self.R2, 1), P(-self.R2, 1), P(-2 * self.R2, 1))
        _, segment = certify(p, self.R2)
        assert segment.status == "violated" and segment.segment_boundary
        assert segment.certificates[0].count == 1

    def test_double_root_at_zero(self):
        # q = u^2 (u + 1): a double root on the line's center, certified
        line, segment = certify(around_half(P(0, 0, 1), P(1, 1)), self.R2)
        assert line.status == "certified" and line.certificates[0].count == 2
        assert segment.status == "certified" and not segment.segment_boundary
        assert segment.segment_pairs == 0
        # q = u^2 (u - r^2/2): the root u = r^2/2 leaves the line but stays
        # in the segment, so the line check fails and the segment holds
        p = around_half(P(0, 0, 1), P(-self.R2 / 2, 1))
        line, segment = certify(p, self.R2)
        assert line.status == "violated" and line.certificates[0].count == 1
        assert segment.status == "certified" and segment.segment_pairs == 1
        assert not segment.segment_boundary

    def test_one_taylor_shift_per_residual(self, monkeypatch):
        # the shift that finds the center also decides the symmetry and gives
        # q, and _certify, which takes that split, shifts nothing more
        shifted = []
        shift = RatPoly.compose_affine
        monkeypatch.setattr(
            RatPoly, "compose_affine", lambda p, a, b: shifted.append(p) or shift(p, a, b)
        )
        p = around_half(P(0, 0, 1), P(-self.R2 / 2, 1))
        certify(p, self.R2)
        assert shifted == [p]
        shifted.clear()
        check_line(p)
        assert shifted == [p]
        # a report certifies its residual's even part, carried from construction
        hd = HilbertData("by hand", 2, 1, [], P(*residual_even([1, 5, 5], 1)))
        shifted.clear()
        assert strip_report(hd).residual_line == Fraction(-1, 2)
        assert shifted == []
        # no second even part in the anticanonical variable: the Sturm chain
        # (below ALTERNATION_MIN_DEGREE) and the proposer (from it on) both
        # take the carried Q_R as it stands
        taken = []
        chain, points = verify._sturm_sequence, proposer._alternating_points
        monkeypatch.setattr(verify, "_sturm_sequence", lambda q: taken.append(q) or chain(q))
        monkeypatch.setattr(proposer, "_alternating_points", lambda q: taken.append(q) or points(q))
        small = complete_intersection(marked("C", 4, 2), [1])
        large = complete_intersection(marked("E", 8, 4), [3])
        for hd in (small, large):
            taken.clear()
            rep = strip_report(hd)
            assert hd.index > 2 and rep.residual_line == Fraction(-1, 2)
            assert len(taken) == 1 and taken[0] is hd.residual_even
        assert small.residual_even.degree < verify.ALTERNATION_MIN_DEGREE <= large.residual_even.degree


def geometric_roots(n):
    """n well-separated negative rationals -round(1.25^k * 64)/64."""
    return [P(Fraction(round(1.25**k * 64), 64), 1) for k in range(-8, n - 8)]


class TestAlternation:
    """Sign alternation at float-proposed points, checked exactly, with the
    Sturm chain as the fallback."""

    N = verify.ALTERNATION_MIN_DEGREE + 2
    R2 = Fraction(9, 100)

    @pytest.fixture(scope="class")
    def hard_points(self):
        # the even parts of the three hard-residuals cases and E8/P4 cut by
        # (2, 8), with the points the fast path certified them by
        seen = []
        found = proposer._alternating_points

        def spy(q):
            seen.append((q, found(q)))
            return seen[-1][1]

        e8 = marked("E", 8, 4)
        proposer._alternating_points = spy
        try:
            for hd in (complete_intersection(e8, [3]), double_cover(e8, 9),
                       complete_intersection(e8, [1, 1]), complete_intersection(e8, [2, 8])):
                assert strip_report(hd).all_applicable_hold
        finally:
            proposer._alternating_points = found
        return seen

    def test_oracle_accepts_the_fast_path_points(self, hard_points):
        assert sorted(q.degree for q, _ in hard_points) == [37, 44, 52, 53]
        for q, points in hard_points:
            coeffs = list(q.coeffs)
            assert points is not None and alternates(coeffs, points)
            # one point moved across the root to its left, to just right of
            # its left neighbour, breaks the alternation
            for k in (1, len(points) // 2, len(points) - 1):
                moved = list(points)
                moved[k] = points[k - 1] + (points[k] - points[k - 1]) / 2**40
                assert not alternates(coeffs, moved)

    @pytest.mark.parametrize("garbage", ["wrong reals", "nan", "off axis", "nothing"])
    def test_failed_proposer_falls_back_to_the_same_checks(self, monkeypatch, garbage):
        p = around_half(*geometric_roots(self.N), P(-self.R2 / 2, 1))
        q = symmetric_split(p)[1]
        assert proposer._alternating_points(q) is not None
        want = certify(p, self.R2)
        assert want[1].status == "certified" and want[1].segment_pairs == 1

        def garbage_proposer(ints):
            n = len(ints) - 1
            ys = {
                "wrong reals": [complex(k, 0) for k in range(n)],
                "nan": [complex("nan")] * n,
                "off axis": [complex(-1, (-1) ** k) for k in range(n)],
                "nothing": [],
            }[garbage]
            sweeps = iter([]) if garbage == "nothing" else iter(lambda: (ys, [0.0] * n), None)
            return 0, sweeps

        monkeypatch.setattr(proposer, "_aberth", garbage_proposer)
        assert proposer._alternating_points(q) is None
        assert certify(p, self.R2) == want

    def test_a_complex_pair_gives_up_within_the_cap(self, monkeypatch):
        # a conjugate pair at -1/2 +- i among well-separated real roots: the
        # iterates settle with two members off the axis, the proposer gives
        # up before its sweep cap, and Sturm decides
        p = around_half(*geometric_roots(self.N), P(Fraction(5, 4), 1, 1))
        q = symmetric_split(p)[1]
        assert q.degree >= verify.ALTERNATION_MIN_DEGREE
        sweeps = []
        propose = proposer._aberth

        def counted(ints):
            shift, gen = propose(ints)
            return shift, (sweeps.append(1) or s for s in gen)

        monkeypatch.setattr(proposer, "_aberth", counted)
        assert proposer._alternating_points(q) is None
        assert 0 < len(sweeps) < proposer.CERTIFY_SWEEPS
        line, segment = certify(p, self.R2)
        assert line.status == segment.status == "violated"
        assert line.certificates[0].count == segment.certificates[0].count == self.N


def test_exceptional_residuals_never_fall_back_to_sturm(monkeypatch):
    """Every E6, E7 and E8 mark, cut in codimension <= 2 by sections of total
    degree <= 3, and its double covers of degree d <= index: 412 cases, all
    holding.  Every even part that reaches the proposer (degree 13 to 53)
    gets alternating points, so no residual here falls back to Sturm."""
    found = proposer._alternating_points
    calls = []

    def spy(q):
        calls.append((q.degree, found(q)))
        return calls[-1][1]

    monkeypatch.setattr(proposer, "_alternating_points", spy)
    cases = 0
    for rank in (6, 7, 8):
        for node in range(1, rank + 1):
            ms = marked("E", rank, node)
            sections = [complete_intersection(ms, list(d))
                        for d in ((), (1,), (2,), (3,), (1, 1), (1, 2))]
            covers = [double_cover(ms, d) for d in range(1, ms.index + 1)]
            for hd in sections + covers:
                assert strip_report(hd).all_applicable_hold, hd.description
                cases += 1
    assert cases == 412
    assert min(n for n, _ in calls) >= verify.ALTERNATION_MIN_DEGREE
    assert max(n for n, _ in calls) == 53
    assert [n for n, points in calls if points is None] == []


class TestStripReport:
    def test_e6_p4(self):
        rep = strip_report(hilbert_gp(marked("E", 6, 4)))
        assert rep.verdicts["TCS"] == "holds"
        assert rep.rational_roots[0][0] == Fraction(-6, 7)
        assert rep.rational_roots[-1][0] == Fraction(-1, 7)
        assert rep.residual_on_line == "not_applicable"
        assert rep.boundary_contact  # roots at both segment endpoints

    def test_projective_space_roots(self):
        for n in (1, 2, 5):
            rep = strip_report(hilbert_gp(marked("A", n, 1)))
            assert [r for r, _ in rep.rational_roots] == [
                Fraction(-j, n + 1) for j in range(n, 0, -1)
            ]
            assert rep.verdicts["TCS"] == "holds"
            assert rep.boundary_contact

    def test_index_one_case(self):
        rep = strip_report(complete_intersection(marked("A", 4, 1), [2, 2]))
        assert rep.index == 1
        assert rep.rational_roots == []
        assert rep.residual_on_line == "certified"
        assert rep.verdicts["TCS"] == "holds" and rep.verdicts["CL"] == "holds"

    def test_segment_dichotomy_case(self):
        # mixed root lengths push a real residual pair off the line but
        # inside the closed strip segment
        rep = strip_report(complete_intersection(marked("C", 4, 2), [1]))
        assert rep.residual_on_line == "violated"
        assert rep.residual_dichotomy == "certified"
        assert rep.verdicts["TCS"] == "holds"
        assert rep.verdicts["CL"] == "fails"

    def test_narrow_strip_edge_for_p1(self):
        # the narrow strip of a curve is empty, so NCS fails at -1/2
        rep = strip_report(hilbert_gp(marked("A", 1, 1)))
        assert rep.verdicts["NCS"] == "fails"
        assert rep.witnesses["NCS"] == "-1/2"

    def test_calabi_yau(self):
        rep = strip_report(complete_intersection(marked("A", 4, 1), [5]))
        assert rep.variety_class == "Calabi-Yau"
        assert rep.verdicts["TCS"] == "not_applicable"
        assert rep.verdicts["CL"] == "holds"
        assert rep.residual_line == 0

    def test_general_type(self):
        rep = strip_report(complete_intersection(marked("A", 2, 1), [5]))
        assert rep.variety_class == "general type"
        assert rep.verdicts["CL"] == "holds"
        assert rep.residual_line == Fraction(1)  # -iota/2 with iota = -2

    def test_residual_without_a_center(self):
        # 1 + z^3 has no symmetry center, so it has no Q_R and no object can
        # carry it; a valid residual of index -1, 5z^2 - 5z + 1, is
        # (5v^2 - 1)/4 in v = 2z - 1, centered at 1/2 but with the real roots
        # 1/2 +- sqrt(1/20) off its line
        assert symmetric_split(P(1, 0, 0, 1)) is None and residual_even([1, 0, 0, 1], -1) is None
        Q_R = symmetric_split(P(1, -5, 5))[1].compose_affine(Fraction(1, 4), 0)
        assert Q_R == P(*residual_even([1, -5, 5], -1)) == P(Fraction(-1, 4), Fraction(5, 4))
        rep = strip_report(HilbertData("off the line", dim=2, index=-1, residual_even=Q_R))
        assert rep.residual_on_line == "violated" and rep.residual_line == Fraction(1, 2)
        assert rep.verdicts["CL"] == "fails"
        assert rep.witnesses["CL"] == "roots off the symmetry line"

    def test_residual_centered_off_minus_half(self):
        # z^2 + 1 with index 3 is 9z^2 + 1 in the anticanonical variable,
        # centered at 0 instead of -1/2: its split finds the center 0, not
        # -iota/2, so it has no Q_R at index 3; a valid residual of index 1,
        # 5z^2 + 5z + 1, is centered at -1/2 but has the real roots
        # -1/2 +- sqrt(1/20) off the line
        assert symmetric_split(P(1, 0, 1))[0] == 0 and residual_even([1, 0, 1], 3) is None
        rep = strip_report(HilbertData("off the line", dim=2, index=1,
                                       residual_even=P(*residual_even([1, 5, 5], 1))))
        assert rep.residual_on_line == "violated" and rep.residual_line == Fraction(-1, 2)
        assert set(rep.verdicts.values()) == {"fails"}
        assert set(rep.witnesses.values()) == {"residual roots escape the certified region"}

    def test_all_applicable_hold(self):
        assert strip_report(hilbert_gp(marked("A", 3, 1))).all_applicable_hold
        assert strip_report(double_cover(marked("A", 1, 1), 2)).all_applicable_hold


def bare_roots(p, digits=10):
    """The advisory block of a bare polynomial (deg >= 1), as `check` builds
    it: from p's one split."""
    return approx_roots(p, digits, symmetric_split(p))


class TestApproxRoots:
    def test_pure_imaginary_pair(self):
        values = bare_roots(P(1, 0, 1))["values"]
        assert [(v["re"], v["im"], v["mult"]) for v in values] == pytest.approx(
            [(0, -1, 1), (0, 1, 1)], abs=1e-9)
        # bisected on exact signs, a pair far closer to the axis than
        # 10^-digits keeps its imaginary part: only circle roots are made real
        values = bare_roots(P(Fraction(1, 10**20), 0, 1), digits=6)["values"]
        assert sorted(v["im"] for v in values) == pytest.approx([-1e-10, 1e-10], rel=1e-6)

    def test_double_root(self):
        values = bare_roots(P(1, 2, 1))["values"]
        assert values == [{"re": -1.0, "im": 0.0, "mult": 2, "residual": 0.0}]

    def test_e6_p4_anticanonical(self):
        # a report's block copies the tables' rational roots exactly; the
        # whole polynomial in z/iota, given bare, repeats its even part's
        # roots, so its square-free parts in u give the same roots and
        # multiplicities
        hd = hilbert_gp(marked("E", 6, 4))
        rep = strip_report(hd)
        exact = rep.rational_roots
        assert sum(m for _, m in exact) == 29
        given = variety_report(hd, rep, 10)["approx_roots"]
        assert given["values"] == [
            {"re": float(r), "im": 0.0, "mult": m, "residual": 0.0} for r, m in exact]
        bare = bare_roots(expand(hd).compose_affine(hd.index, 0))
        assert len(bare["values"]) == len(exact)
        for v, (r, m) in zip(bare["values"], exact):
            assert abs(complex(v["re"], v["im"]) - float(r)) < 1e-8
            assert v["mult"] == m

    def test_agreement_with_exact_verdicts(self):
        # advisory float cross-check: approximate real parts sit on the
        # certified center line
        for poly in (P(1, 1, 1), P(1, 2, 2), P(*iterated_difference(binom_poly(4), [5]))):
            if poly.degree < 1:
                continue
            line = check_line(poly)
            if line.status != "certified":
                continue
            for v in bare_roots(poly)["values"]:
                assert abs(v["re"] - float(line.center)) < 1e-7

    def test_rejects_constants(self):
        with pytest.raises(ValueError, match="need deg >= 1"):
            approx_roots(P(3), 6, None)

    def test_rejects_the_zero_polynomial(self):
        # zero vanishes at every given root, so dividing them out never ends
        for rational in ((), [(Fraction(-1, 2), 1)]):
            with pytest.raises(ValueError, match="need p != 0"):
                approx_roots(P(), 6, None, rational)

    @pytest.mark.parametrize("hd", [
        # Q_R = 1 + (u - 1)^2/64 at index 1: the non-real pair u = 1 +- 8i,
        # so four roots off the line
        HilbertData("a non-real pair", 4, 1, residual_even=P(Fraction(65, 64), Fraction(-1, 32),
                                                             Fraction(1, 64))),
        # Q_R = (3u - 8)^2/16 at index 2, and R = (v/2) Q_R(v^2): the real
        # pair v = +-sqrt(8/3) twice each, and v = 0 once
        HilbertData("a repeated root", 5, 2, residual_even=P(4, -3, Fraction(9, 16))),
    ], ids=["non-real pair", "repeated root"])
    def test_an_even_part_that_does_not_separate_takes_roots_in_u(self, hd, monkeypatch):
        # no signs alternate, so Q_R's square-free parts in u run from
        # circles; each root u gives x = -1/2 +- sqrt(u)/(2 iota), and the
        # block matches sympy's roots of R in z, over iota, root for root
        sympy = pytest.importorskip("sympy")
        calls, digits = [], 10
        monkeypatch.setattr(proposer, "squarefree_parts", lambda p: calls.append(p) or squarefree_parts(p))
        block = variety_report(hd, strip_report(hd), digits)["approx_roots"]
        assert len(calls) == 1 and block["converged"] is True
        got = [complex(v["re"], v["im"]) for v in block["values"] for _ in range(v["mult"])]
        z = sympy.Symbol("z")
        R = sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator) * z**i
                            for i, c in enumerate(hd.residual.coeffs)), sympy.Integer(0)), z)
        want = [complex(sympy.N(r / hd.index, 30)) for r, m in sympy.roots(R).items() for _ in range(m)]
        assert len(got) == len(want) == hd.dim

        def key(x):
            return round(x.real, 6), round(x.imag, 6)

        for x, y in zip(sorted(got, key=key), sorted(want, key=key)):
            assert abs(x - y) <= 10.0**-digits * max(1.0, abs(y)), (x, y)

    def test_rational_roots_add_the_residuals_share(self):
        # on every rank <= 4 mark, its hyperplane and quadric sections and
        # its double cover branched in |2L|: the multiplicities sum to the
        # dimension, and each rational root counts its table factors plus
        # the residual's own zeros there, counted here by derivatives.  First
        # (z + 1)^3 at index 2, whose table root is the centre -1/2, where
        # R = (z + 1)^2 vanishes through the root u = 0 of Q_R = u/4, and
        # ((z + 1)(z + 2))^3/8 at index 3, whose R vanishes twice at each of
        # its table roots -1/3 and -2/3, through Q_R = (u - 1)^2/64
        merged = 0
        cuts = [HilbertData("(z + 1)^3", 3, 2, [LevelTable(1, 1, {1: 1})], P(0, Fraction(1, 4))),
                HilbertData("((z + 1)(z + 2))^3/8", 6, 3, [LevelTable(1, 1, {1: 1, 2: 1})],
                            P(Fraction(1, 64), Fraction(-1, 32), Fraction(1, 64)))]
        for t in all_simple_types(4):
            for node in range(1, t.rank + 1):
                hd = hilbert_gp(marked(t.series, t.rank, node))
                cuts += [hd, section_step(hd, 1, "intersection"), section_step(hd, 2, "intersection"),
                         section_step(hd, 1, "cover")]
        for cut in cuts:
            if cut.index <= 0 or cut.dim < 1:
                continue
            rep = strip_report(cut)
            res = cut.residual.compose_affine(cut.index, 0)
            values = variety_report(cut, rep, 6)["approx_roots"]["values"]
            assert sum(v["mult"] for v in values) == cut.dim, cut.description
            for r, m in rep.rational_roots:
                coeffs, extra = list(res.coeffs), 0
                while coeffs and sum(c * r**i for i, c in enumerate(coeffs)) == 0:
                    coeffs, extra = [i * c for i, c in enumerate(coeffs)][1:], extra + 1
                row = [v["mult"] for v in values if (v["re"], v["im"]) == (float(r), 0.0)]
                assert row == [m + extra], (cut.description, r)
                merged += extra > 0
        assert merged


def test_keys_and_roots_stay_exact():
    """Level-table keys and rational roots are int or Fraction, never float,
    and the roots strip_report reads off its integer tables are the exact
    -k/(l*iota) of every factor, on each rank <= 4 mark, a section and a cover.
    A table rebuilt over an unreduced denominator is the same table."""
    seen_fractional = False
    for t in all_simple_types(4):
        for node in range(1, t.rank + 1):
            hd = hilbert_gp(marked(t.series, t.rank, node))
            for cut in (hd, section_step(hd, 1, "intersection"), section_step(hd, 1, "cover")):
                want = {}
                for table in cut.levels:
                    scaled = {6 * n: h for n, h in table.counts.items()}
                    assert LevelTable(table.level, 6 * table.den, scaled) == table
                    for k, h in table.exponents.items():
                        assert type(k) in (int, Fraction), (cut.description, k)
                        seen_fractional |= Fraction(k).denominator > 1
                        r = Fraction(-k, table.level * cut.index) if cut.index > 0 else None
                        want[r] = want.get(r, 0) + h
                roots = strip_report(cut).rational_roots
                assert all(type(r) in (int, Fraction) for r, _ in roots), cut.description
                if cut.index > 0:
                    assert roots == sorted(want.items()), cut.description
                else:
                    assert roots == []
    assert seen_fractional
