"""Property tests of the integer certification kernels against independent
references: the Fraction Horner substitution in `oracles`, and sympy's root
counts and gcds (sympy is used only here, never by the package)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from canstrip.ratpoly import RatPoly, poly_gcd, sturm_count  # noqa: E402

from oracles import pcompose_affine, peval, pmul, trim  # noqa: E402

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
nonzero_rationals = rationals.filter(lambda x: x != 0)
coeff_lists = st.lists(rationals, min_size=0, max_size=9)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def as_sympy(sympy, coeffs):
    x = sympy.Symbol("x")
    terms = [sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs)]
    return sympy.Poly(sum(terms, sympy.Integer(0)), x, domain="QQ")


def from_roots(roots, extra):
    """prod (z - r) times an extra factor, as a Fraction list."""
    p = [Fraction(1)]
    for r in roots:
        p = pmul(p, [-r, Fraction(1)])
    return pmul(p, extra)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, nonzero_rationals, rationals)
def test_compose_affine_matches_horner(coeffs, a, b):
    got = RatPoly(tuple(coeffs)).compose_affine(a, b)
    assert list(got.coeffs) == pcompose_affine(trim(coeffs), a, b)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(rationals, min_size=0, max_size=6, unique=True),
    st.lists(rationals, min_size=1, max_size=4).map(trim).filter(bool),
    st.sampled_from([1, -1]),
    st.data(),
)
def test_sturm_count_matches_sympy(sympy, roots, extra, sign, data):
    coeffs = trim([sign * c for c in from_roots(roots, extra)])
    assume(len(coeffs) >= 2)
    poly = as_sympy(sympy, coeffs)
    assume(poly.is_sqf)
    points = st.one_of(st.none(), st.sampled_from(roots) if roots else st.none(), rationals)
    lo, hi = data.draw(points), data.draw(points)
    assume(lo is None or hi is None or lo < hi)
    cert = sturm_count(RatPoly(tuple(coeffs)), lo, hi)
    # sympy counts the closed interval [lo, hi]; ours is (lo, hi]
    want = poly.count_roots(
        None if lo is None else sympy.Rational(lo.numerator, lo.denominator),
        None if hi is None else sympy.Rational(hi.numerator, hi.denominator),
    )
    if lo is not None and peval(coeffs, lo) == 0:
        want -= 1
    assert cert.count == want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=5).map(trim).filter(bool),
    st.lists(rationals, min_size=1, max_size=6).map(trim).filter(bool),
    st.lists(rationals, min_size=1, max_size=6).map(trim).filter(bool),
)
def test_poly_gcd_matches_sympy(sympy, common, a, b):
    p, q = pmul(common, a), pmul(common, b)
    want = sympy.gcd(as_sympy(sympy, p), as_sympy(sympy, q)).monic()
    got = poly_gcd(RatPoly(tuple(p)), RatPoly(tuple(q)))
    assert [sympy.Rational(c.numerator, c.denominator) for c in got.coeffs] == list(
        reversed(want.all_coeffs())
    )


def test_poly_gcd_negative_lead_and_even_degree_drop(sympy):
    # deg 6 against deg 4 with a negative leading coefficient: the classical
    # pseudo-remainder multiplier lc^(6 - 4 + 1) is negative here
    common = [Fraction(-2), Fraction(0), Fraction(3)]
    p = pmul(common, [Fraction(1), Fraction(-1, 3), Fraction(2), Fraction(0), Fraction(-5)])
    q = pmul(common, [Fraction(7), Fraction(-3), Fraction(-1)])
    want = sympy.gcd(as_sympy(sympy, p), as_sympy(sympy, q)).monic()
    got = poly_gcd(RatPoly(tuple(p)), RatPoly(tuple(q)))
    assert got == RatPoly((Fraction(-2, 3), Fraction(0), Fraction(1)))
    assert [sympy.Rational(c.numerator, c.denominator) for c in got.coeffs] == list(
        reversed(want.all_coeffs())
    )


@pytest.mark.parametrize("sign", [1, -1])
def test_sturm_count_through_an_odd_multiplier(sympy, sign):
    # z^4 + z - 1: the chain is z^4 + z - 1, 4z^3 + 1, -3z/4 + 1, -283/27.
    # The third term drops two degrees and has a negative leading
    # coefficient, so the classical multiplier lc^3 of the next
    # pseudo-remainder is negative; a count with that sign left in reads 0.
    coeffs = [Fraction(sign * c) for c in (-1, 1, 0, 0, 1)]
    cert = sturm_count(RatPoly(tuple(coeffs)), None, None)
    assert cert.chain_length == 4
    assert cert.count == 2 == as_sympy(sympy, coeffs).count_roots()
    assert sturm_count(RatPoly(tuple(coeffs)), None, Fraction(0)).count == 1
