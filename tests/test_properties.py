"""Property tests of the integer kernels against independent references:
the Fraction arithmetic in `oracles` (products, Horner evaluation and
substitution, iterated differences, sign alternation), the Sturm path for
the sign-alternation certificates, and sympy's root counts, gcds and
square-free factorizations (sympy is used only here, never by the package).
A fuzz of the command line checks the exit-code contract."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from canstrip import verify  # noqa: E402
from canstrip.cli import _iter_multidegrees, main  # noqa: E402
from canstrip.hilbert import LevelTable, expand, hilbert_gp, multiply_linear  # noqa: E402
from canstrip.ratpoly import (  # noqa: E402
    ConsistencyError,
    RatPoly,
    _pseudo_divmod,
    _sturm_sequence,
    squarefree_parts,
    sturm_certificate,
    symmetric_split,
)
from canstrip.root_system import all_simple_types, marked  # noqa: E402
from canstrip.varieties import complete_intersection, double_cover, section_step  # noqa: E402
from canstrip.proposer import _alternating_points  # noqa: E402
from canstrip.verify import ALTERNATION_MIN_DEGREE, LineCheck, _certify  # noqa: E402

from oracles import (  # noqa: E402
    alternates,
    cover_sum,
    interleave,
    iterated_difference,
    padd,
    pcompose_affine,
    pdivmod,
    peval,
    pmul,
    pshift,
    psub,
    symmetric_even_part,
    trim,
)
from test_ratpoly import sturm_count  # noqa: E402

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


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists)
def test_mul_matches_convolution(a, b):
    got = RatPoly(tuple(a)) * RatPoly(tuple(b))
    assert list(got.coeffs) == pmul(trim(a), trim(b))


def assert_normal_form(p):
    """Primitive integers with gcd 1 and no trailing zero, times a positive
    content num/den in lowest terms with den >= 1; the zero polynomial is
    ((), 0, 1).  `content` is the Fraction num/den."""
    assert all(type(v) is int for v in (*p.ints, p.num, p.den))
    assert p.den >= 1 and math.gcd(p.num, p.den) == 1
    assert type(p.content) is Fraction and p.content == Fraction(p.num, p.den)
    if not p.ints:
        assert (p.num, p.den) == (0, 1)
    else:
        assert p.num > 0 and p.ints[-1] != 0 and math.gcd(*p.ints) == 1


scalars = st.one_of(st.sampled_from([0, -1, 2, -3, Fraction(-3, 4)]), rationals)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_arithmetic_keeps_the_canonical_form(a, b, s):
    p, q = RatPoly(tuple(a)), RatPoly(tuple(b))
    a, b = trim(a), trim(b)
    cases = [
        (p + q, padd(a, b)),
        (p * q, pmul(a, b)),
        (p * 0, []),
        (p * Fraction(-3, 4), pmul(a, [Fraction(-3, 4)])),
        (p + (-1) * q, psub(a, b)),
        ((-1) * p, psub([], a)),
        (p * s, pmul(a, [Fraction(s)])),
        (s * p, pmul(a, [Fraction(s)])),
        ((p + q) + (-1) * q, a),
    ]
    for got, want in cases:
        ref = RatPoly(tuple(want))
        assert_normal_form(got)
        assert got == ref and hash(got) == hash(ref)
        assert list(got.coeffs) == want


@settings(max_examples=100, deadline=None)
@given(coeff_lists)
def test_coeffs_round_trip_and_fields_are_fixed(a):
    p = RatPoly(tuple(a))
    assert_normal_form(p)
    assert list(p.coeffs) == trim(a)
    back = RatPoly(p.coeffs)
    assert back == p and hash(back) == hash(p) and back.coeffs == p.coeffs
    for name in ("ints", "num", "den", "content", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))


@settings(max_examples=100, deadline=None)
@given(coeff_lists, st.one_of(st.integers(-50, 50), rationals))
def test_exact_evaluation_matches_horner(coeffs, x):
    got = RatPoly(tuple(coeffs))(x)
    assert isinstance(got, Fraction)
    assert got == peval(trim(coeffs), Fraction(x))


@settings(max_examples=150, deadline=None)
@given(coeff_lists, nonzero_rationals, rationals)
def test_compose_affine_matches_horner(coeffs, a, b):
    got = RatPoly(tuple(coeffs)).compose_affine(a, b)
    assert_normal_form(got)
    assert list(got.coeffs) == pcompose_affine(trim(coeffs), a, b)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists.filter(any))
@example([1, 2, 3], [1, -2])  # negative leading coefficient
@example([1, 2, 3], [Fraction(-2, 3)])  # constant divisor
@example([], [1, 1])  # zero dividend
@example([1, 2], [0, 0, -3])  # deg a < deg b
def test_divmod_matches_long_division(a, b):
    p, d = RatPoly(tuple(a)), RatPoly(tuple(b))
    quo, rem = pdivmod(a, b)
    q, r = divmod(p, d)
    assert_normal_form(q)
    assert_normal_form(r)
    assert (list(q.coeffs), list(r.coeffs)) == (quo, rem)
    if rem:
        with pytest.raises(ConsistencyError):
            p.exact_div(d)
    else:
        assert p.exact_div(d) == q
    assert (p * d).exact_div(d) == p


integer_lists = st.lists(st.integers(-(10**6), 10**6), max_size=9)


@settings(max_examples=150, deadline=None)
@given(integer_lists.map(trim), integer_lists.map(trim).filter(bool))
def test_pseudo_divmod_is_an_integer_identity(a, b):
    m, q, r = _pseudo_divmod(a, b)
    assert m > 0 and len(r) < len(b) and (not r or r[-1])
    assert all(type(v) is int for v in q + r)
    assert padd(pmul(q, b), r) == [m * v for v in a]


@st.composite
def symmetry_candidates(draw):
    """A random polynomial, a symmetric one w^eps q(w^2) with w = z - c, or
    a symmetric one with one coefficient below the leading one perturbed."""
    kind = draw(st.sampled_from(["random", "symmetric", "perturbed"]))
    if kind == "random":
        return draw(st.lists(rationals, min_size=1, max_size=8)) + [draw(nonzero_rationals)]
    q = draw(st.lists(rationals, max_size=4)) + [draw(nonzero_rationals)]
    eps = draw(st.integers(0, 1)) if len(q) > 1 else 1
    p = pshift(interleave(q, eps), draw(rationals))
    if kind == "perturbed":
        p[draw(st.integers(0, len(p) - 2))] += draw(nonzero_rationals)
    return p


@settings(max_examples=200, deadline=None)
@given(symmetry_candidates())
def test_symmetric_split_matches_the_reflection_identity(p):
    """One shift decides the symmetry exactly when p(2c - z) = (-1)^n p(z)
    holds, and its even part q rebuilds p as w^eps q(w^2), w = z - c."""
    got = symmetric_split(RatPoly(tuple(p)))
    want = symmetric_even_part(p)
    if want is None:
        assert got is None
        return
    c, q = want
    assert_normal_form(got[1])
    assert got == (c, RatPoly(tuple(q)))
    assert pshift(interleave(q, (len(p) - 1) % 2), c) == p


def as_coeffs(poly):
    """A sympy Poly's coefficients as Fractions, lowest degree first."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(rationals, min_size=0, max_size=6),
    st.lists(rationals, min_size=1, max_size=4).map(trim).filter(bool),
    st.sampled_from([1, -1]),
    st.data(),
)
def test_sturm_count_matches_sympy(sympy, roots, extra, sign, data):
    """Distinct real roots in (lo, hi], with repeated roots drawn and the
    endpoints often on a root, against sympy's count on the square-free part."""
    if roots:
        roots = roots + data.draw(st.lists(st.sampled_from(roots), max_size=3))
    coeffs = trim([sign * c for c in from_roots(roots, extra)])
    assume(len(coeffs) >= 2)
    poly = as_sympy(sympy, coeffs).sqf_part()
    points = st.one_of(st.none(), st.sampled_from(roots) if roots else st.none(), rationals)
    lo, hi = data.draw(points), data.draw(points)
    assume(lo is None or hi is None or lo < hi)
    count = sturm_count(RatPoly(tuple(coeffs)), lo, hi)
    # sympy counts the closed interval [lo, hi]; ours is (lo, hi]
    want = poly.count_roots(
        None if lo is None else sympy.Rational(lo.numerator, lo.denominator),
        None if hi is None else sympy.Rational(hi.numerator, hi.denominator),
    )
    if lo is not None and peval(coeffs, lo) == 0:
        want -= 1
    assert count == want


@st.composite
def even_parts(draw):
    """(q, r2, kind): q of degree >= ALTERNATION_MIN_DEGREE with distinct
    rational roots spread geometrically, mostly negative but a few positive
    on either side of r2, then one more feature: none, a root exactly at 0
    or at r2, a repeated root, or a complex-conjugate pair."""
    r2 = draw(st.sampled_from([Fraction(0), Fraction(1, 36), Fraction(9, 100), Fraction(25, 196)]))
    n = ALTERNATION_MIN_DEGREE + draw(st.integers(0, 6))
    exponents = draw(st.lists(st.integers(-14, 30), min_size=n, max_size=n, unique=True))
    positive = draw(st.sets(st.integers(0, n - 1), max_size=3))
    roots = [
        (1 if i in positive else -1) * Fraction(round(1.25**e * 64) or 1, 64)
        for i, e in enumerate(exponents)
    ]
    assume(len(set(roots)) == n)
    kind = draw(st.sampled_from(["simple", "at 0", "at r2", "repeated", "pair"]))
    extra = [Fraction(1)]
    if kind == "at 0" or (kind == "at r2" and not r2):
        roots.append(Fraction(0))
    elif kind == "at r2":
        roots.append(r2)
    elif kind == "repeated":
        roots.append(draw(st.sampled_from(roots)))
    elif kind == "pair":  # (u - a)^2 + b^2
        a = Fraction(draw(st.integers(-640, 64)), 64)
        b = Fraction(draw(st.integers(1, 64)), 64)
        extra = [a * a + b * b, -2 * a, Fraction(1)]
    return RatPoly(tuple(from_roots(roots, extra))), r2, kind


def sturm_only(p, r2):
    """What _certify returns, built from one Sturm sequence of q alone."""
    center, q = symmetric_split(p)
    chain = _sturm_sequence(q)
    distinct = q.degree - (len(chain[-1]) - 1)
    on_line = sturm_certificate(chain, Fraction(0))
    line = LineCheck("certified" if on_line.count == distinct else "violated", center, [on_line])
    if not r2:
        return line, line
    cert = sturm_certificate(chain, r2)
    status = "certified" if cert.count == distinct else "violated"
    return line, LineCheck(status, center, [cert], cert.count - on_line.count, q(r2) == 0)


@settings(max_examples=60, deadline=None)
@given(even_parts())
def test_alternation_certifies_as_sturm_does(case):
    """The sign-alternation path gives the Sturm path's LineChecks, byte for
    byte: statuses, certificates, segment pairs and boundary contact.  It
    finds alternating points (accepted by the Fraction oracle) for every
    square-free real-rooted q drawn here, and none for a repeated root or a
    complex pair, which fall back to Sturm."""
    q, r2, kind = case
    p = RatPoly(tuple(interleave(list(q.coeffs), 0))).compose_affine(1, Fraction(1, 2))
    assert symmetric_split(p) == (Fraction(-1, 2), q)
    assert _certify(symmetric_split(p), r2) == sturm_only(p, r2)
    points = _alternating_points(q)
    if kind in ("repeated", "pair"):
        assert points is None
    else:
        assert alternates(list(q.coeffs), points)


def chain_gcd(coeffs):
    """The last term of the Sturm sequence, made monic: gcd(p, p')."""
    last = RatPoly(_sturm_sequence(RatPoly(tuple(coeffs)))[-1])
    return last * Fraction(last.den, last.num * last.ints[-1])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=4).map(trim).filter(bool),
    st.lists(rationals, min_size=1, max_size=5).map(trim).filter(bool),
    st.integers(1, 3),
)
def test_poly_gcd_matches_sympy(sympy, common, a, k):
    """gcd(p, p') read off the chain's last term, for p = common^(k+1) * a."""
    p = a
    for _ in range(k + 1):
        p = pmul(p, common)
    assume(len(p) >= 2)
    sp = as_sympy(sympy, p)
    want = sympy.gcd(sp, sp.diff()).monic()
    assert list(chain_gcd(p).coeffs) == as_coeffs(want)


def test_poly_gcd_negative_lead_and_even_degree_drop(sympy):
    # p = (3z^3 - 2)^2 (-z^4 - 3z - 3) has a negative leading coefficient and
    # a chain that drops from degree 9 to 7, after which leading coefficients
    # turn negative: the classical pseudo-remainder multiplier lc^(d + 1) is
    # then negative, and a chain that kept that sign would miscount
    common = [Fraction(-2), Fraction(0), Fraction(0), Fraction(3)]
    p = pmul(pmul(common, common), [Fraction(c) for c in (-3, -3, 0, 0, -1)])
    chain = _sturm_sequence(RatPoly(tuple(p)))
    assert [len(t) - 1 for t in chain] == [10, 9, 7, 6, 5, 4, 3]
    assert any(t[-1] < 0 for t in chain[2:])
    sp = as_sympy(sympy, p)
    assert chain_gcd(p) == RatPoly((Fraction(-2, 3), Fraction(0), Fraction(0), Fraction(1)))
    assert list(chain_gcd(p).coeffs) == as_coeffs(sympy.gcd(sp, sp.diff()).monic())
    for lo, hi in ((None, None), (None, Fraction(0)), (Fraction(0), None)):
        want = sp.sqf_part().count_roots(lo, hi)
        assert sturm_count(RatPoly(tuple(p)), lo, hi) == want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(rationals, min_size=2, max_size=3).map(trim), st.integers(1, 4)),
        min_size=1,
        max_size=3,
    ),
    nonzero_rationals,
)
def test_squarefree_parts_matches_sympy(sympy, factors, scale):
    p = [scale]
    for f, m in factors:
        for _ in range(m):
            p = pmul(p, f)
    assume(len(p) >= 2)
    _, want = as_sympy(sympy, p).sqf_list()
    want = sorted((as_coeffs(f.monic()), m) for f, m in want)
    got = sorted((list(f.coeffs), m) for f, m in squarefree_parts(RatPoly(tuple(p))))
    assert got == want


@pytest.mark.parametrize("sign", [1, -1])
def test_sturm_count_through_an_odd_multiplier(sympy, sign):
    # z^4 + z - 1: the chain is z^4 + z - 1, 4z^3 + 1, -3z/4 + 1, -283/27.
    # The third term drops two degrees and has a negative leading
    # coefficient, so the classical multiplier lc^3 of the next
    # pseudo-remainder is negative; a count with that sign left in reads 0.
    coeffs = [Fraction(sign * c) for c in (-1, 1, 0, 0, 1)]
    p = RatPoly(tuple(coeffs))
    assert len(_sturm_sequence(p)) == 4
    assert sturm_count(p, None, None) == 2 == as_sympy(sympy, coeffs).count_roots()
    assert sturm_count(p, None, Fraction(0)) == 1


linear_tables = st.lists(
    st.tuples(
        st.integers(1, 4),
        st.integers(1, 6),
        st.dictionaries(st.integers(1, 60), st.integers(1, 4), max_size=4),
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(linear_tables)
# the empty product is 1
@example([])
# the coefficient bound prod (l*q + n)^h just below 256 and 256^2 fills one
# and two 8-bit slots; at 256 (z + 1)^8 needs a second slot
@example([(1, 1, {254: 1})])
@example([(1, 1, {2: 1, 4: 1, 16: 1, 256: 1})])
@example([(1, 1, {1: 7})])
@example([(1, 1, {1: 8})])
@example([(2, 3, {4: 2, 5: 1})])
def test_multiply_linear_matches_the_product(specs):
    """The Kronecker-substitution product against the oracle's convolution
    of one factor (l*z + k)/k per unit of exponent, for positive keys over a
    denominator and repeated factors."""
    tables = [LevelTable(level, den, counts) for level, den, counts in specs if counts]
    want = [Fraction(1)]
    for t in tables:
        for k, h in t.exponents.items():
            for _ in range(h):
                want = pmul(want, [Fraction(1), t.level / k])
    assert list(multiply_linear(tables).coeffs) == want


MARKS = [(t.series, t.rank, node) for t in all_simple_types(4) for node in range(1, t.rank + 1)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MARKS),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(1, 8),
)
def test_section_step_matches_iterated_differences(key, degrees, d):
    """Sections and covers, read back from the factored form, against the
    oracle's differences and sums of the expanded polynomial."""
    hd = hilbert_gp(marked(*key))
    H = list(expand(hd).coeffs)
    degrees = degrees[: hd.dim]
    cut = hd
    for e in degrees:
        cut = section_step(cut, e, "intersection")
    assert list(expand(cut).coeffs) == iterated_difference(H, degrees)
    assert (cut.dim, cut.index) == (hd.dim - len(degrees), hd.index - sum(degrees))
    assert list(expand(section_step(hd, d, "cover")).coeffs) == cover_sum(H, d)


@pytest.mark.parametrize("key", MARKS, ids=lambda key: f"{key[0]}{key[1]}/P{key[2]}")
def test_kept_factors_divide_the_common_part_of_the_two_terms(sympy, key):
    """The min rule, against sympy: for both kinds and every d <= 8, the kept
    factors, the product of (l*z + k)^h over the new tables, divide
    gcd(H(z), H(z-d)), and are all of it when the mark has a single level
    (with several, a root -k/l can recur across levels)."""
    hd = hilbert_gp(marked(*key))
    H = as_sympy(sympy, expand(hd).coeffs)
    x = H.gen
    for d in range(1, 9):
        common = sympy.gcd(H, H.shift(-d))
        for kind in ("intersection", "cover"):
            kept = sympy.Poly(1, x, domain="QQ")
            for t in section_step(hd, d, kind).levels:
                for k, h in t.exponents.items():
                    kept *= as_sympy(sympy, [k, Fraction(t.level)]) ** h
            assert common.rem(kept).is_zero, (kind, d)
            if len(hd.levels) == 1:
                assert kept.monic() == common.monic(), (kind, d)


# valid types, the aliases C2 and D3, and types just past a series' rank bounds
SMALL_TYPES = ["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "C2", "D3",
               "A", "E9", "F5", "B1", "Q2", "", "7"]
# mostly valid values, with a bad one now and then
nodes = st.sampled_from(["1", "2", "3", "4"] * 3 + ["0", "-1", "9", "x", "", "1.5"])
degree_text = st.sampled_from(
    ["1", "2", "3", "1,1", "1,2", "2,3", "1,1,2"] * 2 + ["0", "-1,2", "a", ",,", "1,,2"]
)
coeff_text = st.lists(
    st.sampled_from(
        ["1", "2", "-1", "0", "3", "1/2", "-3/4"] * 2
        + ["1e400", "-1e-400", "1e300", "3e-320", "1/0", "q", ""]
    ),
    max_size=5,
).map(",".join)


def _option(name, values, present=1, absent=1):
    """`--name value` in `present` draws out of `present + absent`, else
    nothing, so that required options go missing too."""
    flags = st.sampled_from([True] * present + [False] * absent)
    return st.tuples(flags, values).map(lambda fv: [name, fv[1]] if fv[0] else [])


space = st.tuples(
    _option("--type", st.sampled_from(SMALL_TYPES), present=9),
    _option("--rank", st.sampled_from(["1", "2", "3", "0", "x"]), absent=3),
    _option("--node", nodes, present=9),
)
common = st.tuples(
    _option("--format", st.sampled_from(["text", "json", "csv", "text", "json", "xml"])),
    _option("--digits", st.sampled_from(["0", "-1", "3", "15", "20"]), absent=3),
)
argvs = st.one_of(
    st.tuples(st.just(["gp"]), space, common),
    st.tuples(st.just(["ci"]), space, _option("--degrees", degree_text, present=9), common),
    st.tuples(st.just(["cover"]), space, _option("--degree", nodes, present=9), common),
    st.tuples(st.just(["check"]), _option("--coeffs", coeff_text, present=9), common),
    st.tuples(
        st.just(["sweep"]),
        _option("--series", st.sampled_from(["A", "G", "B,C", "A,G", "A,Z", ""])),
        _option("--max-rank", st.sampled_from(["1", "2", "0", "11"]), present=3),
        _option("--node", nodes),
        _option("--max-total-degree", st.sampled_from(["0", "1", "2", "-1"])),
        _option("--max-codim", st.sampled_from(["1", "2", "-1"])),
        _option("--jobs", st.sampled_from(["1", "1", "0"])),
        common,
    ),
)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _flatten(parts):
    if isinstance(parts, tuple):
        return [arg for part in parts for arg in _flatten(part)]
    return list(parts)


@settings(max_examples=60, deadline=None)
@given(argvs.map(_flatten))
# the two refusals that need two options at once, which random draws rarely meet
@example(["gp", "--type", "A2", "--node", "1", "--digits", "-1", "--format", "csv"])
@example(["ci", "--type", "A1", "--node", "1", "--degrees", "1", "--digits", "0"])
def test_cli_exit_codes_are_total(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if "--digits" in argv and int(argv[argv.index("--digits") + 1]) < 1:
        assert code == 2, argv
    assert "Traceback" not in err.getvalue()
    if code == 2 and err.getvalue().startswith("error:"):
        assert err.getvalue().count("\n") == 1
    if code != 2 and "json" in argv:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)  # strict RFC 8259


def rank4_objects():
    """Every section (codim <= 3, total degree <= index + 3) and every double
    cover (d <= 2 * index + 2) of the marks of rank <= 4."""
    for t in all_simple_types(4):
        for node in range(1, t.rank + 1):
            ms = marked(t.series, t.rank, node)
            for degrees in _iter_multidegrees(ms.index + 3, min(3, ms.dim)):
                if degrees:
                    yield complete_intersection(ms, list(degrees))
            for d in range(1, 2 * ms.index + 3):
                yield double_cover(ms, d)


def test_strip_report_matches_the_anticanonical_even_part(sympy, monkeypatch):
    # the report certifies the residual's split in L; sympy's counts of the
    # roots of the anticanonical even part, in z/iota, read the same
    seen, kept = set(), []
    certify = verify._certify

    def spy(found, radius2):
        kept[:] = certify(found, radius2)
        return kept

    monkeypatch.setattr(verify, "_certify", spy)
    for hd in rank4_objects():
        iota, R = hd.index, list(hd.residual.coeffs)
        rep = verify.strip_report(hd)
        if len(R) < 2:
            assert rep.residual_on_line == rep.residual_dichotomy == "not_applicable"
            assert rep.certificates == [] and rep.residual_line is None
            continue
        center, q = symmetric_even_part(pcompose_affine(R, iota, 0) if iota > 0 else R)
        r2 = Fraction(iota - 2, 2 * iota) ** 2 if iota > 2 else Fraction(0)
        assert rep.residual_line == center == (Fraction(-1, 2) if iota > 0 else Fraction(-iota, 2))
        on_line = in_segment = distinct = 0
        if len(q) > 1:
            Q = as_sympy(sympy, q).sqf_part()
            on_line, in_segment, distinct = Q.count_roots(None, 0), Q.count_roots(None, r2), Q.degree()
            [cert] = rep.certificates
            assert (cert.hi, cert.count) == (r2, in_segment)
        else:  # a constant even part: both checks hold with nothing to count
            assert rep.certificates == []
        assert rep.residual_on_line == ("certified" if on_line == distinct else "violated")
        assert rep.residual_dichotomy == ("certified" if in_segment == distinct else "violated")
        assert kept[1].segment_pairs == in_segment - on_line
        if iota > 0:
            ends = (Fraction(1 - iota, iota), Fraction(-1, iota))
            touch = any(r in ends for r, _ in rep.rational_roots)
            assert rep.boundary_contact == (touch or r2 > 0 and peval(q, r2) == 0)
        seen.add((iota, kept[1].segment_pairs > 0, hd.description))
    # no segment at iota 1 and 2; an odd iota > 2 has the bound (iota - 2)^2/4
    # with denominator 4 in L; C4/P2 ∩ (1) has a real pair in its segment
    assert {1, 2, 3} <= {i for i, _, _ in seen}
    assert (6, True, "C4/P2 ∩ (1)") in seen
