"""Certification of the strip and line hypotheses with exact witnesses.

Verdicts are decided only by exact rational roots read off the factored form
and by root counts on the residual's even part: exact signs alternating at
points that floats proposed, or else a Sturm sequence.  A float only ever
proposes points or displays approximations, and never feeds a verdict.

With w = z - center, a symmetric polynomial is w^eps * q(w^2), and a root of
q at u corresponds to roots center +- sqrt(u).  So "all roots on the vertical
line" means q has only real roots u <= 0, and "on the line or real within
distance r of the center" means q has only real roots u <= r^2.  Both are
exact counts of q's roots on (-oo, 0] and (-oo, r^2].
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Optional, Sequence

from .hilbert import HilbertData, expand
from .ratpoly import (
    ConsistencyError,
    RatPoly,
    SturmCertificate,
    _scaled_value,
    _sign,
    _sturm_sequence,
    squarefree_parts,
    sturm_certificate,
    symmetric_split,
)

# decimal digits a double carries; advisory approximations aim no finer
DOUBLE_DIGITS = sys.float_info.dig
# even parts below this degree go straight to their Sturm chain, which is
# cheaper there than proposing and checking points.  On W5's even parts (rank
# <= 8, codim <= 2, total degree <= index + 1, and the covers d <= index),
# with both certificates, Sturm costs 0.93x alternation at degree 12, 1.06x
# at 13 and 3.2x at 20.
ALTERNATION_MIN_DEGREE = 13
# sweeps of the float proposer before a residual falls back to Sturm, and
# before the advisory roots are reported as not converged
CERTIFY_SWEEPS = 60
APPROX_SWEEPS = 500
# real iterates that freeze none of their number in this many sweeps in a
# row are chasing a root off the axis, and give up; no proposal that
# separated on the rank <= 10 analogue of W5 waited more than 3 sweeps
STALL_SWEEPS = 8
# real starts sit at the radii of the Newton polygon of log2|a_i| less this
# weight times log2 C(n, i).  The plain polygon's radii overshoot the outer
# roots of a real-rooted polynomial whose roots crowd, and a start beyond a
# neighbour's root reaches its own only across that one, where it may
# freeze.  On W5's 957 even parts of degree >= 22, weight 0 lost 18 to
# Sturm; 0.3 lost none and separated 939 of them in two sweeps.
REAL_START_WEIGHT = 0.3


class LineCheck(NamedTuple):
    """Outcome of localizing all roots to a line, or a line plus a segment."""

    status: str  # "certified" | "violated" | "not_applicable"
    center: Optional[Fraction]
    certificates: Sequence[SturmCertificate] = ()
    # roots strictly off the line but real and within the allowed radius
    segment_pairs: int = 0
    segment_boundary: bool = False


def _certify(p: RatPoly, radius2: Fraction) -> tuple[LineCheck, LineCheck]:
    """Certify all roots of p on its symmetry line and, second, on the line
    or real at squared distance up to radius2 from the center.

    One Taylor shift to the center decides the symmetry and gives the even
    part q (`symmetric_split`, which raises on the zero polynomial); a p
    with no center violates both checks, with center None.  Each check holds
    exactly when q's count of distinct roots on (-oo, x] (x = 0, then
    radius2) reaches all of its distinct roots.  From degree
    ALTERNATION_MIN_DEGREE on, exact signs alternating at n + 1 points prove
    that q's n roots are real and simple, which fixes its Sturm certificates
    without building the chain (`_alternation_certificate`).  Otherwise, or
    when no such points are found, one Sturm sequence of q serves both
    counts: its last term is gcd(q, q'), so q has deg q - deg(last) distinct
    roots.  For radius2 = 0 the two checks coincide and the same object is
    returned twice.
    """
    found = symmetric_split(p) if p.degree else None
    if found is None:  # a constant, or no symmetry center
        line = LineCheck("violated" if p.degree else "not_applicable", None)
        return line, line
    center, q = found
    if q.degree < 1:
        line = LineCheck("certified", center)
        return line, line
    points = _alternating_points(q) if q.degree >= ALTERNATION_MIN_DEGREE else None
    if points is None:
        chain = _sturm_sequence(q)
        distinct = q.degree - (len(chain[-1]) - 1)

        def certificate(x: Fraction) -> SturmCertificate:
            return sturm_certificate(chain, x)

    else:
        distinct = q.degree

        def certificate(x: Fraction) -> SturmCertificate:
            return _alternation_certificate(q, points, x)

    on_line = certificate(Fraction(0))
    line = LineCheck(
        "certified" if on_line.count == distinct else "violated", center, [on_line]
    )
    if radius2 <= 0:
        return line, line
    cert = certificate(radius2)
    status = "certified" if cert.count == distinct else "violated"
    pairs = cert.count - on_line.count
    return line, LineCheck(status, center, [cert], pairs, q(radius2) == 0)


def _alternating_points(q: RatPoly) -> Optional[list[Fraction]]:
    """n + 1 dyadic points p_0 < ... < p_n at which q, of degree n, takes
    strictly alternating non-zero signs, or None.

    The points are proposed in doubles, from `_aberth`'s real starts.  Its
    sweeps run until each iterate's uncertainty, its distance |Im y| from
    the real axis plus its last step, is under a quarter of the gap to
    either neighbour's real part.  They give up after CERTIFY_SWEEPS, or
    sooner when the iteration ends without such a separation: every iterate
    frozen (two merging, say), or a stall, the mark of a root off the axis,
    which real iterates can never reach.  The real parts, exact integers
    over one power of two, then get the multiple of 2^k nearest the middle
    of each two neighbours, for the largest 2^k at most half their gap, and
    a power of two beyond either end.  Only exact signs decide: q's sign at
    each point is an integer Horner evaluation (`_scaled_value`) on q's
    coefficients shifted once for the points' shared power of two, and
    must be sign(lead) * (-1)^(n - k) at p_k, the sign q has left of all
    its roots, flipped once per gap.
    """
    n = q.degree
    shift, sweeps = _aberth(q.ints)
    for sweep, (ys, steps) in enumerate(sweeps, 1):
        # each iterate with its uncertainty |Im y| + |dy|, by real part
        spots = sorted((y.real, abs(y.imag) + s) for y, s in zip(ys, steps))
        if all(math.isfinite(x) and math.isfinite(r) for x, r in spots) and all(
            4 * max(r, t) < b - a for (a, r), (b, t) in zip(spots, spots[1:])
        ):
            break
        if sweep == CERTIFY_SWEEPS:
            return None
    else:  # the iteration ended unseparated
        return None
    # every real part, and every middle between two, over 2^bits
    ratios = [x.as_integer_ratio() for x, _ in spots]
    bits = max(d.bit_length() for _, d in ratios)
    xs = [a << (bits + 1 - d.bit_length()) for a, d in ratios]
    end = 1 << (math.frexp(max(-spots[0][0], spots[-1][0]))[1] + 1 + bits)
    cuts = [-end]
    for a, b in zip(xs, xs[1:]):
        k = (b - a).bit_length() - 2
        cuts.append((a + b + (1 << k)) >> (k + 1) << k)
    cuts.append(end)
    e = shift - bits  # p_k = cuts[k] * 2^e
    scaled = [c << (e * i if e >= 0 else -e * (n - i)) for i, c in enumerate(q.ints)]
    lead = _sign(q.ints[-1])
    for k, c in enumerate(cuts):
        if _sign(_scaled_value(scaled, c)) != lead * (-1) ** (n - k):
            return None
    scale = Fraction(2) ** e
    return [c * scale for c in cuts]


def _alternation_certificate(q: RatPoly, points: list[Fraction], x: Fraction) -> SturmCertificate:
    """sturm_certificate(_sturm_sequence(q), x), read off the points
    at which q's signs alternate (`_alternating_points`).

    Alternation gives q a root in each of the n gaps between the n + 1
    points, so q of degree n has n simple real roots.  Its Sturm chain then
    counts n roots with at most one variation per term, so it has exactly
    n + 1 terms, n variations at -oo and none at +oo.  The count c on
    (-oo, x] is the number of gaps wholly left of x, plus one when x lies
    in a gap and the exact sign of q(x) is no longer q's sign at the gap's
    left end (a root exactly at x counts); so the certificate is
    (x, n + 1, n, n - c, c).
    """
    n = len(points) - 1
    j = bisect_right(points, x)  # p_0 .. p_(j-1) are <= x
    count = max(j - 1, 0)
    if 0 < j <= n and _sign(_scaled_value(q.ints, x)) != _sign(q.ints[-1]) * (-1) ** (n - j + 1):
        count += 1  # q(x) has left the sign of q(p_(j-1)): the root is at or left of x
    return SturmCertificate(x, n + 1, n, n - count, count)


def check_line(p: RatPoly) -> LineCheck:
    """Certify that every root of p lies on its own vertical symmetry line.

    The center comes from `symmetric_split`; without one the check is
    violated, with center None.  The roots lie on the line Re(z) = center iff
    the even-part polynomial has only real non-positive roots, which exact
    root counts decide.
    """
    return _certify(p, Fraction(0))[0]


class ApproxRoot(NamedTuple):
    value: complex
    multiplicity: int
    residual: float
    converged: bool


def _double(c: int, e: int) -> float:
    """c * 2^e as a double, for an integer c of any size (0.0 on underflow)."""
    extra = max(c.bit_length() - 64, 0)
    return math.ldexp(float(c >> extra), e + extra)


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, saturating to +-inf when it overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _horner(terms: list[tuple[float, float]], y: complex) -> tuple[complex, complex, float]:
    """The value and the derivative at y of sum c_i y^i, and the sum of
    |c_i| |y|^i, which bounds the rounding error of the value over eps;
    `terms` holds the pairs (c_i, |c_i|) from the top degree down.  A real
    y keeps the whole evaluation in real doubles."""
    (c, a), *rest = terms
    p, d, e, r = c, 0.0, a, abs(y)
    for c, a in rest:
        d = d * y + p
        p = p * y + c
        e = e * r + a
    return p, d, e


def _aberth(ints: Sequence[int], circles: bool = False) -> tuple[int, Iterator[tuple[list, list[float]]]]:
    """Ehrlich-Aberth iteration in doubles on the roots of sum ints[i] z^i.

    Returns a shift s and a generator of sweeps.  The iteration
    runs on y = z / 2^s, where s balances the Newton polygon of (i, log2
    |ints[i]|), with coefficients ints[i] * 2^(s*i - t) as doubles (t makes
    the largest about 1), so coefficients and roots of any size fit.  It
    starts on the polygon (Bini, Numer. Algorithms 13, 1996), whose hull
    edge from k to l holds l - k roots of about one radius.  By default the
    starts are real, at the radii of the polygon weighted by
    REAL_START_WEIGHT: as many of an edge's roots as its coefficients change
    sign (Descartes' rule) start on the positive side, the rest on the
    negative, spread over one octave.  The whole iteration then runs in
    real doubles.  With circles=True the starts lie on the plain polygon's
    circles, as non-real roots need.  It evaluates through the reversed
    polynomial when |y| > 1, so no power of an iterate overflows.  After
    each sweep it yields the iterates (the same list, updated in place) and
    the size |dy| of each iterate's last step.  An iterate whose value is
    within the rounding error of its evaluation is as good as doubles
    allow: it takes that last step and is then frozen, keeping the step as
    its uncertainty.  The generator ends once every iterate is frozen, or,
    from real starts, after STALL_SWEEPS sweeps in a row that freeze none;
    the caller may stop it sooner.
    """
    n = len(ints) - 1
    logs = {i: math.log2(abs(c)) for i, c in enumerate(ints) if c}
    lo = min(logs)
    shift = round((logs[lo] - logs[n]) / (n - lo)) if n > lo else 0
    top = round(max(v + shift * i for i, v in logs.items()))
    cs = [_double(c, shift * i - top) for i, c in enumerate(ints)]
    terms = [(c, abs(c)) for c in reversed(cs)]
    rev = terms[::-1]  # the reversed polynomial's terms, top degree first
    if not circles:
        logs = {i: v - REAL_START_WEIGHT * math.log2(math.comb(n, i)) for i, v in logs.items()}
    # upper convex hull of the Newton polygon: each edge (k, l) holds l - k
    # roots of log2-modulus about (L_k - L_l)/(l - k), less the shift
    hull: list[int] = []
    for i in sorted(logs):
        while len(hull) > 1 and (logs[hull[-1]] - logs[hull[-2]]) * (i - hull[-1]) <= (
            logs[i] - logs[hull[-1]]
        ) * (hull[-1] - hull[-2]):
            hull.pop()
        hull.append(i)
    ys: list = []
    for k, l in zip(hull, hull[1:]):
        rho = (logs[k] - logs[l]) / (l - k) - shift
        if circles:
            radius = math.ldexp(1.0, max(-1000, min(1000, round(rho))))
            ys += [radius * cmath.exp(1j * (2 * math.pi * (j / (l - k) + k / n) + 0.7))
                   for j in range(l - k)]
            continue
        signs = [c > 0 for c in ints[k : l + 1] if c]
        up = sum([a != b for a, b in zip(signs, signs[1:])])
        for side, m in ((-1.0, l - k - up), (1.0, up)):
            ys += [side * 2.0 ** max(-1000.0, min(1000.0, rho + (j + 0.5) / m - 0.5))
                   for j in range(m)]
    # roots at 0 (a zero constant term) start just inside the smallest radius
    small = min((abs(y) for y in ys), default=1.0) / 1024
    if circles:
        ys = [small * cmath.exp(1j * (2 * math.pi * j / lo + 0.4)) for j in range(lo)] + ys
    else:
        ys = [small * (j - (lo - 1) / 2) for j in range(lo)] + ys

    def sweeps():
        steps = [0.0] * n
        live, idle = range(n), 0
        while live and (circles or idle < STALL_SWEEPS):
            still = []
            for i in live:
                y = ys[i]
                try:
                    if abs(y) <= 1:
                        p, d, e = _horner(terms, y)
                        w = p / d
                    else:
                        x = 1 / y
                        p, d, e = _horner(rev, x)
                        w = y * p / (n * p - x * d)
                    s = sum([1 / (y - v) for v in ys[:i]]) + sum([1 / (y - v) for v in ys[i + 1 :]])
                    step = w / (1 - w * s)
                except (ZeroDivisionError, OverflowError):  # two equal iterates, say
                    p, e, step = math.nan, 0.0, y * 2.0**-20 + 2.0**-40
                ys[i] = y - step
                steps[i] = abs(step)
                if not abs(p) <= sys.float_info.epsilon * e:  # a NaN stays live
                    still.append(i)
            idle = idle + 1 if len(still) == len(live) else 0
            live = still
            yield ys, steps

    return shift, sweeps()


def approx_roots(p: RatPoly, digits: int = 12) -> list[ApproxRoot]:
    """Float approximations of all roots, with multiplicities and residuals.

    Multiplicities come from the exact square-free decomposition; each
    square-free factor runs the Ehrlich-Aberth sweeps of `_aberth` until
    every relative step is at most 10^-digits (digits at most
    DOUBLE_DIGITS), or until its iterates freeze or APPROX_SWEEPS sweeps
    pass; unsettled iterates are kept, marked not converged.  A root or a
    residual too large for a double reads inf.  Advisory only: nothing here
    certifies anything.
    """
    if p.degree < 1:
        raise ValueError("need deg >= 1")
    if digits < 1:
        raise ValueError("need digits >= 1")
    digits = min(digits, DOUBLE_DIGITS)
    tol = 10.0 ** (-digits)
    try:
        pc = [(c, abs(c)) for c in map(float, reversed(p.coeffs))]
    except OverflowError:
        pc = None
    out = []
    for f, mult in squarefree_parts(p):
        shift, sweeps = _aberth(f.ints, circles=True)
        for _, (ys, steps) in zip(range(APPROX_SWEEPS), sweeps):
            converged = all(s <= tol * abs(y) for y, s in zip(ys, steps))
            if converged:
                break
        for y in ys:
            z = complex(_ldexp(y.real, shift), _ldexp(y.imag, shift))
            if abs(z.imag) < tol * max(1.0, abs(z)):
                z = complex(z.real, 0.0)
            try:
                residual = abs(_horner(pc, z)[0]) if pc else math.inf
            except OverflowError:
                residual = math.inf
            out.append(ApproxRoot(z, mult, residual, converged))
    out.sort(key=lambda r: (round(r.value.real, 9), round(r.value.imag, 9)))
    return out


class StripReport(NamedTuple):
    """Verdicts for the strip/line hypotheses of one Hilbert polynomial."""

    description: str
    dim: int
    index: int
    variety_class: str  # "Fano" | "Calabi-Yau" | "general type"
    rational_roots: list[tuple[Fraction, int]]  # anticanonical variable
    residual_variable: str  # variable the residual was checked in
    residual_line: Optional[Fraction]  # its symmetry center
    residual_on_line: str  # "certified" | "violated" | "not_applicable"
    residual_dichotomy: str  # line-or-segment verdict, same vocabulary
    certificates: list[SturmCertificate]
    verdicts: dict[str, str]  # hypothesis -> holds | fails | not_applicable
    witnesses: dict[str, str]  # hypothesis -> offending root, when it fails
    boundary_contact: bool

    @property
    def all_applicable_hold(self) -> bool:
        """The class-appropriate claim: TCS for Fano, CL otherwise."""
        key = "TCS" if self.index > 0 else "CL"
        return self.verdicts[key] != "fails"


def _class_of(index: int) -> str:
    if index > 0:
        return "Fano"
    return "Calabi-Yau" if index == 0 else "general type"


def strip_report(hd: HilbertData) -> StripReport:
    """Extract exact rational roots, certify the residual, decide verdicts.

    For a positive index, every level factor (l*z + k) contributes the
    anticanonical root -k/(l*iota) with its table multiplicity, and the
    residual is certified on the line Re(z) = -1/2, allowing real pairs
    inside the closed strip segment (the tight-strip dichotomy; the allowance
    degenerates to the bare line for iota 1 and 2).  For iota <= 0 the whole
    polynomial sits in the residual and only the line hypothesis applies,
    about the polynomial's own symmetry center in the L-variable.
    """
    iota = hd.index
    roots: dict[int, int] = {}
    if iota > 0:
        # the root -k/(l*iota) of a factor (l*z + k), k = n/q, is -n*(D/(l*q*iota))
        # over one denominator D for every table, so roots compare as integers
        D = iota * lcm(*(t.level * t.den for t in hd.levels))
        for table in hd.levels:
            step = D // (table.level * table.den * iota)
            for n, h in table.counts.items():
                roots[-n * step] = roots.get(-n * step, 0) + h
        res = hd.residual.compose_affine(iota, 0)
        if sum(roots.values()) + max(res.degree, 0) != hd.dim:
            raise ConsistencyError(
                f"{hd.description}: rational multiplicities plus residual degree "
                f"miss the dimension {hd.dim}"
            )
        # the squared half-width of the tight segment, (1/2 - 1/iota)^2
        radius2 = Fraction((iota - 2) ** 2, 4 * iota**2) if iota > 2 else Fraction(0)
    else:
        D, res, radius2 = 1, expand(hd), Fraction(0)
    numerators = sorted(roots)
    line, dichotomy = _certify(res, radius2)
    if iota > 0 and line.status != "not_applicable" and line.center != Fraction(-1, 2):
        line = dichotomy = LineCheck("violated", line.center)
    res_roots = res.degree >= 1
    verdicts: dict[str, str] = {}
    witnesses: dict[str, str] = {}

    def decide(name: str, root_ok, residual_status: str, res_inside: bool) -> None:
        if residual_status == "violated":
            verdicts[name] = "fails"
            witnesses[name] = (
                "residual roots escape the certified region" if iota > 0
                else "roots off the symmetry line"
            )
            return
        if res_roots and not res_inside:
            verdicts[name] = "fails"
            witnesses[name] = "residual roots fall outside the strip"
            return
        bad = next((r for r in numerators if not root_ok(r)), None)
        if bad is None:
            verdicts[name] = "holds"
        else:
            verdicts[name] = "fails"
            witnesses[name] = str(Fraction(bad, D))

    if iota > 0:
        lo, hi = D // iota - D, -D // iota  # the tight strip [-1 + 1/iota, -1/iota]
        boundary = any(r in (lo, hi) for r in numerators) or dichotomy.segment_boundary
        # the narrow strip is (-1 + 1/m, -1/m) with m = dim + 1; certified
        # residual roots sit on the center line -1/2, inside it when m > 2,
        # plus (under the dichotomy) real pairs in the closed tight segment
        m = hd.dim + 1
        res_in_narrow = m > 2 and (dichotomy.segment_pairs == 0 or iota < m)
        decide("CS", lambda r: -D < r < 0, dichotomy.status, True)
        decide("NCS", lambda r: D - m * D < m * r < -D, dichotomy.status, res_in_narrow)
        decide("TCS", lambda r: lo <= r <= hi, dichotomy.status, True)
    else:
        boundary = False
        verdicts.update(dict.fromkeys(("CS", "NCS", "TCS"), "not_applicable"))
    decide("CL", lambda r: 2 * r == -D, line.status, True)

    return StripReport(
        description=hd.description,
        dim=hd.dim,
        index=iota,
        variety_class=_class_of(iota),
        rational_roots=[(Fraction(r, D), roots[r]) for r in numerators],
        residual_variable="anticanonical" if iota > 0 else "ample_generator",
        residual_line=line.center,
        residual_on_line=line.status,
        residual_dichotomy=dichotomy.status,
        certificates=list(dichotomy.certificates),
        verdicts=verdicts,
        witnesses=witnesses,
        boundary_contact=boundary,
    )
