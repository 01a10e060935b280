"""Certification of the strip and line hypotheses with exact witnesses.

Verdicts are decided only by exact rational roots read off the factored form
and by root counts on the residual's even part: exact signs alternating at
points that floats proposed, or else a Sturm sequence.  A float only ever
proposes points or displays approximations, and never feeds a verdict: the
double-precision proposer is its own module, `proposer`, imported only when
an even part reaches ALTERNATION_MIN_DEGREE or advisory roots are asked for.

With w = z - center, a symmetric polynomial is w^eps * q(w^2) (for a
report's residual, q is the carried Q_R in u = 4w^2), and a root u of q gives
roots center +- sqrt(u).  So "all roots on the vertical line" means q has
only real roots u <= 0, and "on the line or real within distance r of the
center" means only real roots u <= r^2: exact counts on (-oo, 0], (-oo, r^2].
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .hilbert import HilbertData
from .ratpoly import (
    RatPoly,
    SturmCertificate,
    _scaled_value,
    _sign,
    _sturm_sequence,
    squarefree_parts,
    sturm_certificate,
    symmetric_split,
)

# even parts below this degree go straight to their Sturm chain, which is
# cheaper there than proposing and checking points.  On W5's even parts (rank
# <= 8, codim <= 2, total degree <= index + 1, and the covers d <= index),
# with both certificates, Sturm costs 0.93x alternation at degree 12, 1.06x
# at 13 and 3.2x at 20.
ALTERNATION_MIN_DEGREE = 13
_HALF = Fraction(-1, 2)  # a positive-index residual's center -iota/2, anticanonically


class LineCheck(NamedTuple):
    """Outcome of localizing all roots to a line, or a line plus a segment."""

    status: str  # "certified" | "violated" | "not_applicable"
    center: Optional[Fraction]
    certificates: Sequence[SturmCertificate] = ()
    # roots strictly off the line but real and within the allowed radius
    segment_pairs: int = 0
    segment_boundary: bool = False


def _certify(found: Optional[tuple[Fraction, RatPoly]], radius2: int) -> tuple[LineCheck, LineCheck]:
    """Certify all roots of p (deg p >= 1) on its symmetry line and, second,
    on the line or real at squared distance up to radius2 from the center.

    `found` is p's split (center, q), p = w^eps * q(w^2) with w = z - center,
    up to a positive rescale of w; None, for a p with no center, violates
    both checks, with center None.  Each check holds
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
    if found is None:
        line = LineCheck("violated", None)
        return line, line
    center, q = found
    if q.degree < 1:
        line = LineCheck("certified", center)
        return line, line
    points = None
    if q.degree >= ALTERNATION_MIN_DEGREE:
        # imported here: only an even part this large runs the float proposer
        from . import proposer

        points = proposer._alternating_points(q)
    if points is None:
        chain = _sturm_sequence(q)
        distinct = q.degree - (len(chain[-1]) - 1)
        certificate = partial(sturm_certificate, chain)
    else:
        distinct = q.degree
        certificate = partial(_alternation_certificate, q, points)
    on_line = certificate(0)
    line = LineCheck(
        "certified" if on_line.count == distinct else "violated", center, [on_line]
    )
    if radius2 <= 0:
        return line, line
    cert = certificate(radius2)
    status = "certified" if cert.count == distinct else "violated"
    pairs = cert.count - on_line.count
    return line, LineCheck(status, center, [cert], pairs, not _scaled_value(q.ints, radius2))


def _alternation_certificate(q: RatPoly, points: list[Fraction], x: Fraction) -> SturmCertificate:
    """sturm_certificate(_sturm_sequence(q), x), read off the points
    at which q's signs alternate (`proposer._alternating_points`).

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

    The center comes from `symmetric_split`, which raises on the zero
    polynomial; without one the check is violated, with center None.  The
    roots lie on the line Re(z) = center iff the even-part polynomial has
    only real non-positive roots, which exact root counts decide.
    """
    if not p.degree:  # a constant
        return LineCheck("not_applicable", None)
    return _certify(symmetric_split(p), 0)[0]


def _finite(x: float) -> Optional[float]:
    """x, or None (JSON null) for a NaN or an infinity, which JSON cannot hold."""
    return x if math.isfinite(x) else None


def _bisect(ints: Sequence[int], a: Fraction, b: Fraction, digits: int) -> Fraction:
    """The root of q = sum ints[i] u^i between dyadics a < b of opposite exact
    signs, bisected (on integers over 2^k) to a relative width of 10^-digits,
    then one secant step, exact on a linear q.  A root at 0, which no relative
    width reaches, is tried first and returned exactly."""
    n, k = len(ints) - 1, max(a.denominator, b.denominator).bit_length() - 1
    A, B = int(a * 2**k), int(b * 2**k)
    fa, fb = (_scaled_value([c << k * (n - i) for i, c in enumerate(ints)], x) for x in (A, B))
    while (B - A) * 10**digits > min(abs(A), abs(B)):
        M, k = (0 if A < 0 < B else A + B), k + 1
        fm = _scaled_value([c << k * (n - i) for i, c in enumerate(ints)], M)  # 2^(k*n) q(M/2^k)
        if not fm:
            return Fraction(M, 1 << k)
        if (fm > 0) == (fa > 0):
            A, fa, B, fb = M, fm, 2 * B, fb << n
        else:
            A, fa, B, fb = 2 * A, fa << n, M, fm
    return Fraction(A * fb - B * fa, (fb - fa) << k)


def approx_roots(p: RatPoly, digits: int = 12, rational: Sequence[tuple[Fraction, int]] = ()) -> dict:
    """The advisory block of the roots of p * prod (z - r)^m over `rational`,
    exact roots (a report's, with p its residual) that keep their m plus one
    per exact division of p by z - r.  When p = w^eps * q(w^2), w = z - c,
    and q's signs alternate (`proposer._alternating_points`), p's roots are
    c +- sqrt(u) for q's simple roots u (`_bisect`), and c with multiplicity
    eps + 2*[q(0) = 0].  Otherwise each of p's `squarefree_parts` runs the
    circle-started `proposer._aberth` until every relative step is at most
    10^-digits (digits <= DOUBLE_DIGITS), or its iterates freeze, or
    APPROX_SWEEPS sweeps pass; the block is converged if all settled.  A residual is
    |p(z)| / sum |c_i z^i| on the `_balanced` doubles (0 for a rational root);
    a value that is no finite double is None.  Advisory only."""
    if digits < 1 or not p or p.degree < 1 and not rational:
        raise ValueError("need digits >= 1" if digits < 1 else "need deg >= 1" if p else "need p != 0")
    # imported here: the advisory roots are proposed in doubles
    from .proposer import (APPROX_SWEEPS, DOUBLE_DIGITS, _aberth, _alternating_points, _balanced,
                           _horner, _ldexp, _split)

    digits = min(digits, DOUBLE_DIGITS)
    exact = dict(rational)
    for r in exact:
        while not p(r):
            p, exact[r] = p.exact_div(RatPoly((-r, 1))), exact[r] + 1
    converged, points, roots = True, None, []
    if p.degree >= 1 and (found := symmetric_split(p)):
        center, q = found
        points = _alternating_points(q) if q.degree >= 1 else []
    if points is not None:
        c = _ldexp(*_split(center))
        for u in (_bisect(q.ints, a, b, digits) for a, b in zip(points, points[1:])):
            m, f = _split(abs(u))
            s = _ldexp(math.sqrt(m), f // 2)
            w = complex(0, s) if u < 0 else s  # the root c + w of p and its mirror c - w
            roots += [(c + w, 1), (c - w, 1)] if u else []
        if p.degree % 2 or not q.ints[0]:  # c is a root of p
            roots.append((c, p.degree % 2 + 2 * (not q.ints[0])))
    elif p.degree >= 1:
        for f, mult in squarefree_parts(p):
            shift, sweeps = _aberth(f.ints, circles=True)
            for _, (ys, steps) in zip(range(APPROX_SWEEPS), sweeps):
                if settled := all(s <= 10.0**-digits * abs(y) for y, s in zip(ys, steps)):
                    break
            converged &= settled
            for y in ys:
                z = complex(_ldexp(y.real, shift), _ldexp(y.imag, shift))
                roots.append((z.real if abs(z.imag) < 10.0**-digits * max(1.0, abs(z)) else z, mult))
    rows = [(complex(r), m, 0.0) for r, m in exact.items()]
    _, shift, terms = _balanced(p.ints)
    for z, m in roots:
        y = complex(_ldexp(z.real, -shift), _ldexp(z.imag, -shift))
        v, _, e = _horner(terms, y) if abs(y) <= 1 else _horner(terms[::-1], 1 / y)
        rows.append((complex(z), m, abs(v) / e if e else 0.0))
    values = [{"re": _finite(z.real), "im": _finite(z.imag), "mult": m, "residual": _finite(e)}
              for z, m, e in sorted(rows, key=lambda r: (round(r[0].real, 9), round(r[0].imag, 9)))]
    return {"advisory": True, "converged": converged, "digits": digits, "values": values}


class StripReport(NamedTuple):
    """Verdicts for the strip/line hypotheses of one Hilbert polynomial."""

    description: str
    dim: int
    index: int
    variety_class: str  # "Fano" | "Calabi-Yau" | "general type"
    root_den: int  # the rational roots' one denominator D
    root_numerators: list[tuple[int, int]]  # (D * root, multiplicity), increasing
    residual_variable: str  # variable the residual was checked in
    residual_line: Optional[Fraction]  # its symmetry center
    residual_on_line: str  # "certified" | "violated" | "not_applicable"
    residual_dichotomy: str  # line-or-segment verdict, same vocabulary
    certificates: list[SturmCertificate]
    verdicts: dict[str, str]  # hypothesis -> holds | fails | not_applicable
    witnesses: dict[str, str]  # hypothesis -> offending root, when it fails
    boundary_contact: bool

    @property
    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """The exact roots in the anticanonical variable with their
        multiplicities, in increasing order, built as Fractions on each read."""
        return [(Fraction(n, self.root_den), h) for n, h in self.root_numerators]

    @property
    def all_applicable_hold(self) -> bool:
        """The class-appropriate claim: TCS for Fano, CL otherwise."""
        key = "TCS" if self.index > 0 else "CL"
        return self.verdicts[key] != "fails"


def strip_report(hd: HilbertData) -> StripReport:
    """Extract exact rational roots, certify the residual, decide verdicts.

    The residual R is symmetric about -iota/2 by construction, and its even
    part Q_R in u = (2z + iota)^2 is certified as it stands.  For a positive
    index, every level factor (l*z + k) contributes the anticanonical root
    -k/(l*iota) with its table multiplicity, and R's real pairs may fill the
    closed tight segment (the tight-strip dichotomy; none for iota 1 and 2),
    of squared half-width (1/2 - 1/iota)^2 in z/iota and (iota - 2)^2 in u:
    a positive rescale, which changes no count, so the report prints the
    center -1/2 and each certificate's bound over 4 iota^2.  For iota <= 0,
    (S) admits no table: R is the whole polynomial, and only the line
    hypothesis applies, about -iota/2.
    """
    iota = hd.index
    D, radius2, scale = 1, 0, 1
    roots: dict[int, int] = {}
    if iota > 0:
        # the root -k/(l*iota) of a factor (l*z + k), k = n/q, is -n*(D/(l*q*iota))
        # over one denominator D for every table, so roots compare as integers
        D = iota * lcm(*(t.level * t.den for t in hd.levels))
        for table in hd.levels:
            step = D // (table.level * table.den * iota)
            for n, h in table.counts.items():
                roots[-n * step] = roots.get(-n * step, 0) + h
        # the squared half-width of the tight segment in u, (iota - 2)^2
        radius2, scale = (iota - 2) ** 2 if iota > 2 else 0, 4 * iota**2
    numerators = sorted(roots)
    res_roots = hd.dim > sum(roots.values())  # deg R >= 1
    line = dichotomy = LineCheck("not_applicable", None)
    if res_roots:
        line, dichotomy = _certify((_HALF if iota > 0 else Fraction(-iota, 2), hd.residual_even), radius2)
    # (S) pairs each table root r with -D - r, and each region below is an interval
    # about -D/2 (for CL, that point): every root lies in it exactly when the smallest,
    # r0, does, and a failing r0 is the first failure in increasing order.
    r0 = numerators[0] if numerators else None  # with no table root every test passes
    verdicts = dict.fromkeys(("CS", "NCS", "TCS"), "not_applicable")
    rules = {"CL": (line.status, True, r0 is None or 2 * r0 == -D)}  # name -> (status, inside, r0 ok)
    boundary = False
    if iota > 0:
        lo, m = D // iota - D, hd.dim + 1  # the tight strip [lo, -D - lo] is [-1 + 1/iota, -1/iota]
        boundary = lo in roots or dichotomy.segment_boundary
        # the narrow strip is (-1 + 1/m, -1/m); certified residual roots sit on the
        # center line -1/2, inside it when m > 2, plus (under the dichotomy) real
        # pairs in the closed tight segment
        res_in_narrow = m > 2 and (dichotomy.segment_pairs == 0 or iota < m)
        rules = {"CS": (dichotomy.status, True, r0 is None or -D < r0),
                 "NCS": (dichotomy.status, res_in_narrow, r0 is None or D - m * D < m * r0),
                 "TCS": (dichotomy.status, True, r0 is None or lo <= r0), **rules}
    escape = "residual roots escape the certified region" if iota > 0 else "roots off the symmetry line"
    witnesses: dict[str, str] = {}
    for name, (status, inside, r0_ok) in rules.items():
        if status == "violated":
            witnesses[name] = escape
        elif res_roots and not inside:
            witnesses[name] = "residual roots fall outside the strip"
        elif not r0_ok:
            witnesses[name] = str(Fraction(r0, D))
        verdicts[name] = "fails" if name in witnesses else "holds"

    return StripReport(
        description=hd.description,
        dim=hd.dim,
        index=iota,
        variety_class="Fano" if iota > 0 else "Calabi-Yau" if iota == 0 else "general type",
        root_den=D,
        root_numerators=[(r, roots[r]) for r in numerators],
        residual_variable="anticanonical" if iota > 0 else "ample_generator",
        residual_line=line.center,
        residual_on_line=line.status,
        residual_dichotomy=dichotomy.status,
        certificates=[c._replace(hi=Fraction(c.hi, scale)) for c in dichotomy.certificates],
        verdicts=verdicts,
        witnesses=witnesses,
        boundary_contact=boundary,
    )
