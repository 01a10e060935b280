"""Certification of the strip and line hypotheses with exact witnesses.

Verdicts are decided only by exact rational roots read off the factored form
and by Sturm certificates on the residual's even part.  Floating-point root
approximations are available for display and cross-checking, and never feed
a verdict.

With w = z - center, a symmetric polynomial is w^eps * q(w^2), and a root of
q at u corresponds to roots center +- sqrt(u).  So "all roots on the vertical
line" means q has only real roots u <= 0, and "on the line or real within
distance r of the center" means q has only real roots u <= r^2.  Both are
exact Sturm counts.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .hilbert import HilbertData, expand
from .ratpoly import (
    ConsistencyError,
    RatPoly,
    SturmCertificate,
    _sturm_sequence,
    squarefree_parts,
    sturm_certificate,
    symmetric_split,
)

# decimal digits a double carries; advisory approximations aim no finer
DOUBLE_DIGITS = sys.float_info.dig


@dataclass
class LineCheck:
    """Outcome of localizing all roots to a line, or a line plus a segment."""

    status: str  # "certified" | "violated" | "not_applicable"
    center: Optional[Fraction]
    certificates: list[SturmCertificate] = field(default_factory=list)
    # roots strictly off the line but real and within the allowed radius
    segment_pairs: int = 0
    segment_boundary: bool = False


def _certify(p: RatPoly, radius2: Fraction) -> tuple[LineCheck, LineCheck]:
    """Certify all roots of p on its symmetry line and, second, on the line
    or real at squared distance up to radius2 from the center.

    One Taylor shift to the center decides the symmetry and gives the even
    part q (`symmetric_split`), and one Sturm sequence of q serves both
    counts.  Its last term is gcd(q, q'), so q has deg q - deg(last)
    distinct roots, and each check holds exactly when the count on (-oo, x]
    (x = 0, then radius2) reaches that number.  For radius2 = 0 the two
    checks coincide and the same object is returned twice.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        line = LineCheck("not_applicable", None)
        return line, line
    found = symmetric_split(p)
    if found is None:
        raise ValueError("polynomial has no symmetry center")
    center, q = found
    if q.degree < 1:
        line = LineCheck("certified", center)
        return line, line
    chain = _sturm_sequence(q)
    distinct = q.degree - (len(chain[-1]) - 1)
    on_line = sturm_certificate(chain, None, Fraction(0))
    line = LineCheck(
        "certified" if on_line.count == distinct else "violated", center, [on_line]
    )
    if radius2 <= 0:
        return line, line
    cert = sturm_certificate(chain, None, radius2)
    status = "certified" if cert.count == distinct else "violated"
    pairs = cert.count - on_line.count
    return line, LineCheck(status, center, [cert], pairs, q(radius2) == 0)


def check_line(p: RatPoly) -> LineCheck:
    """Certify that every root of p lies on its own vertical symmetry line.

    The center comes from `symmetric_split` (a ValueError if there is none);
    the roots lie on the line Re(z) = center iff the even-part polynomial has
    only real non-positive roots, which Sturm counts decide exactly.
    """
    return _certify(p, Fraction(0))[0]


@dataclass
class ApproxRoot:
    value: complex
    multiplicity: int
    residual: float
    converged: bool


def _floats(p: RatPoly) -> Optional[list[float]]:
    """p's coefficients as doubles, or None when one of them overflows."""
    try:
        return [float(c) for c in p.coeffs]
    except OverflowError:
        return None


def _horner(cs: list[float], z: complex) -> complex:
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _abs_value(cs: Optional[list[float]], z: complex) -> float:
    """|p(z)| from p's doubles `cs`; inf when a coefficient or the value
    does not fit a double."""
    if cs is None:
        return float("inf")
    try:
        return abs(_horner(cs, z))
    except OverflowError:
        return float("inf")


def _aberth(f: RatPoly, digits: int) -> tuple[list[complex], bool]:
    """Simultaneous (Ehrlich-Aberth) iteration on a square-free polynomial.

    Returns the iterates and whether they settled to `digits` digits; after
    the last restart, or when the doubles overflow, the unsettled iterates
    are returned as they stand.  A factor whose monic coefficients do not
    fit a double has no iterates and reports NaN.
    """
    n = f.degree
    fm = f.monic()
    fc, dc = _floats(fm), _floats(fm.derivative())
    if fc is None or dc is None:
        return [complex("nan+nanj")] * n, False
    radius = 1.0 + max(abs(c) for c in fc[:-1]) if n else 1.0
    tol = 10.0 ** (-digits)
    for attempt in range(5):
        r = radius * (1.0 + 0.7 * attempt)
        zs = [
            r * cmath.exp(2j * cmath.pi * (k + 0.354 + 0.1 * attempt) / n)
            for k in range(n)
        ]
        try:
            for _ in range(400):
                moved = 0.0
                for i in range(n):
                    fv = _horner(fc, zs[i])
                    dv = _horner(dc, zs[i])
                    if dv == 0:
                        zs[i] += 1e-6 + 1e-6j
                        moved = float("inf")
                        continue
                    w = fv / dv
                    s = sum(1.0 / (zs[i] - zs[j]) for j in range(n) if j != i)
                    denom = 1.0 - w * s
                    step = w if denom == 0 else w / denom
                    zs[i] -= step
                    moved = max(moved, abs(step) / max(1.0, abs(zs[i])))
                if moved < tol:
                    return zs, all(cmath.isfinite(z) for z in zs)
        except (OverflowError, ZeroDivisionError):  # iterates left the doubles
            return zs, False
    return zs, False


def approx_roots(p: RatPoly, digits: int = 12) -> list[ApproxRoot]:
    """Float approximations of all roots, with multiplicities and residuals.

    Multiplicities come from the exact square-free decomposition; each
    square-free factor is handled by Ehrlich-Aberth iteration, aiming at
    `digits` digits but at most DOUBLE_DIGITS.  A factor whose iteration does
    not settle keeps its last iterates, marked not converged; a residual
    too large for a double reads inf.  Advisory only: nothing here
    certifies anything.
    """
    if p.degree < 1:
        raise ValueError("need deg >= 1")
    if digits < 1:
        raise ValueError("need digits >= 1")
    digits = min(digits, DOUBLE_DIGITS)
    pc = _floats(p)
    out = []
    for f, mult in squarefree_parts(p):
        zs, converged = _aberth(f, digits)
        for z in zs:
            if abs(z.imag) < 10.0 ** (-digits):
                z = complex(z.real, 0.0)
            out.append(ApproxRoot(z, mult, _abs_value(pc, z), converged))
    out.sort(key=lambda r: (round(r.value.real, 9), round(r.value.imag, 9)))
    return out


@dataclass
class StripReport:
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
    try:
        line, dichotomy = _certify(res, radius2)
    except ValueError:
        line = dichotomy = LineCheck("violated", None)
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
        certificates=dichotomy.certificates,
        verdicts=verdicts,
        witnesses=witnesses,
        boundary_contact=boundary,
    )
