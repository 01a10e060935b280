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
from typing import Optional

from .hilbert import HilbertData, expand
from .ratpoly import (
    ConsistencyError,
    RatPoly,
    SturmCertificate,
    even_odd_split,
    squarefree_parts,
    sturm_certificate,
    sturm_chains,
    symmetry_center,
)

HYPOTHESES = ("CS", "NCS", "TCS", "CL")
# decimal digits a double carries; advisory approximations aim no finer
DOUBLE_DIGITS = sys.float_info.dig


@dataclass
class LineCheck:
    """Outcome of localizing all roots to a line, or a line plus a segment."""

    status: str  # "certified" | "violated" | "not_applicable"
    center: Optional[Fraction]
    sign: Optional[int]
    certificates: list[SturmCertificate] = field(default_factory=list)
    # roots strictly off the line but real and within the allowed radius
    segment_pairs: int = 0
    segment_boundary: bool = False


def _certify(p: RatPoly, radius2: Fraction) -> tuple[LineCheck, LineCheck]:
    """Certify all roots of p on its symmetry line and, second, on the line
    or real at squared distance up to radius2 from the center.

    The center, the even part and its square-free factors are computed once,
    and one Sturm chain per factor (see `sturm_chains`) serves both counts.
    For radius2 = 0 the two checks coincide and the same object is returned
    twice.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        line = LineCheck("not_applicable", None, None)
        return line, line
    found = symmetry_center(p)
    if found is None:
        raise ValueError("polynomial has no symmetry center")
    center, sign = found
    _, q = even_odd_split(p, center)
    if q.degree < 1:
        line = LineCheck("certified", center, sign)
        return line, line
    line_certs, segment_certs = [], []
    line_ok = segment_ok = True
    pairs = 0
    boundary = False
    for f, chain in sturm_chains(q):
        on_line = sturm_certificate(chain, None, Fraction(0))
        line_certs.append(on_line)
        line_ok = line_ok and on_line.count == f.degree
        if radius2 > 0:
            cert = sturm_certificate(chain, None, radius2)
            segment_certs.append(cert)
            segment_ok = segment_ok and cert.count == f.degree
            pairs += cert.count - on_line.count
            if f(radius2) == 0:
                boundary = True
    line = LineCheck("certified" if line_ok else "violated", center, sign, line_certs)
    if radius2 <= 0:
        return line, line
    segment = LineCheck(
        "certified" if segment_ok else "violated", center, sign, segment_certs, pairs, boundary
    )
    return line, segment


def check_line(p: RatPoly) -> LineCheck:
    """Certify that every root of p lies on its own vertical symmetry line.

    The center comes from `symmetry_center` (a ValueError if there is none);
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


def _aberth(f: RatPoly, digits: int) -> tuple[list[complex], bool]:
    """Simultaneous (Ehrlich-Aberth) iteration on a square-free polynomial.

    Returns the iterates and whether they settled to `digits` digits; after
    the last restart the unsettled iterates are returned as they stand.
    """
    n = f.degree
    fm = f.monic()
    df = fm.derivative()
    radius = 1.0 + max(abs(float(c)) for c in fm.coeffs[:-1]) if n else 1.0
    tol = 10.0 ** (-digits)
    for attempt in range(5):
        r = radius * (1.0 + 0.7 * attempt)
        zs = [
            r * cmath.exp(2j * cmath.pi * (k + 0.354 + 0.1 * attempt) / n)
            for k in range(n)
        ]
        for _ in range(400):
            moved = 0.0
            for i in range(n):
                fv = fm(zs[i])
                dv = df(zs[i])
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
                return zs, True
    return zs, False


def approx_roots(p: RatPoly, digits: int = 12) -> list[ApproxRoot]:
    """Float approximations of all roots, with multiplicities and residuals.

    Multiplicities come from the exact square-free decomposition; each
    square-free factor is handled by Ehrlich-Aberth iteration, aiming at
    `digits` digits but at most DOUBLE_DIGITS.  A factor whose iteration does
    not settle keeps its last iterates, marked not converged.  Advisory
    only: nothing here certifies anything.
    """
    if p.degree < 1:
        raise ValueError("need deg >= 1")
    if digits < 1:
        raise ValueError("need digits >= 1")
    digits = min(digits, DOUBLE_DIGITS)
    out = []
    for f, mult in squarefree_parts(p):
        zs, converged = _aberth(f, digits)
        for z in zs:
            if abs(z.imag) < 10.0 ** (-digits):
                z = complex(z.real, 0.0)
            out.append(ApproxRoot(z, mult, abs(p(z)), converged))
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
    approx: Optional[list[ApproxRoot]] = None

    @property
    def all_applicable_hold(self) -> bool:
        """The class-appropriate claim: TCS for Fano, CL otherwise."""
        key = "TCS" if self.index > 0 else "CL"
        return self.verdicts[key] != "fails"


def _class_of(index: int) -> str:
    if index > 0:
        return "Fano"
    return "Calabi-Yau" if index == 0 else "general type"


def strip_report(hd: HilbertData, digits: Optional[int] = None) -> StripReport:
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
    verdicts: dict[str, str] = {}
    witnesses: dict[str, str] = {}

    if iota > 0:
        roots: dict[Fraction, int] = {}
        for table in hd.levels:
            for k, h in table.sorted_items():
                r = -k / (table.level * iota)
                roots[r] = roots.get(r, 0) + h
        rational = sorted(roots.items())

        res = hd.residual.compose_affine(iota, 0)
        if sum(m for _, m in rational) + max(res.degree, 0) != hd.dim:
            raise ConsistencyError(
                f"{hd.description}: rational multiplicities plus residual degree "
                f"miss the dimension {hd.dim}"
            )
        half_width = Fraction(1, 2) - Fraction(1, iota)
        radius2 = half_width**2 if half_width > 0 else Fraction(0)
        try:
            line, dichotomy = _certify(res, radius2)
        except ValueError:
            line = dichotomy = LineCheck("violated", None, None)
        if line.status != "not_applicable" and line.center != Fraction(-1, 2):
            line = dichotomy = LineCheck("violated", line.center, line.sign)
        res_roots = res.degree >= 1

        lo, hi = Fraction(-1) + Fraction(1, iota), Fraction(-1, iota)
        boundary = any(r in (lo, hi) for r, _ in rational) or dichotomy.segment_boundary

        def decide(name: str, root_ok, residual_status: str, res_inside: bool) -> None:
            if residual_status == "violated":
                verdicts[name] = "fails"
                witnesses[name] = "residual roots escape the certified region"
                return
            if res_roots and not res_inside:
                verdicts[name] = "fails"
                witnesses[name] = "residual roots fall outside the strip"
                return
            bad = next((r for r, _ in rational if not root_ok(r)), None)
            if bad is None:
                verdicts[name] = "holds"
            else:
                verdicts[name] = "fails"
                witnesses[name] = str(bad)

        half = Fraction(-1, 2)
        narrow = Fraction(1, hd.dim + 1)
        # where certified residual roots can sit: on the center line, plus
        # (under the dichotomy) real pairs in the closed tight segment
        res_in_narrow = (-1 + narrow < half < -narrow) and (
            dichotomy.segment_pairs == 0 or iota < hd.dim + 1
        )

        decide("CS", lambda r: -1 < r < 0, dichotomy.status, True)
        decide("NCS", lambda r: -1 + narrow < r < -narrow, dichotomy.status, res_in_narrow)
        decide("TCS", lambda r: lo <= r <= hi, dichotomy.status, True)
        decide("CL", lambda r: r == half, line.status, True)

        report = StripReport(
            description=hd.description,
            dim=hd.dim,
            index=iota,
            variety_class=_class_of(iota),
            rational_roots=rational,
            residual_variable="anticanonical",
            residual_line=line.center,
            residual_on_line=line.status,
            residual_dichotomy=dichotomy.status,
            certificates=dichotomy.certificates,
            verdicts=verdicts,
            witnesses=witnesses,
            boundary_contact=boundary,
        )
    else:
        res = expand(hd)
        try:
            line = check_line(res)
        except ValueError:
            line = LineCheck("violated", None, None)
        for name in ("CS", "NCS", "TCS"):
            verdicts[name] = "not_applicable"
        if line.status == "violated":
            verdicts["CL"] = "fails"
            witnesses["CL"] = "roots off the symmetry line"
        else:
            verdicts["CL"] = "holds"
        report = StripReport(
            description=hd.description,
            dim=hd.dim,
            index=iota,
            variety_class=_class_of(iota),
            rational_roots=[],
            residual_variable="ample_generator",
            residual_line=line.center,
            residual_on_line=line.status,
            residual_dichotomy=line.status,
            certificates=line.certificates,
            verdicts=verdicts,
            witnesses=witnesses,
            boundary_contact=False,
        )

    if digits is not None:
        poly = expand(hd, "anticanonical" if iota > 0 else "ample_generator")
        if poly.degree >= 1:
            report.approx = approx_roots(poly, digits)
    return report
