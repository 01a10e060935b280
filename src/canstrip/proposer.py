"""The double-precision root proposer: points and approximations, no verdicts.

`_aberth` runs the Ehrlich-Aberth iteration in doubles; `_alternating_points`
turns its real iterates into dyadic points and keeps them only when q's
exact signs alternate there, so a proposal that fails costs time and never
a verdict.  `verify` imports this module only when an even part reaches
`verify.ALTERNATION_MIN_DEGREE`, and `cli` only for the advisory `--digits`
roots (`approx_roots`), so a run that never proposes never loads float code.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .ratpoly import RatPoly, _scaled_value, _sign, squarefree_parts

# decimal digits a double carries; advisory approximations aim no finer
DOUBLE_DIGITS = sys.float_info.dig
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


def _split(x: Fraction) -> tuple[float, int]:
    """(m, f) with x = m * 2^f, f even and |m| < 4 a double, so that x and its
    square root are m * 2^f and sqrt(m) * 2^(f/2) at any size of x."""
    n, d = x.numerator, x.denominator
    f = (n.bit_length() - d.bit_length()) & ~1
    return (n << -f) / d if f < 0 else n / (d << f), f


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, saturating to +-inf where it would overflow."""
    return math.copysign(math.inf, x) if x and math.frexp(x)[1] + e > 1024 else math.ldexp(x, e)


def _balanced(ints: Sequence[int]) -> tuple[dict[int, float], int, list[tuple[float, float]]]:
    """log2 |ints[i]| for ints[i] != 0, the shift s balancing their Newton
    polygon, and the terms (c_i, |c_i|), top degree first, of sum ints[i] z^i
    in y = z / 2^s: doubles c_i = ints[i] * 2^(s*i - t), the largest about 1."""
    n = len(ints) - 1
    logs = {i: math.log2(abs(c)) for i, c in enumerate(ints) if c}
    lo = min(logs)
    shift = round((logs[lo] - logs[n]) / (n - lo)) if n > lo else 0
    top = round(max(v + shift * i for i, v in logs.items()))
    cs = [math.ldexp(m, f + shift * i - top) for i, (m, f) in enumerate(map(_split, ints))]
    return logs, shift, [(c, abs(c)) for c in reversed(cs)]


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

    Returns a shift s and a generator of sweeps.  The iteration runs on
    `_balanced` coefficients in y = z / 2^s, so coefficients and roots of any
    size fit.  It starts on the Newton polygon (Bini, Numer. Algorithms 13,
    1996), whose hull edge from k to l holds l - k roots of about one radius.
    By default the starts are real, at the radii of the polygon weighted by
    REAL_START_WEIGHT: as many of an edge's roots as its coefficients change
    sign (Descartes' rule) start on the positive side, the rest on the
    negative, spread over one octave.  The whole iteration then runs in real
    doubles.  With circles=True the starts lie on the plain polygon's circles,
    as non-real roots need.  It evaluates through the reversed polynomial when
    |y| > 1, so no power of an iterate overflows.  After each sweep it yields
    the iterates (the same list, updated in place) and the size |dy| of each
    iterate's last step.  An iterate whose value is within the rounding error
    of its evaluation is as good as doubles allow: it takes that last step and
    is then frozen, keeping the step as its uncertainty.  The generator ends
    once every iterate is frozen, or, from real starts, after STALL_SWEEPS
    sweeps in a row that freeze none; the caller may stop it sooner.
    """
    n = len(ints) - 1
    logs, shift, terms = _balanced(ints)
    lo = min(logs)
    rev = terms[::-1]  # the reversed polynomial's terms, top degree first
    if circles:
        # imported here: only the advisory --digits roots start on circles
        import cmath
    else:
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


def _scaled(y: complex, e: int, k: int = 1) -> complex:
    """y * 2^e / k, part by part, so that an infinite part makes no NaN."""
    return complex(_ldexp(y.real, e) / k, _ldexp(y.imag, e) / k)


def approx_roots(p: RatPoly, digits: int, found: Optional[tuple[Fraction, RatPoly]],
                 rational: Sequence[tuple[Fraction, int]] = (), index: int = 0) -> dict:
    """The advisory block of p's roots.  `found` is p's split (c, q),
    p = w^eps * q(w^2) in w = z - c (`symmetric_split`), or None for a p with
    no center.  With index > 0, p is a report's residual R, `found` is
    (-1/2, Q_R) in u = (2z + index)^2, roots are in x = z/index, and each
    table root r < c in `rational` where R vanishes takes, with its mirror
    2c - r, one more per exact division of Q_R by its u.  The centre takes
    eps plus two per root u = 0; each other root u gives c +- sqrt(u) (over
    2 index), bisected on exact signs (`_bisect`) where q alternates, else
    from each square-free part's circle-started `_aberth` (as for a p with
    no center), run until every relative step is at most 10^-digits, its
    iterates freeze or APPROX_SWEEPS sweeps pass (converged if all settle).
    A row's residual is |p(z)| / sum |c_i z^i| at z = index * x on the
    `_balanced` doubles: 0 for a rational root, None if not a finite double."""
    if digits < 1 or not p or p.degree < 1 and not rational:
        raise ValueError("need digits >= 1" if digits < 1 else "need deg >= 1" if p else "need p != 0")
    digits = min(digits, DOUBLE_DIGITS)
    tol = 10.0**-digits
    k, t = (2 * index, index) if index > 0 else (1, 1)  # x = c +- sqrt(u)/k, and z = t*x
    exact, converged, roots = dict(rational), True, []
    (c, q), eps, zeros, points = found or (0, p), p.degree % 2, 0, None
    if found is not None:
        for r in [r for r in exact if r < c]:
            u = (k * (r - c)) ** 2
            while not q(u):  # R vanishes at r and at its mirror 2c - r
                q = q.exact_div(RatPoly((-u, 1)))
                exact[r], exact[2 * c - r] = exact[r] + 1, exact[2 * c - r] + 1
        zeros = next(i for i, a in enumerate(q.ints) if a)  # q's roots u = 0, at x = c
        q = RatPoly(q.coeffs[zeros:])
        points = _alternating_points(q) if q.degree >= 1 else []
    x = _ldexp(*_split(c))
    if points is not None:  # q's simple roots u = m * 2^f, bisected on exact signs
        us = [(*_split(_bisect(q.ints, a, b, digits)), 1) for a, b in zip(points, points[1:])]
    else:
        us = []
        for f, mult in squarefree_parts(q):
            shift, sweeps = _aberth(f.ints, circles=True)
            for _, (ys, steps) in zip(range(APPROX_SWEEPS), sweeps):
                if settled := all(s <= tol * abs(y) for y, s in zip(ys, steps)):
                    break
            converged &= settled
            us += [(y, shift, mult) for y in ys]
    # imported here: only the advisory roots take complex square roots
    import cmath

    for y, e, mult in us:  # the root u = y * 2^e of q, or of a p with no center
        if found:  # u gives x +- sqrt(u)/k
            w = _scaled(cmath.sqrt(_scaled(y, e % 2)), e // 2, k)
            zs = (x + w, x - w)
        else:
            zs = (_scaled(y, e),)
        for z in zs:  # a root from circles within 10^-digits of the real axis is real
            roots.append((z.real if points is None and abs(z.imag) < tol * max(1.0, abs(z)) else z, mult))
    if c in exact:
        exact[c] += eps + 2 * zeros
    elif found and (eps or zeros):
        roots.append((x, eps + 2 * zeros))
    rows = [(complex(r), m, 0.0) for r, m in exact.items()]
    _, shift, terms = _balanced(p.ints)
    for z, m in roots:
        y = _scaled(complex(z.real * t, z.imag * t), -shift)
        v, _, e = _horner(terms, y) if abs(y) <= 1 else _horner(terms[::-1], 1 / y)
        rows.append((complex(z), m, abs(v) / e if e else 0.0))
    values = [{"re": _finite(z.real), "im": _finite(z.imag), "mult": m, "residual": _finite(e)}
              for z, m, e in sorted(rows, key=lambda r: (round(r[0].real, 9), round(r[0].imag, 9)))]
    return {"advisory": True, "converged": converged, "digits": digits, "values": values}
