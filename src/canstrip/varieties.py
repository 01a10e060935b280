"""Hyperplane sections, double covers, and abelian complete intersections.

A hypersurface section of degree d turns H(z) into H(z) - H(z-d); the
double cover branched in |2dL| gives H(z) + H(z-d).  Both keep the factors
that divide H(z) and H(z-d), by the min rule on the level tables, and the
residual is the exact quotient by them, asserted on every step.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .hilbert import HilbertData, LevelTable, _at, _carrying, hilbert_gp, multiply_linear
from .ratpoly import ConsistencyError, RatPoly, Record, _from_integer
from .root_system import MarkedSystem


def section_step(hd: HilbertData, d: int, kind: str, description: str = "") -> HilbertData:
    """One degree-d step: difference for "intersection", sum for "cover".

    Per level, the new exponent at k is min(h_k, h_{k+l*d}).  With
    v' = 2z + iota - d, H(z) is S(v') = G(v' + d) for hd's G(v) = v^eps Q(v^2),
    and H(z-d) is (-1)^dim S(-v'): H(z) -/+ H(z-d) is twice S's monomials of
    the new dim's parity, whose Q' in u = v'^2 takes one shift.  Q_R is its
    exact quotient by the kept factors (`multiply_linear`); a remainder fails
    the reconstruction.  `description` names the result, by default after
    hd and d.
    """
    if kind not in ("intersection", "cover"):
        raise ValueError(f"unknown section kind {kind!r}")
    if d < 1:
        raise ValueError("degree must be a positive integer")
    if kind == "intersection" and hd.dim < 1:
        raise ValueError("cannot intersect a 0-dimensional space")

    new_tables: list[LevelTable] = []
    for table in hd.levels:
        l, q, exps = table.level, table.den, table.counts
        shift = l * d * q  # keys are numerators over q
        kept = {k: min(h, exps[k + shift]) for k, h in exps.items() if k + shift in exps}
        if kept:
            # with equal root lengths the level supports have no holes and
            # the bottom exponent survives every cut; mixed lengths can lose
            # it (C3/P1 has no level-1 key at 3, so a degree-2 cut drops b)
            if hd.simply_laced and next(iter(kept)) != next(iter(exps)):
                raise ConsistencyError("section step moved the bottom exponent b_l")
            new_tables.append(LevelTable(l, q, kept))

    if kind == "intersection":
        new_dim, op = hd.dim - 1, "-"
        desc = description or f"{hd.description} ∩ ({d})"
    else:
        new_dim, op = hd.dim, "+"
        desc = description or f"double cover of {hd.description} branched in |{2 * d}L|"

    S = _at(hd.dim % 2, hd.even, 1, d)
    target = 2 * _from_integer(S.ints[new_dim % 2 :: 2], S.num, S.den)
    residual, rest = divmod(target, multiply_linear(new_tables, new_dim, hd.index - d))
    if rest:
        raise ConsistencyError(f"{desc}: factored form does not reconstruct H(z) {op} H(z-d)")
    # the quotient reconstructs target exactly, so target is the new Q
    return _carrying(target, desc, new_dim, hd.index - d, tuple(new_tables), residual, hd.simply_laced)


def complete_intersection(ms: MarkedSystem, degrees: list[int]) -> HilbertData:
    """Iterated hypersurface sections of the given degrees, each memoized on
    the object it cuts: the cases of one mark share their common prefixes."""
    if len(degrees) > ms.dim:
        raise ValueError(f"{len(degrees)} hypersurfaces in {ms.description} of dimension {ms.dim}")
    hd = hilbert_gp(ms)
    for i, d in enumerate(degrees, 1):
        parent, hd = hd, hd.sections.get(d)
        if hd is None:  # a prefix already cut is reused from its parent's memo
            desc = f"{ms.description} ∩ ({','.join(str(e) for e in degrees[:i])})"
            hd = parent.sections[d] = section_step(parent, d, "intersection", desc)
    return hd


def double_cover(ms: MarkedSystem, d: int) -> HilbertData:
    """Double cover branched over a member of |2dL|, polarized by the pullback.

    d < iota is Fano, d = iota is the Calabi-Yau cover; larger d gives
    general-type covers, computed the same way but with no general
    localization guarantee attached.
    """
    return section_step(hilbert_gp(ms), d, "cover")


class AbelianSpec(Record):
    """Complete intersection of c ample hypersurfaces in an abelian variety.

    `numbers` maps each exponent tuple (l_1, ..., l_c) with sum n + c to the
    intersection number L_1^{l_1} ... L_c^{l_c}; missing tuples count as 0.
    n, c, every tuple entry and every number are `int`s (not `bool`s, not
    floats), or a `ValueError` names the field.
    """

    __slots__ = _fields = ("n", "c", "numbers")

    def __init__(self, n: int, c: int, numbers: tuple[tuple[tuple[int, ...], int], ...]) -> None:
        for name, value in (("n", n), ("c", c), *(("tuple entry", e) for tup, _ in numbers for e in tup),
                            *(("intersection number", v) for _, v in numbers)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if n < 1 or c < 1:
            raise ValueError("need n >= 1 and c >= 1")
        seen = set()
        for tup, value in numbers:
            if len(tup) != c:
                raise ValueError(f"tuple {tup} does not have c = {c} entries")
            if any(e < 0 for e in tup) or sum(tup) != n + c:
                raise ValueError(f"tuple {tup} must have non-negative sum n+c = {n + c}")
            if value <= 0:
                raise ValueError(f"intersection number for {tup} must be a positive integer")
            if tup in seen:
                raise ValueError(f"duplicate tuple {tup}")
            seen.add(tup)
        self._fill(n, c, numbers)


def abelian_spec_from_json(obj: dict) -> AbelianSpec:
    """Parse {"n": int, "c": int, "numbers": [{"tuple": [...], "value": v}]}.
    Only a missing key or a wrong shape is malformed; `AbelianSpec` checks values."""
    try:
        numbers = tuple((tuple(item["tuple"]), item["value"]) for item in obj["numbers"])
        return AbelianSpec(obj["n"], obj["c"], numbers)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed abelian spec: {exc}") from exc


def pell(l: int) -> RatPoly:
    """The difference polynomial z^l - (z-1)^l, by its binomial closed form:
    the coefficient of z^i is C(l, i) (-1)^(l-i+1) for i < l, so pell(0) = 0."""
    if l < 0:
        raise ValueError("need l >= 0")
    return RatPoly([comb(l, i) * (-1) ** (l - i + 1) for i in range(l)])


def abelian_ci(spec: AbelianSpec) -> RatPoly:
    """Koszul-complex Hilbert polynomial of the anticanonical class.

    Sum over exponent tuples of (intersection number)/(l_1! ... l_c!), one
    constant term, times the product of the difference polynomials P_{l_i}.
    """
    out = RatPoly()
    for tup, value in spec.numbers:
        term = RatPoly((Fraction(value, prod(map(factorial, tup))),))
        for e in tup:
            term = term * pell(e)
        out = out + term
    return out
