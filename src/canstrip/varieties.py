"""Hyperplane sections, double covers, and abelian complete intersections.

A hypersurface section of degree d turns H(z) into H(z) - H(z-d); the
double cover branched in |2dL| gives H(z) + H(z-d).  Both propagate the
factored form by the same min-of-exponents rule on the level tables: the
kept factors divide both H(z) and H(z-d), and the residual is the exact
quotient by them, with a zero remainder asserted on every step.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .hilbert import HilbertData, LevelTable, _carrying, expand, hilbert_gp, multiply_linear
from .ratpoly import ConsistencyError, RatPoly, Record
from .root_system import MarkedSystem


def section_step(hd: HilbertData, d: int, kind: str, description: str = "") -> HilbertData:
    """One degree-d step: difference for "intersection", sum for "cover".

    Per level, the new exponent at k is min(h_k, h_{k+l*d}): those factors
    divide both H(z) and H(z-d), and the residual is the exact quotient of
    H(z) -/+ H(z-d) by them.  A non-zero remainder means the kept factors do
    not divide, and is the step's reconstruction check; building the result
    validates it.  `description` names the result, by default after hd and d.
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
        sign, new_dim = -1, hd.dim - 1
        desc = description or f"{hd.description} ∩ ({d})"
    else:
        sign, new_dim = 1, hd.dim
        desc = description or f"double cover of {hd.description} branched in |{2 * d}L|"

    H_old = expand(hd)
    target = H_old + sign * H_old.compose_affine(1, -d)
    residual, rest = divmod(target, multiply_linear(new_tables))
    if rest:
        op = "+" if sign > 0 else "-"
        raise ConsistencyError(f"{desc}: factored form does not reconstruct H(z) {op} H(z-d)")
    # the quotient reconstructs target exactly, so target is the expansion
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
    """

    __slots__ = _fields = ("n", "c", "numbers")

    def __init__(self, n: int, c: int, numbers: tuple[tuple[tuple[int, ...], int], ...]) -> None:
        if n < 1 or c < 1:
            raise ValueError("need n >= 1 and c >= 1")
        seen = set()
        for tup, value in numbers:
            if len(tup) != c:
                raise ValueError(f"tuple {tup} does not have c = {c} entries")
            if any(e < 0 for e in tup) or sum(tup) != n + c:
                raise ValueError(f"tuple {tup} must have non-negative sum n+c = {n + c}")
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"intersection number for {tup} must be a positive integer")
            if tup in seen:
                raise ValueError(f"duplicate tuple {tup}")
            seen.add(tup)
        self._fill(n, c, numbers)


def _json_int(value, what: str) -> int:
    """An integer from parsed JSON; floats, strings and booleans are refused
    rather than truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def abelian_spec_from_json(obj: dict) -> AbelianSpec:
    """Parse {"n": int, "c": int, "numbers": [{"tuple": [...], "value": v}]}."""
    try:
        numbers = tuple(
            (
                tuple(_json_int(e, "tuple entry") for e in item["tuple"]),
                _json_int(item["value"], "intersection number"),
            )
            for item in obj["numbers"]
        )
        return AbelianSpec(_json_int(obj["n"], "n"), _json_int(obj["c"], "c"), numbers)
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
