"""Hilbert polynomials of marked homogeneous spaces, kept in factored form.

The primary object is the table of exponents h_{l,k}: the number of positive
roots at level l whose rho-pairing equals k.  Each table keeps its keys as
integer numerators over one denominator, so the tables, the min rule of the
sections and the expansion all run on integers.  The polynomial itself is the
product of the factors ((l*z + k)/k)^h times a residual factor, multiplied
out once per object (on a G/P by one Kronecker-substituted big-int product;
a section keeps the H(z) -/+ H(z-d) it divided), while the section/cover
recursion uses the tables.  `validate` checks the
anticanonical symmetry on the residual, since the table symmetry (S) gives
it to the factors.
A `HilbertData` is frozen, so `hilbert_gp` can hand the same object to every
caller of a mark.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod
from typing import Sequence

from .ratpoly import ConsistencyError, RatPoly, Record, _from_integer, _scaled_value, _set, _taylor_shift
from .root_system import MarkedSystem


class LevelTable(Record):
    """Exponents of one level's factors, keyed by the rho-pairing value k.

    A key k is stored as its numerator n = k * den over the table's one
    denominator `den` (1 in the simply-laced case), and `counts` maps the
    numerators, in increasing order, to their multiplicities, all positive.
    The level and every key (a rho-pairing) are positive; anything else is
    refused, since `multiply_linear` reads its product back unsigned.
    Construction divides `den` and the numerators by their gcd, so `den` is
    as small as the keys allow and equal tables compare equal.  `exponents`
    is the same table keyed by the rationals k.
    """

    __slots__ = _fields = ("level", "den", "counts")

    def __init__(self, level: int, den: int, counts: dict[int, int]) -> None:
        if level < 1 or min(counts, default=1) <= 0:
            raise ValueError(f"level {level}: the level and every key must be positive")
        g = gcd(den, *counts)
        if g > 1:
            den, counts = den // g, {n // g: h for n, h in counts.items()}
        self._fill(level, den, counts)

    @property
    def exponents(self) -> dict[Fraction, int]:
        return {Fraction(n, self.den): h for n, h in self.counts.items()}

    def check_symmetric(self, index: int) -> None:
        """Assert property (S): h at k matches h at level*index - k."""
        counts, li = self.counts, self.level * index * self.den
        for n, h in counts.items():
            if counts.get(li - n) != h:
                raise ConsistencyError(
                    f"level {self.level}: h at {Fraction(n, self.den)} is {h} but at "
                    f"{self.level * index}-{Fraction(n, self.den)} is {counts.get(li - n)}"
                )

    def unimodality_violations(self, index: int) -> list[tuple[Fraction, Fraction]]:
        """Key pairs k < k' <= level*index/2 with h(k) > h(k').

        Empty for every simply-laced mark (there it is a theorem about weight
        multiplicities).  Mixed root lengths genuinely break it: B4/P2 fails
        across the half-integer lattice and C4/P2 fails on the integer keys,
        so for those marks violations are reported rather than asserted.
        """
        full = self.level * index * self.den
        lower = [(n, h) for n, h in self.counts.items() if 2 * n <= full]
        return [
            (Fraction(n1, self.den), Fraction(n2, self.den))
            for (n1, h1), (n2, h2) in zip(lower, lower[1:])
            if h1 > h2
        ]


def multiply_linear(levels: Sequence[LevelTable]) -> RatPoly:
    """The product of the tables' factors ((l*z + k)/k)^h.

    With k = n/q a factor is (l*q*z + n)/n, so one content carries every
    denominator and the integer product is taken by Kronecker substitution:
    evaluated at X = 2^(8w), each factor is one integer, and one big-int
    product holds the product's coefficients in w-byte slots.  Every key n is
    positive, so no coefficient is negative and none exceeds their sum
    prod (l*q + n)^h < X: each slot, read unsigned, is its coefficient.
    """
    factors = [(t.level * t.den, n, h) for t in levels for n, h in t.counts.items()]
    w = (prod([(a + n) ** h for a, n, h in factors]).bit_length() + 7) // 8
    value = prod([((a << 8 * w) + n) ** h for a, n, h in factors])
    raw = value.to_bytes(w + w * sum(h for _, _, h in factors), "little")
    out = [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]
    return _from_integer(out, Fraction(1, prod([n**h for _, n, h in factors])))


class HilbertData(Record):
    """A Hilbert polynomial in factored form with its discrete invariants.

    `levels` carries the rational-root factors; `residual` is the leftover
    polynomial factor in the L-variable (1 for a homogeneous space itself).
    The expansion `poly` is held once and shared by every reader: the
    residual times the factor product, or the H(z) -/+ H(z-d) that a section
    step divided (see `_carrying`).  `sections` memoizes this object's
    hypersurface sections by degree for `complete_intersection`, so it lives
    as long as this object does; neither takes part in equality.
    `simply_laced` (all root lengths equal) makes (U) a theorem.
    """

    _fields = ("description", "dim", "index", "levels", "residual", "simply_laced")
    __slots__ = (*_fields, "poly", "sections")

    def __init__(self, description: str, dim: int, index: int, levels: Sequence[LevelTable] = (),
                 residual: RatPoly = RatPoly.one(), simply_laced: bool = True) -> None:
        self._fill(description, dim, index, tuple(levels), residual, simply_laced)
        poly = multiply_linear(self.levels)
        _set(self, "poly", poly if residual == RatPoly.one() else residual * poly)
        _set(self, "sections", {})


def _carrying(poly: RatPoly, *fields) -> HilbertData:
    """A HilbertData of `fields` whose expansion `poly` is already at hand."""
    hd = object.__new__(HilbertData)
    hd._fill(*fields)
    _set(hd, "poly", poly)
    _set(hd, "sections", {})
    return hd


def expand(hd: HilbertData) -> RatPoly:
    """The expansion in the ample-generator variable, multiplied out with hd."""
    return hd.poly


def degree_of(hd: HilbertData) -> int:
    """dim! times the leading coefficient; the degree of the polarization."""
    lead = expand(hd).leading
    value = lead * factorial(hd.dim)
    if value.denominator != 1 or value <= 0:
        raise ConsistencyError(f"{hd.description}: degree {value} is not a positive integer")
    return int(value)


def validate(hd: HilbertData) -> None:
    """Assert the structural invariants.

    Symmetry of every table (unimodality too, for simply-laced marks), the
    expected degree, the anticanonical symmetry H(-iota-z) = (-1)^dim H(z),
    integrality on a window of integers, and chi(O) = 1 whenever the index
    is positive.

    The anticanonical symmetry is checked on the residual R alone.  Under
    z -> -iota-z a factor (l*z + k)/k becomes -(l*z + k')/k with
    k' = l*iota - k, and (S), asserted on every table first, gives k' the
    exponent of k.  So the factor product F satisfies
    F(-iota-z) = (-1)^deg F * F(z), and since H = R*F with
    dim = deg R + deg F, H(-iota-z) = (-1)^dim H(z) holds exactly when
    R(-iota-z) = (-1)^deg R * R(z).  A constant R, as on every G/P, is its
    own mirror.
    """
    for table in hd.levels:
        if table.level < 1:
            raise ConsistencyError(f"{hd.description}: level {table.level} out of range")
        table.check_symmetric(hd.index)
        if hd.simply_laced:
            bad = table.unimodality_violations(hd.index)
            if bad:
                raise ConsistencyError(
                    f"{hd.description}: level {table.level} not unimodal at {bad[0]}"
                )
    H = expand(hd)
    if H.degree != hd.dim:
        raise ConsistencyError(
            f"{hd.description}: expanded degree {H.degree} != dim {hd.dim}"
        )
    R = hd.residual.ints
    if len(R) > 1:
        # R(-iota-z) = Q(-z) with Q(z) = R(z-iota), compared on the integer form
        mirror = list(R)
        _taylor_shift(mirror, -hd.index)
        sign = (-1) ** (len(R) - 1)
        if any((-1) ** i * q != sign * c for i, (q, c) in enumerate(zip(mirror, R))):
            raise ConsistencyError(f"{hd.description}: anticanonical symmetry fails")
    ints, num, den = H.ints, H.content.numerator, H.content.denominator
    for k in range(-3, 10):
        value = _scaled_value(ints, k)  # H(k) = value * num/den, num and den coprime
        if value % den:
            raise ConsistencyError(
                f"{hd.description}: H({k}) = {Fraction(value * num, den)} is not an integer"
            )
    if hd.index > 0 and ints[0] * num != den:
        raise ConsistencyError(f"{hd.description}: chi(O) = {Fraction(ints[0] * num, den)} != 1")


@lru_cache(maxsize=1)
def hilbert_gp(ms: MarkedSystem) -> HilbertData:
    """The factored Hilbert polynomial of the ample generator on G/P.

    Cached for the last mark asked for: a sweep visits each mark's cases one
    after another, and they share this object and its memoized sections.
    """
    # the keys come in increasing order, and `mark` has asserted through
    # `extremal_roots` that each level's extremal keys sum to l * iota
    tables = [LevelTable(l, ms.d_den, dict(Counter(keys))) for l, keys in ms.pairings.items()]
    hd = HilbertData(
        description=ms.description,
        dim=ms.dim,
        index=ms.index,
        levels=tables,
        simply_laced=len(set(ms.d_num)) == 1,
    )
    validate(hd)
    return hd
