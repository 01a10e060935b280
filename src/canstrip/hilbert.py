"""Hilbert polynomials of marked homogeneous spaces, kept in factored form.

The primary object is the table of exponents h_{l,k}: the number of positive
roots at level l whose rho-pairing equals k.  Each table keeps its keys as
integer numerators over one denominator, so the tables, the min rule of the
sections and the expansion all run on integers.  The polynomial itself is the
product of the factors ((l*z + k)/k)^h times a residual factor.  It is
multiplied out, by one Kronecker-substituted big-int product, only when its
expansion is first read: a section step reads its parent's and keeps the
H(z) -/+ H(z-d) it divided as its own, while a G/P that is only reported is
never expanded.  Every `HilbertData` is validated once, when it is built,
with no product taken, and refuses arguments that break an invariant;
`validate` checks the anticanonical symmetry on the residual's one split, which
`verify.strip_report` certifies, since the table symmetry (S) gives it to
the factors.  A `HilbertData` is frozen, so `hilbert_gp` can hand the same
object to every caller of a mark.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod
from operator import add
from typing import Optional, Sequence

from .ratpoly import (ConsistencyError, RatPoly, Record, _ONE, _from_integer, _scaled_value, _set,
                      symmetric_split)
from .root_system import MarkedSystem


class LevelTable(Record):
    """Exponents of one level's factors, keyed by the rho-pairing value k.

    A key k is stored as its numerator n = k * den over the table's one
    denominator `den` (1 in the simply-laced case), and `counts` maps the
    numerators, in increasing order, to their multiplicities.  The level,
    `den` and every key (a rho-pairing) are positive and every multiplicity
    is a positive integer; anything else is refused, since `multiply_linear`
    reads its product back unsigned and `validate` takes integer powers.
    Construction sorts the keys and divides `den` and the numerators by
    their gcd, so `den` is as small as the keys allow and equal tables
    compare equal.  `exponents` is the same table keyed by the rationals k.
    """

    __slots__ = _fields = ("level", "den", "counts")

    def __init__(self, level: int, den: int, counts: dict[int, int]) -> None:
        if level < 1 or den < 1 or min(counts, default=1) <= 0 or not all(
                isinstance(h, int) and h >= 1 for h in counts.values()):
            raise ValueError(f"level {level}: the level, the denominator and every key must be "
                             "positive, and every multiplicity a positive integer")
        g = gcd(den, *counts)
        if g > 1:
            den, counts = den // g, {n // g: h for n, h in counts.items()}
        self._fill(level, den, dict(sorted(counts.items())))

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


def _factors(levels: Sequence[LevelTable]) -> tuple[list[int], list[int], list[int]]:
    """The factors ((a*z + n)/n)^h of the tables as three columns: the slopes
    a = l*q, the key numerators n (k = n/q) and the multiplicities h."""
    slopes = [t.level * t.den for t in levels for _ in t.counts]
    keys = [n for t in levels for n in t.counts]
    return slopes, keys, [h for t in levels for h in t.counts.values()]


def multiply_linear(levels: Sequence[LevelTable]) -> RatPoly:
    """The product of the tables' factors ((l*z + k)/k)^h.

    With k = n/q a factor is (l*q*z + n)/n, so one content carries every
    denominator and the integer product is taken by Kronecker substitution:
    evaluated at X = 2^(8w), each factor is one integer, and one big-int
    product holds the product's coefficients in w-byte slots.  Every key n is
    positive, so no coefficient is negative and none exceeds their sum
    prod (l*q + n)^h < X: each slot, read unsigned, is its coefficient.
    """
    slopes, keys, exps = _factors(levels)
    w = (prod(map(pow, map(add, slopes, keys), exps)).bit_length() + 7) // 8
    value = prod(map(pow, [(a << 8 * w) + n for a, n in zip(slopes, keys)], exps))
    raw = value.to_bytes(w + w * sum(exps), "little")
    out = [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]
    return _from_integer(out, Fraction(1, prod(map(pow, keys, exps))))


class HilbertData(Record):
    """A Hilbert polynomial in factored form with its discrete invariants.

    `levels` carries the rational-root factors; `residual` is the leftover
    polynomial factor in the L-variable (1 for a homogeneous space itself).
    The expansion `poly` is taken once and shared by every reader: a section
    or cover carries the H(z) -/+ H(z-d) its step divided (see `_carrying`);
    any other object multiplies the residual by the factor product on the
    first read of `poly` and keeps it.  `split` is the residual's center and
    even part (`symmetric_split`, which refuses a zero residual), None for a
    constant or an asymmetric one.
    `sections` memoizes this object's hypersurface sections by degree for
    `complete_intersection`.  None of the three takes part in equality.
    `simply_laced` (all root lengths equal) makes (U) a theorem.
    Construction runs `validate`, so a broken object is never built.
    """

    _fields = ("description", "dim", "index", "levels", "residual", "simply_laced")
    __slots__ = (*_fields, "_poly", "split", "sections")

    def __init__(self, description: str, dim: int, index: int, levels: Sequence[LevelTable] = (),
                 residual: RatPoly = _ONE, simply_laced: bool = True) -> None:
        _carrying(None, description, dim, index, tuple(levels), residual, simply_laced, hd=self)

    @property
    def poly(self) -> RatPoly:
        """The expansion: the one carried, or R times the factor product, kept."""
        if self._poly is None:
            poly = multiply_linear(self.levels)
            _set(self, "_poly", poly if self.residual == _ONE else self.residual * poly)
        return self._poly


def _carrying(poly: Optional[RatPoly], *fields, hd: Optional[HilbertData] = None) -> HilbertData:
    """The HilbertData of `fields` (into `hd`, if given), validated; `poly` is
    its expansion, or None to multiply it out when it is first read."""
    hd = object.__new__(HilbertData) if hd is None else hd
    hd._fill(*fields)
    _set(hd, "_poly", poly)
    _set(hd, "split", symmetric_split(hd.residual) if hd.residual.degree else None)
    _set(hd, "sections", {})
    validate(hd)
    return hd


def expand(hd: HilbertData) -> RatPoly:
    """The expansion in the ample-generator variable, taken once per object."""
    return hd.poly


def degree_of(hd: HilbertData) -> int:
    """dim! times the leading coefficient; the degree of the polarization.

    Read off the factored form with no expansion: a factor ((l*q*z + n)/n)^h
    leads with (l*q/n)^h, so the value is dim! * lead(R) * prod (l*q/n)^h.
    """
    slopes, keys, exps = _factors(hd.levels)
    lead = hd.residual.leading
    num = factorial(hd.dim) * lead.numerator * prod(map(pow, slopes, exps))
    den = lead.denominator * prod(map(pow, keys, exps))
    value, rest = divmod(num, den)
    if rest or value <= 0:
        raise ConsistencyError(f"{hd.description}: degree {Fraction(num, den)} is not a positive integer")
    return value


def validate(hd: HilbertData) -> None:
    """Assert the structural invariants (once per object, from `_carrying`).

    Symmetry of every table (unimodality too, for simply-laced marks), the
    expected degree deg R + sum h, the anticanonical symmetry
    H(-iota-z) = (-1)^dim H(z), integrality on the window `_WINDOW` of
    integers, and chi(O) = H(0) = 1 whenever the index is positive.  The
    values H(k) come from the expansion a section carries, and from the
    tables otherwise (`_window_values`), so validation multiplies nothing out.

    The anticanonical symmetry is checked on the residual R alone.  Under
    z -> -iota-z a factor (l*z + k)/k becomes -(l*z + k')/k with
    k' = l*iota - k, and (S), asserted on every table first, gives k' the
    exponent of k.  So the factor product F satisfies
    F(-iota-z) = (-1)^deg F * F(z), and since H = R*F with
    dim = deg R + deg F, H(-iota-z) = (-1)^dim H(z) holds exactly when
    R(-iota-z) = (-1)^deg R * R(z): when R's split `hd.split` exists and is
    centered at -iota/2, its only possible center.  A constant R, as on
    every G/P, is its own mirror.
    """
    for table in hd.levels:
        table.check_symmetric(hd.index)
        if hd.simply_laced:
            bad = table.unimodality_violations(hd.index)
            if bad:
                raise ConsistencyError(
                    f"{hd.description}: level {table.level} not unimodal at {bad[0]}"
                )
    degree = hd.residual.degree + sum([sum(t.counts.values()) for t in hd.levels])
    if degree != hd.dim:
        raise ConsistencyError(
            f"{hd.description}: expanded degree {degree} != dim {hd.dim}"
        )
    if hd.residual.degree >= 1 and (hd.split is None or hd.split[0] != Fraction(-hd.index, 2)):
        raise ConsistencyError(f"{hd.description}: anticanonical symmetry fails")
    values, den = _window_values(hd)
    for k, value in zip(_WINDOW, values):
        if value % den:
            raise ConsistencyError(
                f"{hd.description}: H({k}) = {Fraction(value, den)} is not an integer"
            )
    chi = values[_WINDOW.index(0)]
    if hd.index > 0 and chi != den:
        raise ConsistencyError(f"{hd.description}: chi(O) = {Fraction(chi, den)} != 1")


_WINDOW = range(-3, 10)  # the integers k on which `validate` asks H(k) to be an integer


def _window_values(hd: HilbertData) -> tuple[list[int], int]:
    """([H(k) * den for k in _WINDOW], den), all integers.

    A section or cover evaluates the expansion it carries by integer Horner,
    which is faster there than the tables; any other object, every G/P, uses
    the factored form H(k) = R(k) * prod (l*q*k + n)^h / prod n^h.
    """
    H = hd._poly
    if H is not None:
        num, den = H.content.numerator, H.content.denominator
        return [_scaled_value(H.ints, k) * num for k in _WINDOW], den
    R, (slopes, keys, exps) = hd.residual, _factors(hd.levels)
    num, den = R.content.numerator, R.content.denominator * prod(map(pow, keys, exps))
    bases, values = [n + a * (_WINDOW.start - 1) for a, n in zip(slopes, keys)], []
    for k in _WINDOW:
        bases = list(map(add, bases, slopes))  # a*k + n
        values.append(_scaled_value(R.ints, k) * num * prod(map(pow, bases, exps)))
    return values, den


@lru_cache(maxsize=1)
def hilbert_gp(ms: MarkedSystem) -> HilbertData:
    """The factored, validated Hilbert polynomial of the ample generator on G/P.

    Cached for the last mark asked for: a sweep visits each mark's cases one
    after another, and they share this object and its memoized sections.
    """
    # `mark` has asserted through `extremal_roots` that each level's
    # extremal keys sum to l * iota
    tables = [LevelTable(l, ms.d_den, Counter(keys)) for l, keys in ms.pairings.items()]
    return HilbertData(
        description=ms.description,
        dim=ms.dim,
        index=ms.index,
        levels=tables,
        simply_laced=len(set(ms.d_num)) == 1,
    )
