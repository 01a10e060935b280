"""Exact dense univariate polynomials over the rationals.

A polynomial is stored in one normal form: a primitive integer coefficient
tuple `ints` (lowest degree first, no trailing zeros, gcd 1) times a positive
rational content held as two coprime integers `num / den` (den >= 1); the
zero polynomial is ((), 0, 1).  The form is unique, so equality and hashing
compare it directly, and every kernel (products, sums, shifts, evaluation,
pseudo-division and the Sturm chains built on it, whose last term is
gcd(p, p')) multiplies and adds plain integers, and reduces the content with
one `math.gcd` and no `Fraction`.  `coeffs`, the `Fraction` view, is
derived on demand only for printing.  `RatPoly` has only the
operations the pipeline runs: sums, products by a polynomial or a scalar,
evaluation, affine substitution and division, all exact; floats never enter
any verdict-relevant path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]
_set = object.__setattr__  # sets a field of a frozen Record


class ConsistencyError(RuntimeError):
    """An identity that must hold by theorem (or by construction) failed."""


class Record:
    """The frozen base of the records a `NamedTuple` cannot hold, each with
    `__slots__`: `_fill` sets the fields once, then assignment raises
    AttributeError.  Records of one class compare, hash and print by
    `_fields`, in constructor order, so `type(r)(*r._values()) == r` for all
    but `RatPoly`, built from its coefficients; other slots are derived or
    caches.  A dict field leaves no hash: `LevelTable`, and `HilbertData`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state) -> None:  # copy and pickle refill the slots here
        for name, value in state[1].items():  # (None, {slot: value}): there is no __dict__
            _set(self, name, value)


class RatPoly(Record):
    """(num/den) * (ints[0] + ints[1] z + ...), in the normal form above."""

    __slots__ = _fields = ("ints", "num", "den")  # tuple[int, ...], int, int

    def __init__(self, coeffs=()) -> None:
        """From rational coefficients, lowest degree first."""
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _from_integer([c.numerator * (den // c.denominator) for c in cs], 1, den)
        self._fill(p.ints, p.num, p.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first, built on each read."""
        num, den = self.num, self.den
        return tuple(Fraction(v * num, den) for v in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.ints) - 1

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __add__(self, other: RatPoly) -> RatPoly:
        # both contents over one denominator; a zero summand has num 0
        a, b = self.ints, other.ints
        den = lcm(self.den, other.den)
        ma, mb = self.num * (den // self.den), other.num * (den // other.den)
        if len(a) < len(b):
            a, ma, b, mb = b, mb, a, ma
        out = [v * ma for v in a]
        for i, v in enumerate(b):
            out[i] += v * mb
        return _from_integer(out, 1, den)

    def __mul__(self, other: Union[RatPoly, Scalar]) -> RatPoly:
        if isinstance(other, RatPoly):
            a, b = self.ints, other.ints
            if not a or not b:
                return _ZERO
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            # Gauss's lemma: a product of primitive polynomials is primitive
            return _reduced(tuple(out), self.num * other.num, self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)  # any other number, a float say, exactly
        # a scalar keeps the primitive ints, negated for a negative scalar
        num, den = self.num * other.numerator, self.den * other.denominator
        if num > 0:
            return _reduced(self.ints, num, den)
        return _reduced(tuple([-v for v in self.ints]), -num, den) if num else _ZERO

    __rmul__ = __mul__

    def __call__(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation at an int or a Fraction."""
        ints, den = self.ints, x.denominator
        return Fraction(self.num * _scaled_value(ints, x) * den, self.den * den ** len(ints))

    def compose_affine(self, a: Scalar, b: Scalar) -> RatPoly:
        """Return p(a*z + b), exactly.  a must be non-zero.

        An integer Taylor shift: write a*z + b = (A*z + B)/D with integers
        and p = content * P with P primitive of degree n.  Then
        p(a*z + b) = content/D^n * sum_i P_i D^(n-i) (A*z + B)^i, so the
        denominators are cleared once, the shift by B and the scaling by A
        run on integers, and one rescale by content/D^n returns to Q.  With
        D = A = 1 (every section's H(z - d)) both passes are skipped, and the
        shift of a primitive P is primitive (P(z) is the shift back), so no
        coefficient gcd is taken either.
        """
        if not a:
            raise ValueError("affine substitution needs a != 0")
        if self.degree < 1:
            return self
        n = len(self.ints) - 1
        den = lcm(a.denominator, b.denominator)
        scale = a.numerator * (den // a.denominator)
        ints = list(self.ints) if den == 1 else [c * den ** (n - i) for i, c in enumerate(self.ints)]
        _taylor_shift(ints, b.numerator * (den // b.denominator))
        if den == scale == 1:
            return _raw(tuple(ints), self.num, self.den)
        if scale != 1:
            ints = [c * scale**i for i, c in enumerate(ints)]
        return _from_integer(ints, self.num, self.den * den**n)

    def __divmod__(self, other: RatPoly) -> tuple[RatPoly, RatPoly]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        m, q, r = _pseudo_divmod(self.ints, other.ints)
        return (_from_integer(q, self.num * other.den, self.den * m * other.num),
                _from_integer(r, self.num, self.den * m))

    def exact_div(self, other: RatPoly) -> RatPoly:
        """Divide, insisting on zero remainder (factorization consistency)."""
        q, r = divmod(self, other)
        if r:
            raise ConsistencyError(f"inexact polynomial division, remainder {r}")
        return q

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "z" if mag == 1 else f"{mag}*z"
            else:
                body = f"z^{i}" if mag == 1 else f"{mag}*z^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _raw(ints: tuple[int, ...], num: int, den: int) -> RatPoly:
    """A RatPoly from parts already in normal form."""
    p = object.__new__(RatPoly)
    _set(p, "ints", ints)
    _set(p, "num", num)
    _set(p, "den", den)
    return p


def _reduced(ints: tuple[int, ...], num: int, den: int) -> RatPoly:
    """A RatPoly from primitive ints and a positive content num/den in any terms."""
    g = gcd(num, den)
    return _raw(ints, num // g, den // g)


def _from_integer(ints: Sequence[int], num: int, den: int) -> RatPoly:
    """(num/den) * ints brought to normal form, for den > 0: trailing zeros
    dropped, the coefficient gcd moved into the content, the content made
    positive and reduced."""
    while ints and not ints[-1]:
        ints = ints[:-1]
    if not ints or not num:
        return _ZERO
    g = gcd(*ints)
    if num < 0:
        g = -g
    if g != 1:
        ints, num = [v // g for v in ints], num * g
    return _reduced(tuple(ints), num, den)


_ZERO = _raw((), 0, 1)
_ONE = _raw((1,), 1, 1)


def _primitive(ints: list[int]) -> list[int]:
    """Divide out the (positive) gcd of the coefficients."""
    g = gcd(*ints)
    return ints if g == 1 else [v // g for v in ints]


def _scaled_value(ints: list[int], x: Scalar) -> int:
    """den^deg * P(num/den) for x = num/den, by Horner on integers only."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    if den == 1:  # an integer x: no power of den to carry
        for c in reversed(ints):
            acc = acc * num + c
        return acc
    for c in reversed(ints):
        acc = acc * num + c * power
        power *= den
    return acc


def _taylor_shift(ints: list[int], b: int) -> None:
    """Replace P(x) by P(x + b) in place, with integer additions and
    multiplications by b only (the classical quadratic scheme, von zur
    Gathen and Gerhard, ISSAC 1997)."""
    if b == 0:
        return
    n = len(ints) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            ints[j] += b * ints[j + 1]


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(m, q, r) with m*a = q*b + r over the integers, m > 0 and deg r < deg b
    (pseudo-division, Knuth TAOCP vol. 2, 4.6.1).

    A Sturm chain needs the true sign of each remainder, so the multiplier
    must be positive: each elimination step multiplies by lc(b)/g > 0, with
    g the gcd of the two leading terms taken with the sign of lc(b).
    """
    lb, db = b[-1], len(b) - 1
    m, q, r = 1, [0] * max(0, len(a) - db), list(a)
    while len(r) > db:
        lr = r.pop()
        if lr:
            g = gcd(lb, lr) if lb > 0 else -gcd(lb, lr)
            s, k = lb // g, lr // g
            if s != 1:
                m, q, r = m * s, [s * v for v in q], [s * v for v in r]
            shift = len(r) - db
            q[shift] = k
            for i in range(db):
                r[shift + i] -= k * b[i]
    while r and r[-1] == 0:
        r.pop()
    return m, q, r


class SturmCertificate(NamedTuple):
    """Exact count of the distinct real roots of a polynomial in (-oo, hi]."""

    hi: Fraction
    chain_length: int
    variations_lo: int
    variations_hi: int
    count: int

    def as_dict(self) -> dict:
        return {**self._asdict(), "lo": None, "hi": str(self.hi)}


def _sturm_sequence(p: RatPoly) -> list[list[int]]:
    """p, p', then the negated pseudo-remainders, as primitive integer lists.

    Each term is a positive multiple of the classical Sturm term, so it has
    the same signs everywhere.  The last term is gcd(p, p') up to a
    constant, so p has deg p - deg(last) distinct roots, and dividing the
    chain by it leaves a Sturm sequence of p's square-free part with the
    same signs wherever the gcd does not vanish.  Signs taken at -oo and
    just right of x (`_sign_at`) never vanish, so `sturm_certificate` counts
    distinct roots whether p is square-free or not.
    """
    if p.degree < 1:
        raise ValueError("need a non-constant polynomial")
    s0 = p.ints
    chain = [s0, _primitive([i * v for i, v in enumerate(s0) if i])]
    while len(chain[-1]) > 1:
        r = _pseudo_divmod(chain[-2], chain[-1])[2]
        if not r:
            break
        chain.append(_primitive([-v for v in r]))
    return chain


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _sign_at(s: list[int], x: Fraction) -> int:
    """Sign of s just right of x: that of its first derivative not vanishing at x."""
    acc = _scaled_value(s, x)
    while not acc:
        s = [i * v for i, v in enumerate(s) if i]
        acc = _scaled_value(s, x)
    return _sign(acc)


def sturm_certificate(chain: list[list[int]], x: Fraction) -> SturmCertificate:
    """Count the distinct real roots in (-oo, x] from a prebuilt Sturm chain."""
    # at -oo each term has the sign of its leading coefficient times (-1)^degree
    at_lo = [_sign(s[-1]) * (-1) ** (len(s) - 1) for s in chain]
    at_x = [_sign_at(s, x) for s in chain]
    v_lo, v_hi = (sum(a != b for a, b in zip(v, v[1:])) for v in (at_lo, at_x))
    n = v_lo - v_hi
    if n < 0:
        raise ConsistencyError("negative Sturm count")
    return SturmCertificate(x, len(chain), v_lo, v_hi, n)


def squarefree_parts(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """[(factor, multiplicity)] with square-free, pairwise coprime monic
    factors whose weighted product is p up to a constant.

    The tower g_0 = p, g_(i+1) = gcd(g_i, g_i'), read off as the last term of
    each Sturm sequence, lowers every multiplicity by one per step, so
    h_i = g_i / g_(i+1) holds the distinct roots of multiplicity > i and
    h_i / h_(i+1) those of multiplicity exactly i + 1 (Musser, JACM 1975).
    """
    if not p:
        raise ValueError("zero polynomial has no square-free decomposition")
    tower = [p]
    while tower[-1].degree > 0:
        last = _sturm_sequence(tower[-1])[-1]
        tower.append(_from_integer(last, _sign(last[-1]), abs(last[-1])))
    h = [g.exact_div(g_next) for g, g_next in zip(tower, tower[1:])] + [_ONE]
    parts = []
    for i, (f, f_next) in enumerate(zip(h, h[1:]), 1):
        factor = f.exact_div(f_next)
        if factor.degree > 0:
            lead = factor.ints[-1]
            parts.append((_from_integer(factor.ints, _sign(lead), abs(lead)), i))
    return parts


def symmetric_split(p: RatPoly) -> Optional[tuple[Fraction, RatPoly]]:
    """Find the center c and the even part q with p = w^eps * q(w^2), w = z - c.

    The only possible center is c = -a_{n-1}/(n*a_n).  One Taylor shift gives
    p(w + c), and p(2c - z) = (-1)^n * p(z) holds exactly when that shift has
    no monomial of parity 1 - eps, eps = n mod 2; its monomials of parity eps
    are then q.  Returns (c, q), or None when p is not symmetric.
    """
    n = p.degree
    if n < 1:
        raise ValueError("need deg >= 1")
    c = Fraction(-p.ints[n - 1], n * p.ints[n])
    shifted = p.compose_affine(1, c)
    eps = n % 2
    if any(shifted.ints[1 - eps :: 2]):
        return None
    # the dropped monomials are zero, so the kept ones are primitive and end
    # on the leading one: q is in normal form as it stands
    return c, _raw(shifted.ints[eps::2], shifted.num, shifted.den)
