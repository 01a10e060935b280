"""Exact dense univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`, stored lowest degree first, with no
trailing zeros (the zero polynomial has an empty coefficient tuple).  Every
operation here is exact; floats never enter any verdict-relevant path.

Products, exact evaluation and the certification kernels (affine substitution,
gcd and Sturm chains) work on integer coefficient lists instead: a polynomial
is split once into a positive rational content times a primitive integer list,
so the inner loops multiply and add plain integers and never reduce a fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

Scalar = Union[int, Fraction]


class ConsistencyError(RuntimeError):
    """An identity that must hold by theorem (or by construction) failed."""


@dataclass(frozen=True)
class RatPoly:
    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def const(cls, c: Scalar) -> RatPoly:
        return cls((Fraction(c),))

    @classmethod
    def zero(cls) -> RatPoly:
        return cls(())

    @classmethod
    def one(cls) -> RatPoly:
        return cls((Fraction(1),))

    @classmethod
    def variable(cls) -> RatPoly:
        return cls((Fraction(0), Fraction(1)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> RatPoly:
        return RatPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: RatPoly) -> RatPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(tuple(out))

    def __sub__(self, other: RatPoly) -> RatPoly:
        return self + (-other)

    def __mul__(self, other: Union[RatPoly, Scalar]) -> RatPoly:
        if isinstance(other, RatPoly):
            if self.is_zero or other.is_zero:
                return RatPoly(())
            (a, ca), (b, cb) = _integer_form(self), _integer_form(other)
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return _from_integer(out, ca * cb)
        s = Fraction(other)
        return RatPoly(tuple(c * s for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, s: Scalar) -> RatPoly:
        return self * (Fraction(1) / Fraction(s))

    def __pow__(self, n: int) -> RatPoly:
        if n < 0:
            raise ValueError("negative polynomial power")
        out = RatPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction, float path otherwise."""
        if isinstance(x, (int, Fraction)):
            ints, content = _integer_form(self)
            den = x.denominator
            return content * Fraction(_scaled_value(ints, x) * den, den ** len(ints))
        acc = 0.0 if not isinstance(x, complex) else 0j
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def derivative(self) -> RatPoly:
        return RatPoly(tuple(c * i for i, c in enumerate(self.coeffs) if i))

    def compose_affine(self, a: Scalar, b: Scalar) -> RatPoly:
        """Return p(a*z + b), exactly.  a must be non-zero.

        An integer Taylor shift: write a*z + b = (A*z + B)/D with integers
        and p = content * P with P primitive of degree n.  Then
        p(a*z + b) = content/D^n * sum_i P_i D^(n-i) (A*z + B)^i, so the
        denominators are cleared once, the shift by B and the scaling by A
        run on integers, and one rescale by content/D^n returns to Q.
        """
        a, b = Fraction(a), Fraction(b)
        if a == 0:
            raise ValueError("affine substitution needs a != 0")
        if self.degree < 1:
            return self
        ints, content = _integer_form(self)
        n = len(ints) - 1
        den = lcm(a.denominator, b.denominator)
        ints = [c * den ** (n - i) for i, c in enumerate(ints)]
        _taylor_shift(ints, b.numerator * (den // b.denominator))
        scale = a.numerator * (den // a.denominator)
        return _from_integer([c * scale**i for i, c in enumerate(ints)], content / den**n)

    def __divmod__(self, other: RatPoly) -> tuple[RatPoly, RatPoly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d, lc = other.degree, other.leading
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - d)
        while True:
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            f = rem[-1] / lc
            quo[shift] = f
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= f * c
        return RatPoly(tuple(quo)), RatPoly(tuple(rem))

    def exact_div(self, other: RatPoly) -> RatPoly:
        """Divide, insisting on zero remainder (factorization consistency)."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ConsistencyError(f"inexact polynomial division, remainder {r}")
        return q

    def monic(self) -> RatPoly:
        return self if self.is_zero else self / self.leading

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
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


def _integer_form(p: RatPoly) -> tuple[list[int], Fraction]:
    """Split p into a primitive integer list and a positive rational content.

    p = content * ints.  The content is positive, so the list carries p's
    evaluation signs, which is all the Sturm machinery needs.  The zero
    polynomial gives ([], 0).
    """
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = gcd(*ints)
    return [v // g for v in ints], Fraction(g, den)


def _from_integer(ints: list[int], content: Fraction) -> RatPoly:
    num, den = content.numerator, content.denominator
    return RatPoly(tuple(Fraction(v * num, den) for v in ints))


def _primitive(ints: list[int]) -> list[int]:
    """Divide out the (positive) gcd of the coefficients."""
    g = gcd(*ints)
    return ints if g == 1 else [v // g for v in ints]


def _scaled_value(ints: list[int], x: Scalar) -> int:
    """den^deg * P(num/den) for x = num/den, by Horner on integers only."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
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


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a positive integer, over the integers.

    A Sturm chain needs the true sign of each remainder, so the multiplier
    must be positive: b is negated when its leading coefficient is negative
    (which leaves the remainder over Q unchanged), and each elimination step
    multiplies by lc(b)/g > 0, with g the gcd of the two leading terms.
    """
    if b[-1] < 0:
        b = [-v for v in b]
    lb, db = b[-1], len(b) - 1
    r = list(a)
    while len(r) > db:
        lr = r.pop()
        if lr:
            g = gcd(lb, lr)
            m, k = lb // g, lr // g
            if m != 1:
                r = [m * v for v in r]
            shift = len(r) - db
            for i in range(db):
                r[shift + i] -= k * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def poly_gcd(p: RatPoly, q: RatPoly) -> RatPoly:
    """Monic gcd by a primitive remainder sequence over the integers
    (Brown and Traub, JACM 1971)."""
    a, b = _integer_form(p)[0], _integer_form(q)[0]
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return _from_integer(a, Fraction(1, a[-1])) if a else RatPoly(())


def squarefree_parts(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun decomposition: [(factor, multiplicity)] with square-free, pairwise
    coprime monic factors whose weighted product is p up to a constant."""
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free decomposition")
    if p.degree == 0:
        return []
    parts: list[tuple[RatPoly, int]] = []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        f = poly_gcd(c, d)
        if f.degree > 0:
            parts.append((f, i))
        c = c.exact_div(f)
        d = d.exact_div(f) - c.derivative()
        i += 1
    return parts


def is_squarefree(p: RatPoly) -> bool:
    return p.degree <= 0 or poly_gcd(p, p.derivative()).degree == 0


@dataclass(frozen=True)
class SturmCertificate:
    """Exact count of distinct real roots of a square-free polynomial.

    The interval convention is (lo, hi]: a root exactly at hi is counted,
    one exactly at lo is not.  `None` endpoints mean -oo / +oo.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    chain_length: int
    variations_lo: int
    variations_hi: int
    count: int

    def as_dict(self) -> dict:
        return {
            "lo": None if self.lo is None else str(self.lo),
            "hi": None if self.hi is None else str(self.hi),
            "chain_length": self.chain_length,
            "variations_lo": self.variations_lo,
            "variations_hi": self.variations_hi,
            "count": self.count,
        }


def _sturm_sequence(p: RatPoly) -> list[list[int]]:
    """p, p', then the negated pseudo-remainders, as primitive integer lists.

    Each term is a positive multiple of the classical Sturm term, so it has
    the same signs everywhere.  The last term is gcd(p, p') up to a
    constant, so p is square-free exactly when it is constant.
    """
    if p.degree < 1:
        raise ValueError("need a non-constant polynomial")
    s0 = _integer_form(p)[0]
    chain = [s0, _primitive([i * v for i, v in enumerate(s0) if i])]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-v for v in r]))
    return chain


def sturm_chains(p: RatPoly) -> list[tuple[RatPoly, list[list[int]]]]:
    """Each square-free factor of p from Yun's decomposition, with its Sturm
    chain.

    p's own chain comes first.  When its last term is constant, p is its own
    only factor (Yun's answer, up to a constant) and keeps the chain;
    otherwise Yun runs and each factor gets a chain of its own.  Either way
    the remainder sequence of p and p' is computed once.
    """
    chain = _sturm_sequence(p)
    if len(chain[-1]) == 1:
        return [(p, chain)]
    return [(f, _sturm_sequence(f)) for f, _mult in squarefree_parts(p)]


def _sign_at(s: list[int], x: Optional[Fraction], side: str) -> int:
    """Sign of s at x (at -oo / +oo for side lo / hi when x is None)."""
    if x is None:
        lead = (s[-1] > 0) - (s[-1] < 0)
        return lead if side == "hi" else lead * (-1) ** (len(s) - 1)
    acc = _scaled_value(s, x)
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: Optional[Fraction], side: str) -> int:
    signs = [s for s in (_sign_at(q, x, side) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_certificate(
    chain: list[list[int]], lo: Optional[Fraction], hi: Optional[Fraction]
) -> SturmCertificate:
    """Count the distinct real roots in (lo, hi] from a prebuilt Sturm chain."""
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError("need lo < hi")
    v_lo = _variations(chain, lo, "lo")
    v_hi = _variations(chain, hi, "hi")
    n = v_lo - v_hi
    if n < 0:
        raise ConsistencyError("negative Sturm count")
    return SturmCertificate(lo, hi, len(chain), v_lo, v_hi, n)


def sturm_count(p: RatPoly, lo: Optional[Fraction], hi: Optional[Fraction]) -> SturmCertificate:
    """Count distinct real roots of square-free p in (lo, hi]."""
    chain = _sturm_sequence(p)
    if len(chain[-1]) > 1:
        raise ValueError("polynomial is not square-free")
    return sturm_certificate(chain, lo, hi)


def symmetry_center(p: RatPoly) -> Optional[tuple[Fraction, int]]:
    """Detect the center c with p(z) = s*p(2c - z), s = (-1)^deg p.

    The only possible center is -a_{n-1}/(n*a_n); the identity is then
    checked coefficient by coefficient.  Returns (c, s) or None.
    """
    n = p.degree
    if n < 1:
        raise ValueError("need deg >= 1")
    c = -p.coeffs[n - 1] / (n * p.leading)
    s = (-1) ** n
    return (c, s) if p.compose_affine(-1, 2 * c) == p * s else None


def even_odd_split(p: RatPoly, center: Fraction) -> tuple[int, RatPoly]:
    """Write p = w^eps * q(w^2) with w = z - center.

    Requires p symmetric about `center` with sign (-1)^deg p; eps is then
    deg p mod 2 and q is returned with exact coefficients.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    q = p.compose_affine(1, Fraction(center))
    eps = p.degree % 2
    if any(c != 0 for i, c in enumerate(q.coeffs) if i % 2 != eps):
        raise ValueError(f"polynomial is not symmetric about {center}")
    return eps, RatPoly(q.coeffs[eps::2])
