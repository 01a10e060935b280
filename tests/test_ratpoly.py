import math
import random
from fractions import Fraction
from types import FunctionType

import pytest

from canstrip.ratpoly import (
    ConsistencyError,
    RatPoly,
    _sturm_sequence,
    squarefree_parts,
    sturm_certificate,
    symmetric_split,
)

from oracles import binom_poly, pshift, psub


def P(*coeffs):
    return RatPoly(tuple(Fraction(c) for c in coeffs))


def rand_poly(rng, deg, bound=6):
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, bound)))
    return RatPoly(tuple(coeffs))


def lead(p):
    """The leading coefficient of a non-zero p, read off its integers."""
    return Fraction(p.num * p.ints[-1], p.den)


class TestArith:
    def test_members_are_the_operations_the_pipeline_runs(self):
        members = {name for name, v in vars(RatPoly).items()
                   if isinstance(v, (FunctionType, property, classmethod, staticmethod))}
        assert members == {"__init__", "content", "coeffs", "degree", "__bool__", "__add__",
                           "__mul__", "__rmul__", "__call__", "compose_affine", "__divmod__",
                           "exact_div", "__str__"}

    def test_mul(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)
        assert P(1, 2) * 0.5 == 0.5 * P(1, 2) == P(Fraction(1, 2), 1)

    def test_sub_self_is_zero(self):
        p = P(3, -2, 7)
        assert not p + (-1) * p

    def test_quadric_surface_difference(self):
        # C(z+3,3) - C(z+1,3) = (z+1)^2, with the expansion done by the
        # independent list-based oracle
        oracle = psub(binom_poly(3), pshift(binom_poly(3), 2))
        assert oracle == [Fraction(1), Fraction(2), Fraction(1)]
        cubic = RatPoly(tuple(binom_poly(3)))
        assert cubic + (-1) * cubic.compose_affine(1, -2) == P(1, 2, 1)

    def test_canonical_form(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert not P(0) and P().degree == -1

    def test_scalar_multiples(self):
        assert 2 * P(1, 1) == P(2, 2)
        assert P(2, 4) * Fraction(1, 2) == P(1, 2)


class TestComposeAffine:
    def test_shift(self):
        assert P(0, 0, 1).compose_affine(1, -1) == P(1, -2, 1)

    def test_scale(self):
        assert P(1, 2, 1).compose_affine(2, 0) == P(1, 4, 4)

    def test_rational_shift(self):
        assert P(0, 1).compose_affine(1, Fraction(-5, 7)) == P(Fraction(-5, 7), 1)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            P(0, 1).compose_affine(0, 1)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(25):
            p = rand_poly(rng, rng.randint(0, 6))
            a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            b = Fraction(rng.randint(-4, 4))
            q = p.compose_affine(a, b).compose_affine(1 / a, -b / a)
            assert q == p


class TestDivision:
    def test_exact(self):
        assert P(-1, 0, 1).exact_div(P(-1, 1)) == P(1, 1)
        assert P(1, 4, 4).exact_div(P(1, 2)) == P(1, 2)

    def test_remainder_rejected(self):
        with pytest.raises(ConsistencyError):
            P(1, 0, 1).exact_div(P(1, 1))

    def test_divmod(self):
        q, r = divmod(P(1, 0, 1), P(1, 1))
        assert q * P(1, 1) + r == P(1, 0, 1)
        assert r == P(2)


class TestSquarefree:
    def test_double_root(self):
        parts = squarefree_parts(P(1, 2, 1))
        assert parts == [(P(1, 1), 2)]

    def test_already_squarefree(self):
        assert squarefree_parts(P(-1, 0, 1)) == [(P(-1, 0, 1), 1)]

    def test_mixed(self):
        parts = squarefree_parts(P(0, 0, 1, 1))  # z^2 (z + 1)
        assert sorted(parts, key=lambda t: t[1]) == [(P(1, 1), 1), (P(0, 1), 2)]
        # z (z - 1)^3: the tower has no factor of multiplicity 2
        assert squarefree_parts(P(0, 1) * P(-1, 3, -3, 1)) == [(P(0, 1), 1), (P(-1, 1), 3)]

    def test_reconstruction(self):
        rng = random.Random(11)
        for _ in range(20):
            p = rand_poly(rng, rng.randint(1, 4))
            q = rand_poly(rng, rng.randint(1, 3))
            prod = p * p * q
            parts = squarefree_parts(prod)
            rebuilt = math.prod([f for f, m in parts for _ in range(m)], start=RatPoly((1,)))
            # equal up to the leading constant
            assert rebuilt * (lead(prod) / lead(rebuilt)) == prod


def sturm_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi], as the difference of two counts
    on (-oo, x]; an infinite endpoint (None) becomes -+(1 + max|a_i/a_n|),
    which lies past every root."""
    chain = _sturm_sequence(p)
    bound = 1 + max(abs(c / lead(p)) for c in p.coeffs)
    lo, hi = -bound if lo is None else lo, bound if hi is None else hi
    return sturm_certificate(chain, hi).count - sturm_certificate(chain, lo).count


class TestSturm:
    def test_half_line(self):
        assert sturm_count(P(-1, 0, 1), None, Fraction(0)) == 1

    def test_no_real_roots(self):
        assert sturm_count(P(1, 0, 1), None, None) == 0

    def test_repeated_root_counted_once(self):
        # (z + 1/2)^2 (z - 1): two distinct roots, the double one counted
        # once, on the side of the interval it closes
        p = P(Fraction(1, 4), 1, 1) * P(-1, 1)
        assert sturm_count(p, None, None) == 2
        assert sturm_count(p, None, Fraction(-1, 2)) == 1
        assert sturm_count(p, Fraction(-1, 2), None) == 1
        # z^2 (z - 1)^3 (z + 2): signs just right of 0 and 1, where every
        # term of the chain vanishes, still count the distinct roots
        p = P(0, 0, 1) * P(-1, 3, -3, 1) * P(2, 1)
        assert sturm_count(p, None, None) == 3
        assert sturm_count(p, None, Fraction(0)) == 2
        assert sturm_count(p, Fraction(0), Fraction(1)) == 1
        assert sturm_count(p, Fraction(-2), Fraction(0)) == 1
        assert sturm_count(p, Fraction(1), None) == 0

    def test_endpoint_convention(self):
        # (lo, hi]: a root at hi counts, at lo it does not
        p = P(0, 1)
        assert sturm_count(p, Fraction(-1), Fraction(0)) == 1
        assert sturm_count(p, Fraction(0), Fraction(1)) == 0

    def test_product_of_linear_factors(self):
        rng = random.Random(5)
        for _ in range(15):
            roots = rng.sample(range(-30, 30), rng.randint(1, 6))
            p = math.prod([P(-r, 1) for r in roots], start=RatPoly((1,)))
            assert sturm_count(p, None, None) == len(roots)

    def test_gcd_and_squarefree_detect(self):
        # the last term of the chain is gcd(p, p') up to a positive constant
        p = P(1, -2, 1) * P(1, 1)
        last = RatPoly(_sturm_sequence(p)[-1])
        assert last * (1 / lead(last)) == P(-1, 1)
        assert len(_sturm_sequence(P(-1, 0, 1))[-1]) == 1
        assert len(_sturm_sequence(P(1, 2, 1))[-1]) == 2


class TestSymmetry:
    def test_center_minus_one(self):
        assert symmetric_split(P(1, 2, 1)) == (Fraction(-1), P(0, 1))

    def test_odd_degree(self):
        assert symmetric_split(P(-1, 2)) == (Fraction(1, 2), P(2))

    def test_center_minus_half(self):
        assert symmetric_split(P(1, 1, 1)) == (Fraction(-1, 2), P(Fraction(3, 4), 1))

    def test_asymmetric(self):
        assert symmetric_split(P(1, 0, 0, 1)) is None

    def test_even_odd_split(self):
        assert symmetric_split(P(1, 4, 4)) == (Fraction(-1, 2), P(0, 4))
        assert symmetric_split(P(0, 0, 0, 1)) == (Fraction(0), P(0, 1))

    def test_split_rejects_asymmetric(self):
        # centered at 0 (no z^2 term) but with an even monomial
        assert symmetric_split(P(1, 1, 0, 1)) is None
        with pytest.raises(ValueError):
            symmetric_split(P(3))

    def test_split_round_trip(self):
        rng = random.Random(3)
        for _ in range(25):
            q = rand_poly(rng, rng.randint(1, 4))
            eps = rng.randint(0, 1)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            # p(z) = w^eps q(w^2) with w = z - c, built by interleaving
            interleaved = []
            for cf in q.coeffs:
                interleaved.extend([cf, Fraction(0)])
            q_of_w2 = RatPoly(tuple(interleaved[:-1]))
            p_in_w = q_of_w2 * P(*[0] * eps, 1)
            p = p_in_w.compose_affine(1, -c)
            assert symmetric_split(p) == (c, q)
