"""Brute-force polynomial helpers for the tests, kept independent of the
package's own arithmetic: plain Fraction coefficient lists, lowest degree
first."""

from fractions import Fraction
from math import factorial, lcm


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def psub(a, b):
    return padd(a, [-c for c in b])


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def pshift(p, d):
    """p(z - d) by Horner in the shifted variable."""
    acc = []
    for c in reversed(p):
        acc = padd(pmul(acc, [Fraction(-d), Fraction(1)]), [Fraction(c)])
    return acc


def pcompose_affine(p, a, b):
    """p(a*z + b) by Horner over Fraction lists."""
    acc = []
    for c in reversed(p):
        acc = padd(pmul(acc, [Fraction(b), Fraction(a)]), [Fraction(c)])
    return acc


def symmetric_even_part(p):
    """(c, q) when p(2c - z) = (-1)^n p(z) for c = -a_(n-1)/(n a_n), the only
    possible center, with q read off p(z + c) = w^eps q(w^2), eps = n mod 2;
    None when the reflection identity fails."""
    n = len(p) - 1
    c = -p[n - 1] / (n * p[n])
    if pcompose_affine(p, -1, 2 * c) != [(-1) ** n * x for x in p]:
        return None
    return c, pshift(p, -c)[n % 2 :: 2]


def pdivmod(a, b):
    """Quotient and remainder of a by a non-zero b, by schoolbook long
    division over Fraction lists."""
    b = [Fraction(c) for c in trim(b)]
    d, lc = len(b) - 1, b[-1]
    rem = [Fraction(c) for c in trim(a)]
    quo = [Fraction(0)] * max(0, len(rem) - d)
    while len(rem) - 1 >= d:
        shift = len(rem) - 1 - d
        f = rem[-1] / lc
        quo[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem = trim(rem)
    return trim(quo), rem


def interleave(q, eps):
    """w^eps q(w^2) as a coefficient list."""
    out = [Fraction(0)] * (eps + 2 * len(q) - 1)
    out[eps::2] = q
    return out


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def factored_value(exponents, x):
    """prod ((l*x + k)/k)^h over [(l, {k: h})], one Fraction factor at a time."""
    value = Fraction(1)
    for level, table in exponents:
        for k, h in table.items():
            for _ in range(h):
                value *= (level * x + k) / k
    return value


def factor_product(exponents):
    """prod ((l*z + k)/k)^h over [(l, {k: h})] as a coefficient list, one
    Fraction convolution per factor."""
    out = [Fraction(1)]
    for level, table in exponents:
        for k, h in table.items():
            for _ in range(h):
                out = pmul(out, [Fraction(1), level / k])
    return out


def centered(p, iota, e=0):
    """p((v - iota)/2) * (v/2)^e as a coefficient list in v = 2z + iota."""
    out = pcompose_affine(p, Fraction(1, 2), Fraction(-iota, 2))
    return pmul(out, [Fraction(0), Fraction(1, 2)]) if e else out


def residual_even(p, iota):
    """Q_R with p = (v/2)^e Q_R(v^2) in v = 2z + iota, e = deg p mod 2, as a
    coefficient list: the form a HilbertData keeps its residual in.  None
    when p is not symmetric about -iota/2."""
    e = (len(trim(p)) - 1) % 2
    c = centered(p, iota)
    if any(c[1 - e :: 2]):
        return None
    return [x * 2**e for x in c[e::2]]


def binom_poly(n):
    """C(z + n, n) as a coefficient list."""
    out = [Fraction(1)]
    for i in range(1, n + 1):
        out = pmul(out, [Fraction(i), Fraction(1)])
    return [c / factorial(n) for c in out]


def iterated_difference(p, degrees):
    """Fold p -> p(z) - p(z - d) over the degree list."""
    for d in degrees:
        p = psub(p, pshift(p, d))
    return p


def cover_sum(p, d):
    """p(z) + p(z - d)."""
    return padd(p, pshift(p, d))


def fraction_inverse_column(cartan, i):
    """Column i of the inverse Cartan matrix (omega_i over the simple roots),
    by Gauss-Jordan over Fraction with a pivot search."""
    n = len(cartan)
    aug = [[Fraction(cartan[r][c]) for c in range(n)] + [Fraction(int(r == i))] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def fraction_marked_lengths(cartan, i):
    """d_j = (a_j, a_j) / (a_i, a_i) over Fraction, read off the Cartan
    matrix along a spanning tree of the Dynkin diagram: C[a][b] / C[b][a]
    = (a_b, a_b) / (a_a, a_a)."""
    n = len(cartan)
    d = {i: Fraction(1)}
    todo = [i]
    while todo:
        a = todo.pop()
        for b in range(n):
            if b != a and b not in d and cartan[a][b] != 0:
                d[b] = d[a] * Fraction(cartan[a][b], cartan[b][a])
                todo.append(b)
    return [d[j] for j in range(n)]


def fraction_symmetrizer(cartan):
    """The symmetrizer as coprime positive integers: the Fraction spread
    from node 1, scaled by the lcm of its denominators."""
    d = fraction_marked_lengths(cartan, 0)
    scale = lcm(*(v.denominator for v in d))
    return tuple(int(v * scale) for v in d)


def fraction_index(cartan, positive_roots, i):
    """(2 rho, omega_0) / (omega_0, omega_0) over Fraction, in the invariant
    pairing (x, y) = sum of x_j d_j C_jk y_k with d marked at node i."""
    n = len(cartan)
    d = fraction_marked_lengths(cartan, i)
    w = fraction_inverse_column(cartan, i)
    two_rho = [sum(a[j] for a in positive_roots) for j in range(n)]

    def pair(x, y):
        return sum(x[j] * d[j] * cartan[j][k] * y[k] for j in range(n) for k in range(n))
    return pair(two_rho, w) / pair(w, w)


def reflection_closure(cartan):
    """The positive roots as the orbit of the simple roots under the simple
    reflections s_i(a) = a - <a, a_i^vee> a_i, with <a, a_i^vee> row i of
    the Cartan matrix times a; sorted by height, then lexicographically."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    orbit, todo = set(simple), list(simple)
    while todo:
        a = todo.pop()
        for i in range(n):
            b = list(a)
            b[i] -= sum(cartan[i][j] * a[j] for j in range(n))
            b = tuple(b)
            if b not in orbit:
                orbit.add(b)
                todo.append(b)
    positive = [a for a in orbit if min(a) >= 0]
    return sorted(positive, key=lambda a: (sum(a), a))


def fraction_rho_pair(d, root):
    """(rho, a) = sum of c_j d_j, one Fraction product per coordinate."""
    total = Fraction(0)
    for c, dj in zip(root, d):
        total += c * dj
    return total


def alternates(coeffs, points):
    """True when the polynomial takes strictly alternating non-zero signs at
    deg + 1 strictly increasing points, by Fraction Horner alone: it then
    has a simple real root between each two neighbours, and no other."""
    coeffs = trim(coeffs)
    if len(points) != len(coeffs) or any(a >= b for a, b in zip(points, points[1:])):
        return False
    values = [peval(coeffs, x) for x in points]
    return all(values) and all((a > 0) != (b > 0) for a, b in zip(values, values[1:]))


def strip_scan(roots, iota, dim, line, dichotomy, segment_pairs, segment_boundary, res_roots):
    """(verdicts, witnesses, boundary contact) by scanning every rational root
    (Fractions in the anticanonical variable, increasing) against Fraction
    strips: CS (-1, 0), NCS (-1 + 1/m, -1/m) with m = dim + 1, TCS
    [-1 + 1/iota, -1/iota] and CL {-1/2}.  `line` and `dichotomy` are the
    residual's statuses.  A violated status fails its hypotheses first; then
    NCS fails when residual roots leave the narrow strip; then the first
    root outside a strip is its witness."""
    verdicts, witnesses = {}, {}

    def decide(name, status, inside, ok):
        bad = next((r for r in roots if not ok(r)), None)
        if status == "violated":
            witnesses[name] = ("residual roots escape the certified region" if iota > 0
                               else "roots off the symmetry line")
        elif res_roots and not inside:
            witnesses[name] = "residual roots fall outside the strip"
        elif bad is not None:
            witnesses[name] = str(bad)
        verdicts[name] = "fails" if name in witnesses else "holds"

    if iota > 0:
        m, ends = dim + 1, (Fraction(1 - iota, iota), Fraction(-1, iota))
        decide("CS", dichotomy, True, lambda r: -1 < r < 0)
        narrow = m > 2 and (segment_pairs == 0 or iota < m)
        decide("NCS", dichotomy, narrow, lambda r: Fraction(1 - m, m) < r < Fraction(-1, m))
        decide("TCS", dichotomy, True, lambda r: ends[0] <= r <= ends[1])
        boundary = any(r in ends for r in roots) or segment_boundary
    else:
        verdicts, boundary = dict.fromkeys(("CS", "NCS", "TCS"), "not_applicable"), False
    decide("CL", line, True, lambda r: r == Fraction(-1, 2))
    return verdicts, witnesses, boundary
