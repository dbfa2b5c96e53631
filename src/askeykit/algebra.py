"""Exact scalar and polynomial arithmetic.

Everything in this package computes over the Gaussian rationals Q(i):
arbitrary-precision integers for numerators and denominators, never
floating point.  Polynomials in x are dense; the Askey-Wilson layer works
with Laurent polynomials in z carrying the substitution x = (z + 1/z)/2.

Scalars and polynomials are both held fraction-free, in the layouts of
FLINT.  A GaussianRational is (r + i*i)/d for Python ints r, i and one
positive denominator d with gcd(r, i, d) = 1 (the fmpq layout, extended to
Q(i)); real products cross-cancel before they multiply, so they need no
final gcd.  A Poly keeps integer numerators for the real and imaginary
parts of its coefficients over one shared positive denominator, in a
canonical form (content 1, top coefficient nonzero), so products, sums
and affine substitutions run on Python ints and cancel common factors once
per result instead of once per coefficient.  The operators divide in their
own integer kernels, so Poly.exact_div is plain long division over Q(i): it
serves only cold paths, such as the lowest terms `askeykit toda` prints.
A Laurent polynomial wraps a Poly body and uses the same kernels; its
subclass SymLaurent only marks one whose z <-> 1/z symmetry was checked
when it was made, by one palindrome test on the integer numerators.
Coefficients are turned back into GaussianRational values only where they
are read.

A difference operator is a DifferenceOperator: a list of taps, each a
multiplier polynomial times the identity, d/dx or a substitution
x |-> alpha*x + beta, optionally divided exactly by c*x.  It is applied in
one pass over integer numerators (one Taylor shift per substitution, the
tap products summed over one common denominator) with one canonical form
per application; `product` multiplies several factors with one canonical
form in the same way.  Its Laurent form, LaurentOperator, acts on symmetric
Laurent polynomials: each tap is a Laurent multiplier times a dilation
z |-> p^(+-1) z, the sum is optionally divided exactly by a Laurent
polynomial with unit top coefficient (synthetic division), and the input
and the quotient are checked to be palindromes, again with one canonical
form per application.

The closed hypergeometric forms, series sum_k prod_(j<k) rho_j phi_j with
Gaussian-integer fractions rho_j and short integer polynomials phi_j, are
summed by horner_series from the top with one canonical form.

A point e^(i phi) on the unit circle is an ordinary GaussianRational,
made by unit_phase from the half-angle tangent tan(phi/2); its inverse is its
conjugate.

fractions.Fraction is no scalar type of the package.  It remains only at
the edges: the CLI parses `--param` text with it, the `re`/`im` views of a
scalar return it, and scalar(), Poly(...) and GaussianRational(a, b) accept
it as input (the benchmark harness builds its probe inputs from Fractions).
"""

from __future__ import annotations

from fractions import Fraction as Rational
from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from sys import hash_info

__all__ = [
    "GaussianRational",
    "Poly",
    "Laurent",
    "SymLaurent",
    "DifferenceOperator",
    "LaurentOperator",
    "product",
    "horner_series",
    "term_sum",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "GR_HALF_I",
    "SYM_X",
    "scalar",
    "binomial",
    "factorial",
    "pochhammer",
    "q_pochhammer",
    "q_binomial",
    "tangent_subtract",
    "unit_phase",
    "chebyshev_lift",
    "chebyshev_project",
    "rational_str",
]


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def rational_str(v) -> str:
    """Canonical "num/den" form with an explicit denominator; v must be real."""
    s = GaussianRational.coerce(v)
    if s.i:
        raise TypeError(f"{v!r} is not real")
    return f"{s.r}/{s.d}"


_new = object.__new__
_HASH_MODULUS, _HASH_INF = hash_info.modulus, hash_info.inf


def _gr(r: int, i: int, d: int) -> "GaussianRational":
    """A GaussianRational from parts already in canonical form."""
    g = _new(GaussianRational)
    g.r = r
    g.i = i
    g.d = d
    return g


def _reduce(r: int, i: int, d: int) -> "GaussianRational":
    """(r + i*i)/d in canonical form, for integers with d != 0."""
    if d < 0:
        r, i, d = -r, -i, -d
    g = gcd(r, i, d)
    if g == 1:
        return _gr(r, i, d)
    return _gr(r // g, i // g, d // g)


def _scalar(v):
    """v as a GaussianRational, or None when v is no scalar."""
    t = type(v)
    if t is GaussianRational:
        return v
    if t is int:
        return _gr(v, 0, 1)
    if t is Rational:
        return _gr(v.numerator, 0, v.denominator)
    return None


def _sum(ar: int, ai: int, ad: int, br: int, bi: int, bd: int) -> "GaussianRational":
    """(ar + ai*i)/ad + (br + bi*i)/bd.

    Real sums take the two-gcd route of Knuth (TAOCP 4.5.1); a shared
    denominator needs one gcd of the summed numerators.
    """
    if ai or bi:
        if ad == bd:
            return _reduce(ar + br, ai + bi, ad)
        return _reduce(ar * bd + br * ad, ai * bd + bi * ad, ad * bd)
    if ad == bd:
        r = ar + br
        g = gcd(r, ad)
        return _gr(r, 0, ad) if g == 1 else _gr(r // g, 0, ad // g)
    g = gcd(ad, bd)
    if g == 1:
        return _gr(ar * bd + br * ad, 0, ad * bd)
    s = ad // g
    t = ar * (bd // g) + br * s
    g2 = gcd(t, g)
    return _gr(t // g2, 0, s * (bd // g2))


def _ordered(a, b):
    """(x, y) with x < y exactly when the real values a < b; None if b is no scalar."""
    o = _scalar(b)
    if o is None:
        return None
    if a.i or o.i:
        raise TypeError("only real Gaussian rationals are ordered")
    return a.r * o.d, o.r * a.d


class GaussianRational:
    """Element of Q(i): the exact value (r + i*i)/d.

    r, i and d are Python ints with d > 0 and gcd(r, i, d) = 1, so equal
    values have equal parts.  `re` and `im` are Fraction views built on
    access.  Real values are ordered; ordering a non-real value raises
    TypeError.
    """

    __slots__ = ("r", "i", "d")

    def __init__(self, re=0, im=0):
        a, b = _scalar(re), _scalar(im)
        if a is None or b is None:
            raise TypeError(f"GaussianRational parts must be scalars, got {re!r}, {im!r}")
        # a + b*i
        g = _reduce(a.r * b.d - b.i * a.d, a.i * b.d + b.r * a.d, a.d * b.d) if b else a
        self.r, self.i, self.d = g.r, g.i, g.d

    @staticmethod
    def from_parts(re: int, im: int, den: int) -> "GaussianRational":
        """(re + im*i)/den from integers, in canonical form."""
        if not den:
            raise ZeroDivisionError("Gaussian rational with zero denominator")
        return _reduce(re, im, den)

    @staticmethod
    def coerce(v) -> "GaussianRational":
        s = _scalar(v)
        if s is None:
            raise TypeError(f"not a Gaussian rational: {v!r}")
        return s

    @property
    def re(self) -> Rational:
        return Rational(self.r, self.d)

    @property
    def im(self) -> Rational:
        return Rational(self.i, self.d)

    @property
    def is_real(self) -> bool:
        return not self.i

    def __bool__(self) -> bool:
        return bool(self.r or self.i)

    def __eq__(self, other) -> bool:
        o = other if type(other) is GaussianRational else _scalar(other)
        if o is None:
            return NotImplemented
        return self.r == o.r and self.i == o.i and self.d == o.d

    def __hash__(self):
        # a real value hashes like the equal int or Fraction (the formula of
        # fractions.Fraction.__hash__), so it finds them in sets and dicts
        r, d = self.r, self.d
        if self.i:
            return hash((r, self.i, d))
        if d == 1:
            return hash(r)
        try:
            h = hash(hash(abs(r)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:  # d is a multiple of the modulus
            h = _HASH_INF
        h = h if r >= 0 else -h
        return -2 if h == -1 else h

    def __neg__(self):
        return _gr(-self.r, -self.i, self.d)

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _scalar(other)
        if o is None:
            return NotImplemented
        return _sum(self.r, self.i, self.d, o.r, o.i, o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else _scalar(other)
        if o is None:
            return NotImplemented
        return _sum(self.r, self.i, self.d, -o.r, -o.i, o.d)

    def __rsub__(self, other):
        o = _scalar(other)
        if o is None:
            return NotImplemented
        return _sum(o.r, o.i, o.d, -self.r, -self.i, self.d)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _scalar(other)
        if o is None:
            return NotImplemented
        ar, ai, ad, br, bi, bd = self.r, self.i, self.d, o.r, o.i, o.d
        if not ai and not bi:
            # cross-cancel first (Henrici): the product is then already reduced
            g1, g2 = gcd(ar, bd), gcd(br, ad)
            return _gr((ar // g1) * (br // g2), 0, (ad // g2) * (bd // g1))
        return _reduce(ar * br - ai * bi, ar * bi + ai * br, ad * bd)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        r, i, d = self.r, self.i, self.d
        if not i:
            if not r:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            return _gr(d, 0, r) if r > 0 else _gr(-d, 0, -r)
        # d / (r + i*i) = d (r - i*i) / (r^2 + i^2)
        return _reduce(d * r, -d * i, r * r + i * i)

    def __truediv__(self, other):
        o = _scalar(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _scalar(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if not self.i:
            return _gr(self.r ** k, 0, self.d ** k)
        # the Gaussian integer r + i*i to the k by squaring, over d^k
        den = self.d ** k
        r, i = 1, 0
        br, bi = self.r, self.i
        while k:
            if k & 1:
                r, i = r * br - i * bi, r * bi + i * br
            k >>= 1
            if k:
                br, bi = br * br - bi * bi, 2 * br * bi
        return _reduce(r, i, den)

    def conjugate(self) -> "GaussianRational":
        return _gr(self.r, -self.i, self.d)

    def __lt__(self, other):
        p = _ordered(self, other)
        return NotImplemented if p is None else p[0] < p[1]

    def __le__(self, other):
        p = _ordered(self, other)
        return NotImplemented if p is None else p[0] <= p[1]

    def __gt__(self, other):
        p = _ordered(self, other)
        return NotImplemented if p is None else p[0] > p[1]

    def __ge__(self, other):
        p = _ordered(self, other)
        return NotImplemented if p is None else p[0] >= p[1]

    def _real(self, what: str) -> None:
        if self.i:
            raise TypeError(f"{what} of a non-real Gaussian rational {self!r}")

    def __floor__(self) -> int:
        self._real("floor")
        return self.r // self.d

    def __ceil__(self) -> int:
        self._real("ceil")
        return -(-self.r // self.d)

    def __abs__(self) -> "GaussianRational":
        self._real("abs")
        return _gr(abs(self.r), 0, self.d)

    def __repr__(self):
        if not self.i:
            return f"{self.r}" if self.d == 1 else f"{self.r}/{self.d}"
        re, im = self.re, self.im
        if not re:
            return f"{im}*i"
        sign = "+" if im >= 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF_I = _gr(0, 1, 2)


def scalar(v, den: int = 1) -> GaussianRational:
    """v/den as a GaussianRational: v an int, Fraction or GaussianRational."""
    s = GaussianRational.coerce(v)
    if den == 1:
        return s
    return GaussianRational.from_parts(s.r, s.i, s.d * den)


def pochhammer(a, k: int):
    """Rising factorial a(a+1)...(a+k-1); the empty product for k = 0."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    a = GaussianRational.coerce(a)
    out = GR_ONE
    for j in range(k):
        out = out * (a + j)
    return out


def q_pochhammer(a, q, k: int):
    """q-shifted factorial (a; q)_k = (1-a)(1-aq)...(1-aq^(k-1))."""
    if k < 0:
        raise ValueError("q_pochhammer needs k >= 0")
    a = GaussianRational.coerce(a)
    q = GaussianRational.coerce(q)
    # on Gaussian integers over one denominator, a q^j = (pr + pi*i)/pd; one gcd
    pr, pi, pd = a.r, a.i, a.d
    nr, ni, den = 1, 0, 1
    for _ in range(k):
        tr, ti = pd - pr, -pi
        nr, ni = nr * tr - ni * ti, nr * ti + ni * tr
        den *= pd
        pr, pi, pd = pr * q.r - pi * q.i, pr * q.i + pi * q.r, pd * q.d
    return _reduce(nr, ni, den)


def q_binomial(n: int, k: int, q) -> GaussianRational:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_(n-k)) for a real base q."""
    if k < 0 or k > n:
        raise ValueError(f"q_binomial needs 0 <= k <= n, got n={n}, k={k}")
    q = GaussianRational.coerce(q)
    if q.i:
        raise TypeError("q_binomial needs a real base")
    # with q = r/d: prod_(j=1..k) (d^(n-k+j) - r^(n-k+j)) / ((d^j - r^j) d^(n-k))
    r, d = q.r, q.d
    rh, dh = r ** (n - k), d ** (n - k)
    rl = dl = num = den = 1
    for _ in range(k):
        rh *= r
        dh *= d
        rl *= r
        dl *= d
        num *= dh - rh
        den *= dl - rl
    if not den:
        raise ZeroDivisionError("q_binomial at q = 1")
    return _reduce(num, 0, den * d ** ((n - k) * k))


def tangent_subtract(s, r) -> GaussianRational:
    """tan(A - B) from tan A = s and tan B = r; denominator 1+sr must be nonzero."""
    s = GaussianRational.coerce(s)
    r = GaussianRational.coerce(r)
    d = s * r + 1
    if not d:
        raise ZeroDivisionError("tangent difference undefined (angles sum to pi/2)")
    return (s - r) / d


def unit_phase(s) -> GaussianRational:
    """e^(i phi) from the half-angle tangent s = tan(phi/2), for real s.

    The value ((1 - s^2) + 2si) / (1 + s^2) is exact whenever s is rational;
    its inverse is its conjugate.
    """
    s = GaussianRational.coerce(s)
    if s.i:
        raise TypeError("unit_phase needs a real half-angle tangent")
    r, d = s.r, s.d
    return _reduce(d * d - r * r, 2 * r * d, d * d + r * r)


def _parts(c) -> tuple:
    """(re, im, den) integers with c = (re + im*i)/den and den > 0."""
    if type(c) is int:
        return c, 0, 1
    if type(c) is not GaussianRational:
        c = GaussianRational.coerce(c)
    return c.r, c.i, c.d


def _poly(re: tuple, im, den: int) -> "Poly":
    """A Poly from parts already in canonical form."""
    p = Poly.__new__(Poly)
    p.re = re
    p.im = im
    p.den = den
    return p


def _canon(re, im, den: int) -> "Poly":
    """The Poly (re + im*i)/den in canonical form.

    re and im are integer sequences of one length (im may be None) and
    den > 0: trailing zeros go, an all-zero im becomes None and the content
    gcd(den, *re, *im) is divided out, once for the whole polynomial.
    """
    n = len(re)
    while n and not re[n - 1] and not (im and im[n - 1]):
        n -= 1
    if not n:
        return _P_ZERO
    re = re[:n]
    if im is not None:
        im = im[:n]
        if not any(im):
            im = None
    g = gcd(den, *re, *(im or ()))
    if g == 1:
        return _poly(tuple(re), im and tuple(im), den)
    return _poly(tuple(c // g for c in re), im and tuple(c // g for c in im), den // g)


def _axpy(x, fx: int, y, fy: int) -> list:
    """fx*x + fy*y elementwise; the shorter sequence is padded with zeros."""
    if fx == 1:
        return [a + b * fy for a, b in zip_longest(x, y, fillvalue=0)]
    return [a * fx + b * fy for a, b in zip_longest(x, y, fillvalue=0)]


def _conv(a, b) -> list:
    """Product of two integer coefficient sequences."""
    if len(b) == 1:
        y = b[0]
        return [x * y for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _cmul(ar, ai, br, bi) -> tuple:
    """(ar + ai*i)(br + bi*i) on coefficient sequences; None is a zero imaginary part."""
    re = _conv(ar, br)
    if ai is None:
        return re, None if bi is None else _conv(ar, bi)
    if bi is None:
        return re, _conv(ai, br)
    im = _axpy(_conv(ar, bi), 1, _conv(ai, br), 1)
    return _axpy(re, 1, _conv(ai, bi), -1), im


def _shift_real(g: list, b: int) -> None:
    """g |-> the coefficients of g(y + b), in place, by repeated synthetic division."""
    n = len(g) - 1
    for i in range(n):
        acc = g[n]
        for j in range(n - 1, i - 1, -1):
            acc = g[j] + b * acc
            g[j] = acc


def _substitute(fr, fi, ar: int, ai: int, br: int, bi: int, e: int) -> tuple:
    """Numerators (re, im) of e^n f(alpha*x + beta); no canonical form.

    f = fr + fi*i has integer coefficient sequences (fi may be None) and
    degree n >= 0; alpha = (ar + ai*i)/e and beta = (br + bi*i)/e with e > 0,
    so e^n f(alpha*x + beta) = sum_k F_k e^(n-k) (b + a*x)^k has integer
    coefficients.  The scaled F_k e^(n-k) are Taylor-shifted by b in place
    (y |-> y + b, by the repeated synthetic division of von zur Gathen and
    Gerhard), and y^j then becomes a^j x^j.  The returned im is None when
    the result is real.
    """
    n = len(fr) - 1
    gr = list(fr)
    gi = None if fi is None else list(fi)
    if e != 1:
        epow = 1
        for k in range(n - 1, -1, -1):
            epow *= e
            gr[k] *= epow
            if gi is not None:
                gi[k] *= epow
    if (bi or ai) and gi is None:
        gi = [0] * (n + 1)
    if bi:
        for i in range(n):
            xr, xi = gr[n], gi[n]
            if br:
                for j in range(n - 1, i - 1, -1):
                    xr, xi = gr[j] + br * xr - bi * xi, gi[j] + br * xi + bi * xr
                    gr[j] = xr
                    gi[j] = xi
            else:
                for j in range(n - 1, i - 1, -1):
                    xr, xi = gr[j] - bi * xi, gi[j] + bi * xr
                    gr[j] = xr
                    gi[j] = xi
    elif br:
        _shift_real(gr, br)
        if gi is not None:
            _shift_real(gi, br)
    if ai:
        pr, pi = 1, 0  # a^j
        for j in range(1, n + 1):
            pr, pi = pr * ar - pi * ai, pr * ai + pi * ar
            gr[j], gi[j] = gr[j] * pr - gi[j] * pi, gr[j] * pi + gi[j] * pr
    elif ar != 1:
        apow = 1
        for j in range(1, n + 1):
            apow *= ar
            gr[j] *= apow
            if gi is not None:
                gi[j] *= apow
    return gr, gi


class Poly:
    """Dense univariate polynomial over Q(i), held fraction-free.

    The x^k coefficient is (re[k] + im[k]*i)/den: `re` and `im` are tuples
    of Python ints and `den` one shared positive denominator (the fmpq_poly
    layout of FLINT).  `im` is None exactly when every coefficient is real.
    The form is canonical: den > 0, gcd(den, *re, *im) == 1, and the top
    coefficient is nonzero (the zero polynomial has re == ()).  So equal
    polynomials have equal parts, and every kernel below works on integers
    and divides the content out once per result.  `coeffs` is a view of the
    coefficients as GaussianRational values, built on each access.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, coeffs=()):
        parts = [_parts(c) for c in coeffs]
        den = lcm(*(d for _, _, d in parts))
        p = _canon([r * (den // d) for r, _, d in parts], [i * (den // d) for _, i, d in parts], den)
        self.re, self.im, self.den = p.re, p.im, p.den

    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def one() -> "Poly":
        return _P_ONE

    @staticmethod
    def x() -> "Poly":
        return _P_X

    @staticmethod
    def constant(c) -> "Poly":
        return Poly.monomial(0, c)

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        cr, ci, cd = _parts(c)
        zeros = [0] * k
        return _canon(zeros + [cr], zeros + [ci] if ci else None, cd)

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.re) - 1

    @property
    def is_real(self) -> bool:
        return self.im is None

    def _coef(self, k: int) -> GaussianRational:
        return _reduce(self.re[k], 0 if self.im is None else self.im[k], self.den)

    @property
    def coeffs(self) -> tuple:
        return tuple(self._coef(k) for k in range(len(self.re)))

    @property
    def lead(self) -> GaussianRational:
        if not self.re:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coef(-1)

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.re):
            return self._coef(k)
        return GR_ZERO

    def __bool__(self):
        return bool(self.re)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.re == other.re and self.im == other.im and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __neg__(self):
        im = self.im
        return _poly(tuple(-c for c in self.re), im and tuple(-c for c in im), self.den)

    def _add(self, other, sign: int) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        re = _axpy(self.re, fa, other.re, sign * fb)
        im = None
        if self.im is not None or other.im is not None:
            im = _axpy(self.im or (), fa, other.im or (), sign * fb)
            im += [0] * (len(re) - len(im))
        return _canon(re, im, da * fa)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            re, im = _cmul(self.re, self.im, other.re, other.im)
            return _canon(re, im, self.den * other.den)
        sr, si, sd = _parts(other)
        re, im = _cmul(self.re, self.im, (sr,), (si,) if si else None)
        return _canon(re, im, self.den * sd)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = _P_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, value):
        return self.compose_affine(0, value).coefficient(0)

    def compose_affine(self, alpha, beta) -> "Poly":
        """x |-> f(alpha*x + beta), on integer numerators (see _substitute)."""
        if not self.re:
            return _P_ZERO
        ar, ai, ad = _parts(alpha)
        br, bi, bd = _parts(beta)
        e = lcm(ad, bd)
        fa, fb = e // ad, e // bd
        re, im = _substitute(self.re, self.im, ar * fa, ai * fa, br * fb, bi * fb, e)
        return _canon(re, im, self.den * e ** (len(self.re) - 1))

    def derivative(self) -> "Poly":
        im = self.im
        return _canon(
            [k * c for k, c in enumerate(self.re[1:], 1)],
            im and [k * c for k, c in enumerate(im[1:], 1)],
            self.den,
        )

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact quotient by long division; a nonzero remainder is a correctness tripwire."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        inv, quot, rem = other.lead.inverse(), _P_ZERO, self
        while rem.degree >= other.degree:
            term = Poly.monomial(rem.degree - other.degree, rem.lead * inv)
            quot, rem = quot + term, rem - other * term
        if rem:
            raise ValueError(f"nonzero remainder in exact division: {rem}")
        return quot

    def __repr__(self):
        return _terms_text(self, 0, "x")


def _terms_text(body: Poly, low: int, var: str) -> str:
    """var^low * body as its nonzero terms c*var^k from the top down, joined by " + "; "0" for zero."""
    parts = []
    for j in range(len(body.re) - 1, -1, -1):
        c, k = body._coef(j), low + j
        if c:
            parts.append(f"{c}" if k == 0 else f"{c}*{var}" if k == 1 else f"{c}*{var}^{k}")
    return " + ".join(parts) or "0"


_P_ZERO = _poly((), None, 1)
_P_ONE = _poly((1,), None, 1)
_P_X = _poly((0, 1), None, 1)


class DifferenceOperator:
    """The linear map f |-> (sum_t M_t(x) (S_t f)(x)) / (c*x) on Poly.

    `taps` lists pairs (M, S): the multiplier M by its coefficients from x^0
    up, and the substitution S, which is None (the identity), "d" (d/dx) or
    (alpha, beta) for x |-> alpha*x + beta.  With `divisor` c the sum is
    divided exactly by c*x; a nonzero constant term before that division is
    the ValueError of Poly.exact_div.  A triple (M, (alpha, beta), s), with
    s = 1 or -1, declares the conjugate pair of taps
    M f(alpha*x + beta) + s conj(M) f(alpha*x + conj beta).

    The multipliers are put over one denominator, with 1/c folded in, when
    the operator is built, so an application runs on integer numerators: one
    raw substitution pass per tap, the tap products summed over one common
    denominator, one canonical form.  On a real input, with alpha real,
    f(alpha*x + conj beta) is the conjugate of A = f(alpha*x + beta), so a
    declared pair whose sum is 2 Re(M A) for the folded M (1/c real and
    s = 1, or 1/c imaginary and s = -1) is computed from A once.  Any other
    pair, and a complex input, takes both taps.
    """

    __slots__ = ("_taps", "_den", "_e", "_divisor")

    def __init__(self, taps, divisor=None):
        ur, ui, ud = 1, 0, 1
        if divisor is not None:
            divisor = GaussianRational.coerce(divisor)
            u = divisor.inverse()
            ur, ui, ud = u.r, u.i, u.d
        flat = []  # (multiplier parts, substitution, pair flag)
        for m, sub, *sign in taps:
            ps = [_parts(c) for c in m]
            if not sign:
                flat.append((ps, sub, 0))
                continue
            # the folded pair is u M A + s u conj(M A), which is 2 Re(u M A)
            # when u = 1/c is real and s = 1, or imaginary and s = -1
            s, (alpha, beta) = sign[0], sub
            fold = not _parts(alpha)[1] and s == (-1 if ui else 1) and not (ur and ui)
            flat.append((ps, sub, 1 if fold else 0))
            conj = (alpha, GaussianRational.coerce(beta).conjugate())
            flat.append(([(s * r, -s * i, d) for r, i, d in ps], conj, 2 if fold else 0))
        md = lcm(*(d for ps, _, _ in flat for _, _, d in ps))
        prepared = []
        for ps, sub, pair in flat:
            mr = [(r * ur - i * ui) * (md // d) for r, i, d in ps]
            mi = [(r * ui + i * ur) * (md // d) for r, i, d in ps]
            while mr and not mr[-1] and not mi[-1]:
                mr.pop()
                mi.pop()
            if not mr:
                continue
            e = 1
            if sub is not None and sub != "d":
                (ar, ai, ad), (br, bi, bd) = _parts(sub[0]), _parts(sub[1])
                e = lcm(ad, bd)
                sub = (ar * (e // ad), ai * (e // ad), br * (e // bd), bi * (e // bd), e)
            prepared.append((sub, e, tuple(mr), tuple(mi) if any(mi) else None, pair))
        self._e = lcm(*(t[1] for t in prepared))
        self._taps = tuple((sub, self._e // e, mr, mi, pair) for sub, e, mr, mi, pair in prepared)
        self._den = md * ud
        self._divisor = divisor

    def __call__(self, f: Poly) -> Poly:
        fr, fi = f.re, f.im
        if not fr:
            return _P_ZERO
        n = len(fr) - 1
        real = fi is None
        accr, acci = [], []
        for sub, base, mr, mi, pair in self._taps:
            if real and pair == 2:  # the conjugate partner, folded into its pair
                continue
            if sub is None:
                sr, si = fr, fi
            elif sub == "d":
                sr = [k * c for k, c in enumerate(fr[1:], 1)]
                si = fi and [k * c for k, c in enumerate(fi[1:], 1)]
            else:
                sr, si = _substitute(fr, fi, *sub)
            s = base ** n
            if real and pair:  # 2 Re(M A)
                s *= 2
                tr, ti = _conv(sr, mr), None
                if mi and si:
                    tr = _axpy(tr, 1, _conv(si, mi), -1)
            elif mi is None and len(mr) == 1:  # a real constant scales the sum
                tr, ti = sr, si
                s *= mr[0]
            else:
                tr, ti = _cmul(sr, si, mr, mi)
            if tr is not None:
                accr = _axpy(accr, 1, tr, s)
            if ti is not None:
                acci = _axpy(acci, 1, ti, s)
        if self._divisor is not None:
            r0 = accr[0] if accr else 0
            i0 = acci[0] if acci else 0
            if r0 or i0:
                rem = _reduce(r0, i0, f.den * self._den * self._e ** n) * self._divisor
                raise ValueError(f"nonzero remainder in exact division: {rem}")
            accr, acci = accr[1:], acci[1:]
        if not any(acci):
            acci = None
        elif len(acci) < len(accr):
            acci += [0] * (len(accr) - len(acci))
        return _canon(accr, acci, f.den * self._den * self._e ** n)


def term_sum(terms):
    """The sum of a nonempty sequence of terms, in order."""
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def product(c, *factors):
    """c times the product of the factors, canonicalized once.

    The factors are all Poly or all Laurent polynomials; c is a scalar.
    """
    if type(factors[0]) is Poly:
        cr, ci, den = _parts(c)
        re, im = (cr,), (ci,) if ci else None
        for f in factors:
            re, im = _cmul(f.re, f.im, re, im)
            den *= f.den
        return _canon(re, im, den)
    return _laurent(sum(f.low for f in factors), product(c, *(f.body for f in factors)))


def horner_series(steps, c=1, low=None):
    """c * sum_(k<=n) prod_(j<k) rho_j phi_j by Horner from the top,
    1 + rho_0 phi_0 (1 + rho_1 phi_1 (1 + ...)), with one canonical form.

    Step j is (nr, ni, d, fr, fi, o): rho_j = (nr + ni*i)/d with d != 0 and
    phi_j = z^o (fr + fi*i) with integer coefficients (fi may be None), o <= 0.
    Each ratio is reduced by one gcd and multiplied into its short factor; the
    1 of a level is the running denominator placed at the offset
    -(o_j + ... + o_(n-1)); c is folded in before the canonical form.  The
    result is a Poly when low is None (all o = 0), else z^low times the sum.
    """
    pr, pi, den, pos = [1], None, 1, 0
    for nr, ni, d, fr, fi, o in reversed(steps):
        if not d:
            raise ZeroDivisionError("hypergeometric term ratio with a zero denominator")
        g = gcd(nr, ni, d) if d > 0 else -gcd(nr, ni, d)
        nr, ni = nr // g, ni // g
        if ni or fi is not None:
            mr, mi = _cmul(fr, fi, (nr,), (ni,) if ni else None)
            pr, pi = _cmul(mr, mi if any(mi) else None, pr, pi)
        else:
            pr, pi = _cmul([nr * a for a in fr], None, pr, pi)
        den *= d // g
        pos -= o
        pr += [0] * (pos + 1 - len(pr))
        pr[pos] += den
        if pi is not None:
            pi += [0] * (len(pr) - len(pi))
    cr, ci, cd = _parts(c)
    body = _canon(*_cmul(pr, pi, (cr,), (ci,) if ci else None), den * cd)
    return body if low is None else _laurent(low - pos, body)


def _laurent(low: int, body: Poly) -> "Laurent":
    """z^low * body, with the body's zero low-order coefficients moved into low."""
    re, im = body.re, body.im
    j = 0
    while j < len(re) and not re[j] and not (im and im[j]):
        j += 1
    if j:
        body = _poly(re[j:], im and im[j:], body.den)
    f = Laurent.__new__(Laurent)
    f.low = low + j if re else 0
    f.body = body
    return f


class Laurent:
    """Laurent polynomial in z: z^low times a Poly body with a nonzero constant term.

    The body carries the fraction-free layout and kernels of Poly, so equal
    Laurent polynomials have equal (low, body); zero has low == 0.
    """

    __slots__ = ("low", "body")

    def __init__(self, low: int = 0, coeffs=()):
        f = _laurent(low, Poly(coeffs))
        self.low, self.body = f.low, f.body

    @staticmethod
    def coerce(v) -> "Laurent":
        if isinstance(v, Laurent):
            return v
        return Laurent(0, [v])

    @staticmethod
    def zero() -> "Laurent":
        return Laurent(0, ())

    @staticmethod
    def one() -> "Laurent":
        return Laurent(0, (1,))

    @staticmethod
    def monomial(k: int, c=1) -> "Laurent":
        return Laurent(k, (c,))

    @staticmethod
    def from_poly(body: Poly, low: int = 0) -> "Laurent":
        """z^low * body(z)."""
        return _laurent(low, body)

    @property
    def coeffs(self) -> tuple:
        return self.body.coeffs

    @property
    def degree(self) -> int:
        """The top power of z; -1 for the zero polynomial."""
        return self.low + self.body.degree

    @property
    def lead(self) -> GaussianRational:
        return self.body.lead

    def coefficient(self, k: int) -> GaussianRational:
        return self.body.coefficient(k - self.low)

    def __bool__(self):
        return bool(self.body)

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            c = _scalar(other)
            if c is None:
                return NotImplemented
            other = _laurent(0, Poly.constant(c))
        return self.low == other.low and self.body == other.body

    def __hash__(self):
        # a constant hashes like the equal scalar, as it compares equal to it
        b = self.body
        if not self.low and len(b.re) <= 1:
            return hash(b.coefficient(0))
        return hash((self.low, b))

    def __neg__(self):
        return _laurent(self.low, -self.body)

    def __add__(self, other):
        o = Laurent.coerce(other)
        if not self.body:
            return o
        if not o.body:
            return self
        low = min(self.low, o.low)
        return _laurent(low, _shift(self.body, self.low - low) + _shift(o.body, o.low - low))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Laurent.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rational, GaussianRational)):
            return _laurent(self.low, self.body * other)
        o = Laurent.coerce(other)
        return _laurent(self.low + o.low, self.body * o.body)

    __rmul__ = __mul__

    def scale_var(self, p) -> "Laurent":
        """z |-> p*z: multiplies the z^k coefficient by p^k."""
        p = GaussianRational.coerce(p)
        if not p:
            raise ZeroDivisionError("scale_var needs p != 0")
        b = self.body
        if not b:
            return self
        # the body's x^j gains p^j by one raw dilation, the whole by p^low
        c = p ** self.low
        re, im = _substitute(b.re, b.im, p.r, p.i, 0, 0, p.d)
        re, im = _cmul(re, im, (c.r,), (c.i,) if c.i else None)
        return _laurent(self.low, _canon(re, im, b.den * p.d ** b.degree * c.d))

    def invert_var(self) -> "Laurent":
        """z |-> 1/z."""
        b = self.body
        return _laurent(-self.degree, _poly(b.re[::-1], b.im and b.im[::-1], b.den))

    def exact_div(self, other: "Laurent") -> "Laurent":
        o = Laurent.coerce(other)
        if not o:
            raise ZeroDivisionError("Laurent division by zero")
        return _laurent(self.low - o.low, self.body.exact_div(o.body))

    def is_symmetric(self) -> bool:
        """Whether f(z) = f(1/z): the integer numerators read the same
        backwards, centred on z^0 (zero is symmetric)."""
        re, im = self.body.re, self.body.im
        return not re or (2 * self.low + len(re) == 1 and re == re[::-1] and (im is None or im == im[::-1]))

    def to_sym(self) -> "SymLaurent":
        """This polynomial as a SymLaurent; the ValueError if it is not symmetric."""
        if not self.is_symmetric():
            raise ValueError("Laurent polynomial is not z <-> 1/z symmetric")
        f = _new(SymLaurent)
        f.low = self.low
        f.body = self.body
        return f

    def __repr__(self):
        return _terms_text(self.body, self.low, "z")


def _shift(p: Poly, k: int) -> Poly:
    """x^k * p for k >= 0."""
    if not k:
        return p
    zeros = (0,) * k
    return _poly(zeros + p.re, p.im and zeros + p.im, p.den)


class SymLaurent(Laurent):
    """A Laurent polynomial whose symmetry f(z) = f(1/z) was checked when it
    was made: by SymLaurent(cs), which mirrors the coefficients cs of z^0,
    z^1, ... onto z^0, z^-1, ..., by Laurent.to_sym, by chebyshev_lift or as
    the output of a LaurentOperator.  It adds no arithmetic: all of it is
    Laurent's, and its results are plain Laurent polynomials.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        b = Poly(coeffs)
        self.low = -b.degree if b else 0
        self.body = _poly(b.re[:0:-1] + b.re, b.im and b.im[:0:-1] + b.im, b.den)

    @staticmethod
    def zero() -> "SymLaurent":
        return SymLaurent()

    @staticmethod
    def one() -> "SymLaurent":
        return SymLaurent([1])


SYM_X = SymLaurent([0, _gr(1, 0, 2)])  # the lift of x: (z + 1/z)/2


def _real_base(p) -> GaussianRational:
    p = GaussianRational.coerce(p)
    if p.i or not p.r:
        raise ValueError(f"a dilation needs a real base p != 0, got {p!r}")
    return p


def _unit_divide(num: list, dtaps: tuple, lead: int, m: int) -> None:
    """num |-> num / (divisor of degree m, top coefficient lead = +-1), in place.

    Synthetic division on integers: afterwards num[m:] is the quotient and
    num[:m] the remainder; dtaps lists the divisor's other nonzero
    coefficients as (index, coefficient).
    """
    for i in range(len(num) - 1, m - 1, -1):
        t = num[i] * lead  # lead is its own inverse
        num[i] = t
        if t:
            for j, c in dtaps:
                num[i - m + j] -= t * c


class LaurentOperator:
    """The Laurent form of DifferenceOperator, on symmetric Laurent polynomials:

        f |-> c * (sum_t M_t(z) f(p^(k_t) z)) / D(z)

    for a real base p != 0.  `taps` lists pairs (M, k): the multiplier M as
    (low, coefficients from z^low up) and k = 1 or -1.  `scale` is the scalar
    c.  The optional `divisor` D, given as (low, integer coefficients) with a
    nonzero constant and top coefficient 1 or -1, divides the sum exactly by
    synthetic division; a nonzero remainder is the ValueError of
    Laurent.exact_div.  The input and the quotient must be symmetric under
    z <-> 1/z: each is checked by Laurent.to_sym, whose ValueError an
    asymmetric or off-centre one raises, and the quotient is returned as a
    SymLaurent.  Every tap is computed as written; none is derived from
    another by mirroring.

    With p = r/d and f symmetric of degree n, f(p^(+-1) z) is z^(-n) N(z) /
    (r d)^n for the integer numerators N of one raw dilation of f's
    numerators, so all taps share one denominator.  The multipliers go over
    one denominator with c folded in when the operator is built, and an
    application runs on integer numerators: one dilation and one product per
    tap, their sum, the division, the palindrome check and one canonical
    form.
    """

    __slots__ = ("_taps", "_low", "_den", "_rd", "_divisor")

    def __init__(self, p, taps, scale=1, divisor=None):
        p = _real_base(p)
        r, d = p.r, p.d
        cr, ci, cd = _parts(scale)
        parts = [[_parts(c) for c in coeffs] for (_, coeffs), _ in taps]
        md = lcm(*(pd for ps in parts for _, _, pd in ps))
        self._low = min((low for (low, _), _ in taps), default=0)
        prepared = []
        for ((low, _), k), ps in zip(taps, parts):
            if k == 1:
                a, e = r, d
            elif k == -1:  # 1/p = d/r with a positive denominator
                a, e = (d, r) if r > 0 else (-d, -r)
            else:
                raise ValueError(f"a Laurent tap dilates by p or 1/p, got the power {k}")
            # every multiplier from z^_low up, so the tap products line up
            zeros = [0] * (low - self._low)
            mr = [(u * cr - v * ci) * (md // pd) for u, v, pd in ps]
            mi = [(u * ci + v * cr) * (md // pd) for u, v, pd in ps]
            prepared.append((a, e, zeros + mr, zeros + mi if any(mi) else None))
        self._taps = tuple(prepared)
        self._den = md * cd
        self._rd = r * d
        if divisor is not None:
            dlow, dc = divisor
            m = len(dc) - 1
            if m < 0 or dc[m] not in (1, -1) or not dc[0] or any(type(c) is not int for c in dc):
                raise ValueError(f"a Laurent divisor needs integers, a nonzero constant and top +-1, got {dc!r}")
            divisor = (dlow, tuple((j, c) for j, c in enumerate(dc[:m]) if c), dc[m], m)
        self._divisor = divisor

    def __call__(self, f: Laurent) -> SymLaurent:
        b = f.to_sym().body
        if not b:
            return SymLaurent.zero()
        # f's numerators from z^(-n) up, over the denominator f.den
        fr, fi, n = b.re, b.im, -f.low
        den = b.den * self._den * self._rd ** n
        sign = 1
        if den < 0:  # a negative base to an odd power
            den, sign = -den, -1
        accr, acci = [], None
        for a, e, mr, mi in self._taps:
            tr, ti = _cmul(mr, mi, *_substitute(fr, fi, a, 0, 0, 0, e))
            accr = _axpy(accr, 1, tr, sign)
            if ti is not None:
                acci = _axpy(acci or [], 1, ti, sign)
        if acci is not None:
            acci += [0] * (len(accr) - len(acci))
        low = self._low - n  # the power of z at accr[0]
        if self._divisor is not None:
            dlow, dtaps, lead, m = self._divisor
            _unit_divide(accr, dtaps, lead, m)
            if acci is not None:
                _unit_divide(acci, dtaps, lead, m)
            if any(accr[:m]) or (acci and any(acci[:m])):
                rem = _laurent(low, _canon(accr[:m], acci and acci[:m], den))
                raise ValueError(f"nonzero remainder in exact division: {rem}")
            accr, acci = accr[m:], acci and acci[m:]
            low -= dlow
        return _laurent(low, _canon(accr, acci, den)).to_sym()


def chebyshev_lift(f: Poly) -> SymLaurent:
    """Substitute x = (z + 1/z)/2 into f."""
    out = Laurent.zero()
    for c in reversed(f.coeffs):
        out = out * SYM_X + c
    return out.to_sym()


def chebyshev_project(f: Laurent) -> Poly:
    """Invert chebyshev_lift exactly; an f that is not symmetric is the
    ValueError of Laurent.to_sym."""
    rem = f.to_sym()
    out = [GR_ZERO] * (f.degree + 1)
    while rem:  # lifting the top x^d term clears z^d and z^-d
        d = rem.degree
        a = rem.lead * 2 ** d
        out[d] = a
        rem = rem - chebyshev_lift(Poly.monomial(d, a))
    return Poly(out)
