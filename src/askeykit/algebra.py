"""Exact scalar and polynomial arithmetic.

Everything in this package computes over the Gaussian rationals Q(i):
arbitrary-precision rationals for the real and imaginary parts, never
floating point.  Polynomials in x are dense coefficient tuples; the
Askey-Wilson layer works with Laurent polynomials in z carrying the
substitution x = (z + 1/z)/2.

gmpy2 supplies the rational type when it is installed (the optional
`gmpy2` extra; the q-series identities grow very deep coefficients);
fractions.Fraction is the drop-in fallback.
"""

from __future__ import annotations

from math import comb, factorial

try:
    from gmpy2 import mpq as Rational
except ImportError:  # gmpy2 is optional
    from fractions import Fraction as Rational

__all__ = [
    "Rational",
    "GaussianRational",
    "UnitPhase",
    "Poly",
    "Laurent",
    "SymLaurent",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "GR_HALF_I",
    "SYM_X",
    "binomial",
    "factorial",
    "pochhammer",
    "q_pochhammer",
    "q_binomial",
    "q_integer",
    "tangent_subtract",
    "chebyshev_lift",
    "chebyshev_project",
    "laurent_scale",
    "poly_gcd",
    "rational_str",
]

_R0 = Rational(0)
_R1 = Rational(1)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def rational_str(v) -> str:
    """Canonical "num/den" form with an explicit denominator."""
    r = Rational(v)
    return f"{r.numerator}/{r.denominator}"


def _gr(re, im) -> "GaussianRational":
    g = GaussianRational.__new__(GaussianRational)
    g.re = re
    g.im = im
    return g


class GaussianRational:
    """Element of Q(i): exact complex number with rational real/imag parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Rational(re)
        self.im = Rational(im)

    @staticmethod
    def coerce(v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, UnitPhase):
            return v.value
        return _gr(Rational(v), _R0)

    @staticmethod
    def _try_coerce(v):
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, UnitPhase):
            return v.value
        if isinstance(v, (int, Rational)):
            return _gr(Rational(v), _R0)
        return None

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __add__(self, other):
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return _gr(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return _gr(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        # real-only fast path: most families never leave Q
        if not self.im and not o.im:
            return _gr(self.re * o.re, _R0)
        return _gr(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        if not self:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        if not self.im:
            return _gr(_R1 / self.re, _R0)
        n = self.re * self.re + self.im * self.im
        return _gr(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _gr(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF_I = GaussianRational(0, Rational(1, 2))


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
    q = Rational(q)
    out = GR_ONE
    aq = a
    for _ in range(k):
        out = out * (GR_ONE - aq)
        aq = aq * q
    return out


def q_integer(n: int, q) -> Rational:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    q = Rational(q)
    out = _R0
    pw = _R1
    for _ in range(n):
        out += pw
        pw *= q
    return out


def q_binomial(n: int, k: int, q) -> Rational:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_(n-k))."""
    if k < 0 or k > n:
        raise ValueError(f"q_binomial needs 0 <= k <= n, got n={n}, k={k}")
    q = Rational(q)
    num = _R1
    den = _R1
    # (1-q^(n-k+j)) / (1-q^j) for j = 1..k
    pw_hi = q ** (n - k)
    pw_lo = _R1
    for _ in range(k):
        pw_hi *= q
        pw_lo *= q
        num *= _R1 - pw_hi
        den *= _R1 - pw_lo
    return num / den


def tangent_subtract(s, r):
    """tan(A - B) from tan A = s and tan B = r; denominator 1+sr must be nonzero."""
    s = Rational(s)
    r = Rational(r)
    d = _R1 + s * r
    if not d:
        raise ZeroDivisionError("tangent difference undefined (angles sum to pi/2)")
    return (s - r) / d


class UnitPhase:
    """Exact point on the unit circle, parametrized by the tangent of the half angle.

    value = ((1 - s^2) + 2si) / (1 + s^2), so cos and sin of the angle are
    rational whenever s is.
    """

    __slots__ = ("half_tangent", "value")

    def __init__(self, half_tangent):
        s = Rational(half_tangent)
        d = _R1 + s * s
        self.half_tangent = s
        self.value = _gr((_R1 - s * s) / d, (s + s) / d)

    @property
    def cos(self) -> Rational:
        return self.value.re

    @property
    def sin(self) -> Rational:
        return self.value.im

    def power(self, k: int) -> GaussianRational:
        """value**k; negative k uses the conjugate (|value| = 1)."""
        if k < 0:
            return self.value.conjugate() ** (-k)
        return self.value ** k

    def __eq__(self, other):
        return isinstance(other, UnitPhase) and self.half_tangent == other.half_tangent

    def __hash__(self):
        return hash(("UnitPhase", self.half_tangent))

    def __repr__(self):
        return f"UnitPhase({self.half_tangent})"


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Dense univariate polynomial over Q(i); coeffs[k] is the x^k coefficient.

    The zero polynomial is the empty tuple; otherwise the top coefficient is
    nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([GaussianRational.coerce(c) for c in coeffs])

    @staticmethod
    def _raw(coeffs: list) -> "Poly":
        p = Poly.__new__(Poly)
        p.coeffs = _trim(coeffs)
        return p

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
        return Poly([c])

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly([0] * k + [c])

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly._raw([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = GaussianRational.coerce(other)
            if not c:
                return _P_ZERO
            return Poly._raw([a * c for a in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        out = [GR_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly._raw(out)

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
        value = GaussianRational.coerce(value)
        out = GR_ZERO
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def compose_affine(self, alpha, beta) -> "Poly":
        """x |-> f(alpha*x + beta), by Horner over the polynomial ring."""
        alpha = GaussianRational.coerce(alpha)
        beta = GaussianRational.coerce(beta)
        arg = Poly([beta, alpha])
        out = _P_ZERO
        for c in reversed(self.coeffs):
            out = out * arg + c
        return out

    def derivative(self) -> "Poly":
        return Poly._raw([c * k for k, c in enumerate(self.coeffs)][1:])

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact quotient; a nonzero remainder is a correctness tripwire."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        inv_lead = other.lead.inverse()
        out = [GR_ZERO] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c * inv_lead
            out[i - d] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] = rem[i - d + j] - q * oc
        if any(rem):
            raise ValueError(f"nonzero remainder in exact division: {Poly._raw(rem)}")
        return Poly._raw(out)

    def is_even(self) -> bool:
        return all(not c for c in self.coeffs[1::2])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return " + ".join(parts)


_P_ZERO = Poly.__new__(Poly)
_P_ZERO.coeffs = ()
_P_ONE = Poly.__new__(Poly)
_P_ONE.coeffs = (GR_ONE,)
_P_X = Poly.__new__(Poly)
_P_X.coeffs = (GR_ZERO, GR_ONE)


class Laurent:
    """General Laurent polynomial in z, dense between its lowest and highest power."""

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int = 0, coeffs=()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        lead = 0
        while lead < len(cs) and not cs[lead]:
            lead += 1
        cs = cs[lead:]
        self.coeffs = _trim(cs)
        self.low = low + lead if self.coeffs else 0

    @staticmethod
    def _raw(low: int, coeffs: tuple) -> "Laurent":
        f = Laurent.__new__(Laurent)
        f.low = low if coeffs else 0
        f.coeffs = coeffs
        return f

    @staticmethod
    def coerce(v) -> "Laurent":
        if isinstance(v, Laurent):
            return v
        if isinstance(v, SymLaurent):
            return v.to_laurent()
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

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def coefficient(self, k: int) -> GaussianRational:
        i = k - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return GR_ZERO

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        o = Laurent.coerce(other)
        return self.low == o.low and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def __neg__(self):
        return Laurent._raw(self.low, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        o = Laurent.coerce(other)
        if not self.coeffs:
            return o
        if not o.coeffs:
            return self
        low = min(self.low, o.low)
        high = max(self.high, o.high)
        out = [GR_ZERO] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] = c
        for i, c in enumerate(o.coeffs):
            j = o.low - low + i
            out[j] = out[j] + c
        return Laurent(low, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Laurent.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rational, GaussianRational, UnitPhase)):
            c = GaussianRational.coerce(other)
            if not c:
                return Laurent.zero()
            return Laurent._raw(self.low, tuple(a * c for a in self.coeffs))
        o = Laurent.coerce(other)
        if not self.coeffs or not o.coeffs:
            return Laurent.zero()
        out = [GR_ZERO] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if not ai:
                continue
            for j, bj in enumerate(o.coeffs):
                out[i + j] = out[i + j] + ai * bj
        return Laurent(self.low + o.low, out)

    __rmul__ = __mul__

    def scale_var(self, p) -> "Laurent":
        """z |-> p*z: multiplies the z^k coefficient by p^k."""
        p = GaussianRational.coerce(p)
        if not p:
            raise ZeroDivisionError("scale_var needs p != 0")
        out = []
        pw = p ** self.low
        for c in self.coeffs:
            out.append(c * pw)
            pw = pw * p
        return Laurent(self.low, out)

    def invert_var(self) -> "Laurent":
        """z |-> 1/z."""
        return Laurent(-self.high, tuple(reversed(self.coeffs)))

    def exact_div(self, other: "Laurent") -> "Laurent":
        o = Laurent.coerce(other)
        if not o:
            raise ZeroDivisionError("Laurent division by zero")
        num = Poly(self.coeffs)
        den = Poly(o.coeffs)
        quot = num.exact_div(den)
        return Laurent(self.low - o.low, quot.coeffs)

    def is_symmetric(self) -> bool:
        return self == self.invert_var()

    def to_sym(self) -> "SymLaurent":
        if not self.is_symmetric():
            raise ValueError("Laurent polynomial is not z <-> 1/z symmetric")
        return SymLaurent([self.coefficient(k) for k in range(self.high + 1)])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            k = self.low + i
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        return " + ".join(parts)


class SymLaurent:
    """Laurent polynomial with f(z) = f(1/z), stored on the k >= 0 side only.

    coeffs[k] is the shared coefficient of z^k and z^(-k).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([GaussianRational.coerce(c) for c in coeffs])

    @staticmethod
    def zero() -> "SymLaurent":
        return SymLaurent()

    @staticmethod
    def one() -> "SymLaurent":
        return SymLaurent([1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("zero element has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> GaussianRational:
        k = abs(k)
        if k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    def to_laurent(self) -> Laurent:
        if not self.coeffs:
            return Laurent.zero()
        d = len(self.coeffs) - 1
        cs = list(reversed(self.coeffs[1:])) + list(self.coeffs)
        return Laurent(-d, cs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, SymLaurent):
            return self.coeffs == other.coeffs
        if isinstance(other, Laurent):
            return self.to_laurent() == other
        return NotImplemented

    def __hash__(self):
        return hash(("sym", self.coeffs))

    def __neg__(self):
        out = SymLaurent.__new__(SymLaurent)
        out.coeffs = tuple(-c for c in self.coeffs)
        return out

    def __add__(self, other):
        if isinstance(other, SymLaurent):
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
            res = SymLaurent.__new__(SymLaurent)
            res.coeffs = _trim(out)
            return res
        if isinstance(other, Laurent):
            return self.to_laurent() + other
        return self + SymLaurent([other])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (SymLaurent, Laurent)):
            return self + (-other)
        return self + SymLaurent([-GaussianRational.coerce(other)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SymLaurent):
            return (self.to_laurent() * other.to_laurent()).to_sym()
        if isinstance(other, Laurent):
            return self.to_laurent() * other
        c = GaussianRational.coerce(other)
        if not c:
            return SymLaurent.zero()
        out = SymLaurent.__new__(SymLaurent)
        out.coeffs = tuple(a * c for a in self.coeffs)
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = SymLaurent.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return repr(self.to_laurent())


SYM_X = SymLaurent([0, Rational(1, 2)])  # the lift of x: (z + 1/z)/2


def chebyshev_lift(f: Poly) -> SymLaurent:
    """Substitute x = (z + 1/z)/2 into f."""
    out = SymLaurent.zero()
    for c in reversed(f.coeffs):
        out = out * SYM_X + SymLaurent([c])
    return out


def chebyshev_project(f: SymLaurent) -> Poly:
    """Invert chebyshev_lift exactly; tripwire on any asymmetry in the input."""
    rem = f
    out = [GR_ZERO] * (f.degree + 1 if f else 0)
    two = Rational(2)
    while rem:
        d = rem.degree
        a = rem.lead * (two ** d)
        out[d] = a
        rem = rem - chebyshev_lift(Poly.monomial(d, a))
        if rem and rem.degree >= d:
            raise ValueError("chebyshev_project failed to reduce degree")
    return Poly(out)


def laurent_scale(f: SymLaurent, p) -> Laurent:
    """z |-> p*z on a symmetric element; the result is generally not symmetric."""
    return f.to_laurent().scale_var(p)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q(i) by the Euclidean algorithm."""
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        a = a * a.lead.inverse()
    return a


def _poly_mod(a: Poly, b: Poly) -> Poly:
    rem = list(a.coeffs)
    d = b.degree
    inv_lead = b.lead.inverse()
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = c * inv_lead
        for j, oc in enumerate(b.coeffs):
            rem[i - d + j] = rem[i - d + j] - q * oc
    return Poly(rem[:d] if d > 0 else [])
