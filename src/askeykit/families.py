"""The polynomial families: parameter spaces, raising operators, raising-chain
construction, closed hypergeometric forms, and exact recurrence extraction.

A family bundles everything the identity engines need:

  * the parameter domain (the orthogonality conditions of Koekoek, Lesky &
    Swarttouw, 2010) with the windows parameters are sampled from, and the
    shift nu -> nu+sigma (additive for the classical families,
    multiplicative by q for the q-families),
  * the carrier the raising operator R_nu acts on, one of the values
    declared in ops: ops.POLY (polynomials in x, the default), ops.EVEN
    (even polynomials in x, graded by x^2, for Wilson) or ops.LAURENT
    (symmetric Laurent polynomials in z for the Askey-Wilson level),
  * one or more Leibniz "variants", each pairing an operator scheme with the
    weight-ratio polynomial eta^k(w_{nu+k sigma}) / w_nu, given by its
    closed-form step from k to k+1,
  * the standard (basic) hypergeometric form of the polynomials, and the
    scalar relating the raising chain applied to 1 to it,
  * for the six lattice families, the image of the weight deformation
    w(x) -> e^(-xt) w(x).

Every one of these facts, the closed forms included, is a function of the
parameter point (`ParamPoint`), which reads its parameters off itself: a
form is read at any values as standard_poly(make_point(tag, **values), n),
Gaussian-rational values included, and no function takes the raw
parameters instead.

A family that is another with some parameters set to zero is declared by
_specialization, which reads every fact but the shift from the parent at
the lifted point: big q-Laguerre is big q-Jacobi at b = 0 and continuous
q-Hermite is Askey-Wilson at a = b = c = d = 0 (KLS sections 14.11, 14.26).

Weight ratios are stored as closed-form polynomial steps, never as
quotients of actual weights: the weights involve Gamma factors and infinite
products, while the ratios and their steps are plain polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .algebra import (
    GR_HALF_I,
    GR_I,
    GR_ONE,
    GR_ZERO,
    DifferenceOperator,
    GaussianRational,
    Laurent,
    LaurentOperator,
    Poly,
    SymLaurent,
    _canon,
    _cmul,
    _parts,
    _scalar,
    factorial,
    horner_series,
    pochhammer,
    q_pochhammer,
    scalar,
    tangent_subtract,
    unit_phase,
)
from . import ops

__all__ = [
    "ParamPoint",
    "Param",
    "Deformation",
    "Variant",
    "FamilySpec",
    "MonicRecurrence",
    "FAMILIES",
    "make_point",
    "deformation",
    "deformed_measure",
    "shifted_point",
    "falling_poch_poly",
    "rising_poch_poly",
    "q_poch_poly",
    "raise_chain",
    "standard_poly",
    "normalization",
    "recurrence_extract",
    "lowering_constant_check",
    "expand_in_basis",
]

_half = scalar(1, 2)


@dataclass(frozen=True, slots=True)
class ParamPoint:
    """A concrete parameter instantiation; phases are stored as half-tangents.

    The point is the one handle on its family: every function that takes a
    point reads the family's data from FAMILIES[point.family], and none
    takes the family tag beside it.

    Everything derived from a point and reused by a case is kept in the
    point's one memo, through `derived`: its successor under the family
    shift, its admissibility verdict, its raising operator, its raising
    chains and its standard forms.  The memo
    takes no part in equality, hashing or repr.  So the shifted points of a
    case are built once, each datum is computed once per point, and all of
    it is freed with the point; two equal points made separately share
    nothing.  The hash is taken from the integer parts (r, i, d) of each
    coordinate ((v, 0, 1) for an int).
    """

    family: str
    values: tuple
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __hash__(self):
        return hash((self.family, *((k, *_parts(v)) for k, v in self.values)))

    def derived(self, key, build, *args):
        """build(*args), computed once per point and kept in the memo under key.

        A miss is tested with `is None`, so a False verdict is a hit like any
        other value; a build that raises stores nothing.
        """
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = build(*args)
        return out

    def get(self, name):
        for k, v in self.values:
            if k == name:
                return v
        raise KeyError(f"{self.family} point has no parameter {name!r}")

    def replace(self, **updates) -> "ParamPoint":
        vals = tuple((k, updates.pop(k) if k in updates else v) for k, v in self.values)
        if updates:
            raise KeyError(f"unknown parameters {sorted(updates)}")
        return ParamPoint(self.family, vals)

    def as_dict(self) -> dict:
        return dict(self.values)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.values)
        return f"{self.family}({inner})"


def _bound(b, values: dict):
    return b(values) if callable(b) else b


@dataclass(frozen=True)
class Param:
    """One coordinate of a parameter domain.

    The domain is the open interval (lo, hi).  A bound is a constant, None
    (unbounded), or a function of the dict of the coordinates declared
    before this one.  `integer` restricts the domain to Python ints (a point
    stores an integral real scalar given for one as its int), `nonzero`
    removes 0 from it.  Samples are drawn from `window` intersected with the
    domain, never equal to `skip` (a constant or a function, like a bound).
    """

    name: str
    lo: object = None
    hi: object = None
    window: tuple = (None, None)
    integer: bool = False
    nonzero: bool = False
    skip: object = None

    def admits(self, v, values: dict) -> bool:
        if self.integer and not isinstance(v, int):
            return False
        lo = _bound(self.lo, values)
        hi = _bound(self.hi, values)
        return (lo is None or lo < v) and (hi is None or v < hi) and not (self.nonzero and not v)

    def sampling_window(self, values: dict) -> tuple:
        """(lo, hi, skip): the open interval samples come from and the value they avoid."""
        lo = _bound(self.lo, values)
        hi = _bound(self.hi, values)
        wlo, whi = self.window
        lo = wlo if lo is None else lo if wlo is None else max(lo, wlo)
        hi = whi if hi is None else hi if whi is None else min(hi, whi)
        return lo, hi, 0 if self.nonzero else _bound(self.skip, values)


@dataclass(frozen=True)
class Deformation:
    """The weight deformation w(x) -> e^(-xt) w(x) of a lattice family.

    `scalar` names the number carrying t (t itself, u = e^(-t) or
    r = tan(t/4)) and gives its domain, whose bounds read the family's
    parameters.  `measure(point, s)` is (point', alpha, beta): the deformed
    measure is the base measure at point' pushed forward by
    x -> alpha x + beta.  The variable of the closed-form lattice flow is
    read off the image point by its `toda.TodaVariable`.
    """

    scalar: Param
    measure: Callable

    def image(self, point: ParamPoint, s) -> tuple:
        """(point', alpha, beta) for the deformation scalar s."""
        if not self.scalar.admits(s, point.as_dict()):
            raise ValueError(f"{self.scalar.name}={s} is outside the deformation domain at {point}")
        return self.measure(point, s)


@dataclass(frozen=True)
class Variant:
    """One Leibniz factorization of a family: operator scheme plus weight ratio.

    The weight ratio ratio_k = eta^k(w_(nu+k sigma)) / w_nu is held in step
    form: ratio_0 is the carrier's 1 and ratio_(j+1) = ratio_j *
    weight_step(point, j), so the k-sum builds every ratio it needs with one
    product per k.
    """

    name: str
    op_spec: Callable[[ParamPoint], ops.OperatorSpec]
    weight_step: Callable[[ParamPoint, int], object]


@dataclass(frozen=True)
class FamilySpec:
    """Every fact about one family, stated once and looked up by its tag.

    The methods that take a point keep what they derive in the point's memo
    (`ParamPoint.derived`), so the point must be of this family: callers
    reach the spec as FAMILIES[point.family].  A `shift_rule` of None
    declares the identity shift nu + sigma = nu; `top(point)` is the largest
    degree of a finite family, None for an infinite one.
    """

    tag: str
    domain: tuple  # Param entries, in sampling order
    shift_rule: Optional[Callable[[ParamPoint], ParamPoint]]  # nu -> nu + sigma; None: identity
    raising: Optional[Callable[[ParamPoint], Callable]]
    variants: tuple
    lowering: Callable[[ParamPoint], Callable]
    adjoint: Optional[Callable[[ParamPoint], Callable]]
    normalization: Callable[[ParamPoint, int], GaussianRational]
    standard: Callable[[ParamPoint, int], object]
    carrier: ops.Carrier = ops.POLY
    deformation: Optional[Deformation] = None
    top: Callable[[ParamPoint], Optional[int]] = lambda pt: None

    @property
    def param_names(self) -> tuple:
        return tuple(p.name for p in self.domain)

    def shift(self, point: ParamPoint) -> ParamPoint:
        """nu + sigma: the same object on every call, kept on the point.

        The identity shift returns the point itself and stores nothing, so a
        point never refers to itself.
        """
        rule = self.shift_rule
        if rule is None:
            return point
        return point.derived("next", rule, point)

    def admissible(self, point: ParamPoint) -> bool:
        """Whether point lies in the domain; the verdict is kept on the point."""
        return point.derived("admissible", self._admits, point)

    def _admits(self, point: ParamPoint) -> bool:
        values = point.as_dict()
        return all(p.admits(values[p.name], values) for p in self.domain)

    def raising_operator(self, point: ParamPoint):
        """The raising operator R_nu at point, built once and kept on the point.

        A chain, the k-sums and apply_chain of one case meet the same point
        objects, so each operator is built once per case and freed with it.
        """
        return point.derived("raising", self.raising, point)

    def variant(self, name: str) -> Variant:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(f"{self.tag} has no Leibniz variant {name!r}")


@dataclass(frozen=True)
class MonicRecurrence:
    """Monic three-term data: x p_n = p_(n+1) + b[n] p_n + c[n] p_(n-1)."""

    b: tuple
    c: tuple


_Q = scalar


# ---------------------------------------------------------------------------
# closed hypergeometric forms
# ---------------------------------------------------------------------------

def _std_hermite(pt, n: int) -> Poly:
    """H_n(x) = sum_k (-1)^k n! (2x)^(n-2k) / (k! (n-2k)!)."""
    coeffs = [GR_ZERO] * (n + 1)
    sign = 1
    for k in range(n // 2 + 1):
        m = n - 2 * k
        coeffs[m] = _Q(sign * factorial(n) * 2 ** m, factorial(k) * factorial(m))
        sign = -sign
    return Poly(coeffs)


def _ratio(nums, dens) -> tuple:
    """prod(nums) / prod(dens) as integers (re, im, den); a factor (r, i, w) is (r + i*i)/w."""
    nr, ni, d = 1, 0, 1
    for r, i, w in nums:
        nr, ni, d = nr * r - ni * i, nr * i + ni * r, d * w
    for r, i, w in dens:  # times w (r - i*i) / (r^2 + i^2)
        if i:
            nr, ni, d = (nr * r + ni * i) * w, (ni * r - nr * i) * w, d * (r * r + i * i)
        else:
            nr, ni, d = nr * w, ni * w, d * r
    return nr, ni, d


def _pfq(n: int, tops, bottoms, z=1, xtops=(), arg=((1,), None, 1), c=1) -> Poly:
    """c pFq(tops, xtops; bottoms; z * arg) summed to k = n by algebra.horner_series.

    Step j has the ratio z prod (a + j) / (prod (b + j) (j + 1)) over the
    scalar parameters, and the factor arg prod (u + j + v*x) over the
    x-parameters u + v*x, given as (u, v); arg is (re, im, den) integer parts.
    """
    zp, tops, bottoms = _parts(z), [_parts(a) for a in tops], [_parts(b) for b in bottoms]
    lin = [(*_parts(u), *_parts(v)) for u, v in xtops]
    steps = []
    for j in range(n):
        fr, fi, w = arg
        for ur, ui, ud, vr, vi, vd in lin:  # (u + j + v x) ud vd
            fr, fi = _cmul(fr, fi, ((ur + j * ud) * vd, vr * ud), (ui * vd, vi * ud) if ui or vi else None)
            w *= ud * vd
        nums = [zp, *((r + j * e, i, e) for r, i, e in tops)]
        nr, ni, d = _ratio(nums, [((j + 1) * w, 0, 1), *((r + j * e, i, e) for r, i, e in bottoms)])
        steps.append((nr, ni, d, fr, fi, 0))
    return horner_series(steps, c)


def _rphis(n: int, q, tops, bottoms, z=1, xtops=(), arg=((1,), None, 1), c=1, low=None):
    """c rphis(tops, xtops; bottoms; q, z * arg) summed to k = n by algebra.horner_series.

    With the term factor [(-1)^k q^(k choose 2)]^(1+s-r) of Gasper & Rahman
    (Basic Hypergeometric Series, 2004), step j has the ratio
    z (-q^j)^(1+s-r) prod (1 - a q^j) / (prod (1 - b q^j) (1 - q^(j+1))),
    on running integer powers of the real base q's numerator and denominator,
    and the factor arg prod (1 - s q^j z^e) over the x-parameters s*z^e
    (e = +-1), given as (s, e).  With `low` the result is z^low times the sum.
    """
    if q.i:
        raise ValueError(f"the basic hypergeometric forms need a real base, got {q!r}")
    m = 1 + len(bottoms) - len(tops) - len(xtops)
    tops, bottoms = [_parts(a) for a in tops], [_parts(b) for b in bottoms]
    zp, mons = _parts(z), [(*_parts(s), e) for s, e in xtops]
    steps, rj, dj = [], 1, 1  # q^j = rj / dj
    for j in range(n):
        (fr, fi, w), o = arg, 0
        for sr, si, sd, e in mons:  # (1 - s q^j z^e) sd dj; z^-1 (-s q^j + z) sd dj for e = -1
            fr, fi = _cmul(fr, fi, (sd * dj, -sr * rj)[::e], (0, -si * rj)[::e] if si else None)
            w *= sd * dj
            o -= e < 0
        sign = ((-rj) ** m, 0, dj ** m) if m >= 0 else ((-dj) ** -m, 0, rj ** -m)  # (-q^j)^m
        nums = [zp, sign, *((e * dj - r * rj, -i * rj, e * dj) for r, i, e in tops)]
        dens = [(w, 0, 1), *((e * dj - r * rj, -i * rj, e * dj) for r, i, e in bottoms)]
        rj, dj = rj * q.r, dj * q.d
        nr, ni, d = _ratio(nums, [*dens, (dj - rj, 0, dj)])
        steps.append((nr, ni, d, fr, fi, o))
    return horner_series(steps, c, low)


def _std_laguerre(pt, n: int) -> Poly:
    """L_n^(nu)(x) = ((nu+1)_n / n!) 1F1(-n; nu+1; x)."""
    nu = pt.get("nu")
    return _pfq(n, [-n], [nu + 1], arg=((0, 1), None, 1), c=pochhammer(nu + 1, n) * _Q(1, factorial(n)))


def _std_jacobi(pt, n: int) -> Poly:
    """P_n^(alpha,beta)(x) = ((alpha+1)_n / n!) 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2)."""
    alpha, beta = pt.get("alpha"), pt.get("beta")
    pref = pochhammer(alpha + 1, n) * _Q(1, factorial(n))
    return _pfq(n, [-n, n + alpha + beta + 1], [alpha + 1], arg=((1, -1), None, 2), c=pref)  # (1 - x)/2


def falling_poch_poly(n: int) -> Poly:
    """(-x)_n as a polynomial: prod_j (j - x)."""
    return rising_poch_poly(0, n, -1)


def _std_meixner(pt, n: int) -> Poly:
    """M_n(x; beta, c) = 2F1(-n, -x; beta; 1 - 1/c)."""
    return _pfq(n, [-n], [pt.get("beta")], 1 - 1 / pt.get("c"), xtops=[(0, -1)])


def _std_charlier(pt, n: int) -> Poly:
    """C_n(x; a) = 2F0(-n, -x; -; -1/a)."""
    return _pfq(n, [-n], [], -1 / pt.get("a"), xtops=[(0, -1)])


def _linear_product(factors, c=1) -> Poly:
    """c * prod (u + v*x), a factor (u_r, u_i, v_r, v_i, den) standing for
    ((u_r + u_i*i) + (v_r + v_i*i) x) / den; multiplied on integer
    numerators, with one canonical form."""
    cr, ci, den = _parts(c)
    re, im = [cr], [ci] if ci else None
    for ur, ui, vr, vi, d in factors:
        re, im = _cmul(re, im, [ur, vr], [ui, vi] if ui or vi else None)
        den *= d
    return _canon(re, im, den)


def _factor(u, v) -> tuple:
    """u + v*x as a factor of _linear_product."""
    ur, ui, ud = _parts(u)
    vr, vi, vd = _parts(v)
    return ur * vd, ui * vd, vr * ud, vi * ud, ud * vd


def rising_poch_poly(base, n: int, xcoef=1) -> Poly:
    """(base + xcoef*x)_n as a polynomial in x."""
    br, bi, bd = _parts(base)
    xr, xi, xd = _parts(xcoef)
    return _linear_product([((br + j * bd) * xd, bi * xd, xr * bd, xi * bd, bd * xd) for j in range(n)])


def q_poch_poly(scale, q, k) -> Poly:
    """(scale * x; q)_k as a polynomial in x."""
    sr, si, sd = _parts(scale)
    qr, qi, qd = _parts(q)
    factors = []
    for _ in range(k):  # (sr + si*i)/sd = scale * q^j
        factors.append((sd, 0, -sr, -si, sd))
        sr, si, sd = sr * qr - si * qi, sr * qi + si * qr, sd * qd
    return _linear_product(factors)


def _std_mp(pt, n: int) -> Poly:
    """P_n^(lambda)(x; phi) = ((2 lambda)_n / n!) e^(i n phi)
    2F1(-n, lambda + ix; 2 lambda; 1 - e^(-2 i phi)), with phi given by its
    half-angle tangent.  The coefficients combine to real rationals."""
    lam = pt.get("lam")
    u = unit_phase(pt.get("phi"))
    pref = pochhammer(2 * lam, n) * _Q(1, factorial(n)) * u ** n
    out = _pfq(n, [-n], [2 * lam], GR_ONE - u.conjugate() ** 2, xtops=[(lam, GR_I)], c=pref)
    if not out.is_real:
        raise AssertionError("Meixner-Pollaczek polynomial came out non-real")
    return out


def _std_wilson(pt, n: int) -> Poly:
    """W_n(x^2; a,b,c,d) as an even polynomial in x of degree 2n."""
    a, b, c, d = map(pt.get, "abcd")
    pref = pochhammer(a + b, n) * pochhammer(a + c, n) * pochhammer(a + d, n)
    return _pfq(n, [-n, n + a + b + c + d - 1], [a + b, a + c, a + d], xtops=[(a, GR_I), (a, -GR_I)], c=pref)


def _std_big_q_jacobi(pt, n: int) -> Poly:
    """P_n(x; a, b, c; q) = 3phi2(q^-n, a b q^(n+1), x; aq, cq; q, q)."""
    a, b, c, q = map(pt.get, "abcq")
    return _rphis(n, q, [q ** -n, a * b * q ** (n + 1)], [a * q, c * q], q, xtops=[(1, 1)])


def _std_askey_wilson(pt, n: int) -> SymLaurent:
    """p_n(x; a,b,c,d | q) with q = p^2, as a symmetric Laurent polynomial."""
    a, b, c, d, p = map(pt.get, "abcdp")
    if not a:
        raise ValueError("the 4phi3 form needs a != 0; use the continuous q-Hermite family")
    q = p * p
    pref = q_pochhammer(a * b, q, n) * q_pochhammer(a * c, q, n) * q_pochhammer(a * d, q, n) / a ** n
    tops = [q ** -n, a * b * c * d * q ** (n - 1)]
    return _rphis(n, q, tops, [a * b, a * c, a * d], q, xtops=[(a, 1), (a, -1)], c=pref, low=0).to_sym()


def _std_cq_hermite(pt, n: int) -> SymLaurent:
    """H_n(x | q) = z^-n 2phi0(q^-n, 0; -; q, q^n z^2), q = p^2, in place of the
    parent's Askey-Wilson 4phi3 form, which needs a != 0."""
    q = pt.get("p") ** 2
    return _rphis(n, q, [q ** -n, 0], [], q ** n, arg=((0, 0, 1), None, 1), low=-n).to_sym()


def _std_krawtchouk(pt, n: int) -> Poly:
    """K_n(x; p, N) = 2F1(-n, -x; -N; 1/p), for n <= N."""
    N = pt.get("N")
    if n > N:
        raise ValueError("Krawtchouk needs n <= N")
    return _pfq(n, [-n], [-N], 1 / pt.get("p"), xtops=[(0, -1)])


# ---------------------------------------------------------------------------
# family catalog
# ---------------------------------------------------------------------------

# Each raising operator is a list of taps (multiplier coefficients from x^0
# up, substitution) and conjugate pairs (the same and a sign), built once per
# point from the point's scalars; see algebra.DifferenceOperator.
_DOWN = (1, -1)  # x |-> x - 1
_HALF_UP = (1, GR_HALF_I)  # x |-> x + i/2
_HALF_DOWN = (1, -GR_HALF_I)  # x |-> x - i/2


_HERMITE_RAISE = DifferenceOperator((((1,), "d"), ((0, -2), None)))  # f' - 2x f


def _hermite_raise(pt):
    return _HERMITE_RAISE


def _laguerre_raise(pt):
    # x f' + (nu + 1 - x) f
    return DifferenceOperator((((0, 1), "d"), ((pt.get("nu") + 1, -1), None)))


def _jacobi_raise(pt):
    # (1 - x^2) f' + (beta - alpha - (alpha + beta + 2) x) f
    alpha, beta = pt.get("alpha"), pt.get("beta")
    return DifferenceOperator((((1, 0, -1), "d"), ((beta - alpha, -(alpha + beta + 2)), None)))


def _meixner_raise(pt):
    # (1 + x/beta) f - x/(c beta) f(x - 1)
    ib = 1 / pt.get("beta")
    return DifferenceOperator((((1, ib), None), ((0, -ib / pt.get("c")), _DOWN)))


def _charlier_raise(pt):
    # f - (x/a) f(x - 1)
    return DifferenceOperator((((1,), None), ((0, -1 / pt.get("a")), _DOWN)))


def _mp_raise(pt):
    # -e^(i phi) (lambda - ix) f(x + i/2) - e^(-i phi) (lambda + ix) f(x - i/2): a conjugate pair
    lam = pt.get("lam")
    u = unit_phase(pt.get("phi"))
    return DifferenceOperator((((-lam * u, GR_I * u), _HALF_UP, 1),))


def _wilson_raise(pt):
    # (prod (e + ix) f(x - i/2) - prod (e - ix) f(x + i/2)) / (2ix), with
    # prod (e +- ix) = e4 +- i e3 x - e2 x^2 -+ i e1 x^3 + x^4, conjugate
    # for the real parameters of the domain: a conjugate pair
    # prod (1 + e t) = sum_k e_k t^k
    e = _linear_product([_factor(1, pt.get(k)) for k in ("a", "b", "c", "d")])
    _, e1, e2, e3, e4 = (e.coefficient(k) for k in range(5))
    plus = (e4, GR_I * e3, -e2, -GR_I * e1, 1)
    return DifferenceOperator(((plus, _HALF_DOWN, -1),), divisor=2 * GR_I)


def _bqj_raise(pt):
    # ((1 - x/(aq))(1 - x/(cq)) f - (1 - x)(1 - bx/c) f(qx)) / ((1 - q)x), with
    # (1 - x/(aq))(1 - x/(cq)) = 1 - (a + c) x/(acq) + x^2/(acq^2)
    a, b, c, q = pt.get("a"), pt.get("b"), pt.get("c"), pt.get("q")
    inv = (a * c * q).inverse()
    up = (1, -(a + c) * inv, inv / q)
    bc = b / c
    dn = (-1, 1 + bc, -bc)
    return DifferenceOperator(((up, None), (dn, (q, 0))), divisor=1 - q)


def _aw_raise(pt):
    # (B(z) f(pz)/z - z^3 B(1/z) f(z/p)) / (1 - z^2) * (-2/(1 - q)), q = p^2, with
    # B(z) = prod (1 - e z) = 1 - e1 z + e2 z^2 - e3 z^3 + e4 z^4
    p = pt.get("p")
    e = _linear_product([_factor(1, pt.get(k)) for k in "abcd"])  # prod (1 + e t) = sum_k e_k t^k
    _, e1, e2, e3, e4 = (e.coefficient(k) for k in range(5))
    up = (-1, (1, -e1, e2, -e3, e4))  # B(z)/z
    dn = (-1, (-e4, e3, -e2, e1, -1))  # -z^3 B(1/z)
    return LaurentOperator(p, ((up, 1), (dn, -1)), scale=-2 / (1 - p * p), divisor=(0, (1, 0, -1)))


# weight steps: ratio_k = step_0 * ... * step_(k-1) ----------------------------
# each step is a constant or one _linear_product, with one canonical form

_ONE_MINUS_X2 = Poly([1, 0, -1])


def _step_one(pt, j):
    return Poly.one()


def _step_x(pt, j):
    return Poly.x()


def _step_jacobi(pt, j):
    return _ONE_MINUS_X2


def _step_meixner_eta1(pt, j):
    # (beta + j + x) / (beta + j)
    return _linear_product([_factor(1, 1 / (pt.get("beta") + j))])


def _step_meixner_etaS(pt, j):
    # (j - x) * (-1) / ((beta + j) c)
    return _linear_product([_factor(-j, 1)], 1 / ((pt.get("beta") + j) * pt.get("c")))


def _step_charlier_etaS(pt, j):
    # (j - x) / (-a)
    return _linear_product([_factor(-j, 1)], 1 / pt.get("a"))


def _step_mp(pt, j):
    # i e^(-i phi) (lambda + j + ix)
    return _linear_product([_factor(pt.get("lam") + j, GR_I)], GR_I * unit_phase(pt.get("phi")).conjugate())


def _step_wilson(pt, j):
    # -prod (e + j + ix) over e = a, b, c, d
    return _linear_product([_factor(pt.get(name) + j, GR_I) for name in "abcd"], -1)


def _step_bqj_Tq(pt, j):
    # (1 - q^j x)(1 - (b/c) q^j x)
    b, c, q = pt.get("b"), pt.get("c"), pt.get("q")
    qj = q ** j
    return _linear_product([_factor(1, -qj), _factor(1, -b / c * qj)])


def _step_bqj_I(pt, j):
    # b drops out of this ratio, so big q-Laguerre inherits it unchanged
    a, c, q = pt.get("a"), pt.get("c"), pt.get("q")
    qj1 = q ** (j + 1)
    return _linear_product([_factor(1, -1 / (a * qj1)), _factor(1, -1 / (c * qj1))])


def _step_aw(pt, j):
    # -p^(-(2j+1)) z^-2 prod_(e != 0) (1 - e q^j z) = c z^-2 sum_k (-q^j)^k e_k z^k, q = p^2
    p = pt.get("p")
    qj = p ** (2 * j)
    c = -1 / (p * qj)
    coeffs = []
    # e_0, e_1, ...: prod (1 + e t) over the nonzero e has full degree
    for ek in _linear_product([_factor(1, e) for e in map(pt.get, "abcd") if e]).coeffs:
        coeffs.append(c * ek)
        c = -c * qj
    return Laurent(-2, coeffs)


# lowering / adjoint operators ----------------------------------------------

def _low_derivative(pt):
    return lambda f: f.derivative()


def _adj_neg_derivative(pt):
    return lambda f: -f.derivative()


def _low_neg_forward(pt):
    return ops.neg_forward_shift


def _low_delta_x(pt):
    return ops.delta_x


def _adj_neg_delta_x(pt):
    return lambda f: -ops.delta_x(f)


def _low_delta_x2(pt):
    return ops.delta_x2


def _low_qinv(pt):
    return ops.q_derivative_operator(1 / pt.get("q"))


def _low_aw(pt):
    return ops.aw_Dq_operator(pt.get("p"))


# normalizations: standard = normalization(pt, n) * raise_chain(pt, n) --------

def _norm_hermite(pt, n):
    return _Q((-1) ** n)


def _norm_laguerre(pt, n):
    return _Q(1, factorial(n))


def _norm_jacobi(pt, n):
    return _Q((-1) ** n, 2 ** n * factorial(n))


def _norm_unit(pt, n):
    return GR_ONE


def _norm_mp(pt, n):
    return _Q((-1) ** n, factorial(n))


def _norm_bqj(pt, n):
    a, c, q = pt.get("a"), pt.get("c"), pt.get("q")
    num = (a * c) ** n * q ** (n * (n + 1)) * (1 - q) ** n
    return num * (q_pochhammer(a * q, q, n) * q_pochhammer(c * q, q, n)).inverse()


def _norm_aw(pt, n):
    # standard = ((q-1)/2)^n q^(n(n-1)/4) * chain; the q-power is integral in p
    p = pt.get("p")
    q = p * p
    return ((q - 1) / 2) ** n * p ** (n * (n - 1) // 2)


def _sh_add(names, delta):
    def sh(pt):
        return pt.replace(**{k: pt.get(k) + delta for k in names})

    return sh


def _sh_mul(base, names):
    def sh(pt):
        b = pt.get(base)
        return pt.replace(**{k: pt.get(k) * b for k in names})

    return sh


def _inv_q(values):
    return 1 / values["q"]


def _krawtchouk_deformed(pt, u):
    p = pt.get("p")
    return pt.replace(p=p * u / (1 + p * (u - 1))), 1, 0


FAMILIES: dict = {}


def _register(spec: FamilySpec):
    FAMILIES[spec.tag] = spec


# tag -> (parent tag, {fixed coordinate: value}) of each family declared by _specialization
_SPECIALIZATIONS: dict = {}


def _specialization(parent: str, fixed: dict, **declared) -> FamilySpec:
    """The registered family `parent` with the coordinates in `fixed` held at
    their values.

    The domain is the parent's without the fixed names.  Every other fact is
    the parent's, read at the lifted point make_point(parent, **pt, **fixed);
    `declared` gives the tag, the shift rule and any fact that differs.  The
    shift rule is never inherited, since the parent's acts on parent points;
    nor are the deformation and the top.
    """
    spec = FAMILIES[parent]

    def lift(fact):
        return fact and (lambda pt, *args: fact(make_point(parent, **pt.as_dict(), **fixed), *args))

    _SPECIALIZATIONS[declared["tag"]] = parent, fixed
    return FamilySpec(**{
        "domain": tuple(p for p in spec.domain if p.name not in fixed),
        "raising": lift(spec.raising),
        "variants": tuple(Variant(v.name, lift(v.op_spec), lift(v.weight_step)) for v in spec.variants),
        "lowering": lift(spec.lowering),
        "adjoint": lift(spec.adjoint),
        "normalization": lift(spec.normalization),
        "standard": lift(spec.standard),
        "carrier": spec.carrier,
        **declared,
    })


_register(FamilySpec(
    tag="hermite",
    domain=(),
    shift_rule=None,
    raising=_hermite_raise,
    variants=(Variant("", lambda pt: ops.DERIVATIVE_SPEC, _step_one),),
    lowering=_low_derivative,
    adjoint=_adj_neg_derivative,
    normalization=_norm_hermite,
    standard=_std_hermite,
    deformation=Deformation(Param("t", window=(-2, 2)), measure=lambda pt, t: (pt, 1, -t / 2)),
))

_register(FamilySpec(
    tag="laguerre",
    domain=(Param("nu", -1, window=(-1, 3)),),
    shift_rule=_sh_add(("nu",), 1),
    raising=_laguerre_raise,
    variants=(Variant("", lambda pt: ops.DERIVATIVE_SPEC, _step_x),),
    lowering=_low_derivative,
    adjoint=_adj_neg_derivative,
    normalization=_norm_laguerre,
    standard=_std_laguerre,
    deformation=Deformation(Param("t", -1, window=(_Q(-3, 4), 2)), measure=lambda pt, t: (pt, 1 / (1 + t), 0)),
))

_register(FamilySpec(
    tag="jacobi",
    domain=(Param("alpha", -1, window=(-1, 3)), Param("beta", -1, window=(-1, 3))),
    shift_rule=_sh_add(("alpha", "beta"), 1),
    raising=_jacobi_raise,
    variants=(Variant("", lambda pt: ops.DERIVATIVE_SPEC, _step_jacobi),),
    lowering=_low_derivative,
    adjoint=_adj_neg_derivative,
    normalization=_norm_jacobi,
    standard=_std_jacobi,
))

_register(FamilySpec(
    tag="meixner",
    domain=(Param("beta", 0, window=(0, 4)), Param("c", 0, 1)),
    shift_rule=_sh_add(("beta",), 1),
    raising=_meixner_raise,
    variants=(
        Variant("eta1", lambda pt: ops.BACKWARD_ETA1_SPEC, _step_meixner_eta1),
        Variant("etaS", lambda pt: ops.BACKWARD_ETAS_SPEC, _step_meixner_etaS),
    ),
    lowering=_low_neg_forward,
    adjoint=_low_neg_forward,
    normalization=_norm_unit,
    standard=_std_meixner,
    deformation=Deformation(
        Param("u", 0, lambda v: 1 / v["c"], window=(0, 3)),
        measure=lambda pt, u: (pt.replace(c=pt.get("c") * u), 1, 0),
    ),
))

_register(FamilySpec(
    tag="charlier",
    domain=(Param("a", 0, window=(0, 4)),),
    shift_rule=None,
    raising=_charlier_raise,
    variants=(
        Variant("eta1", lambda pt: ops.BACKWARD_ETA1_SPEC, _step_one),
        Variant("etaS", lambda pt: ops.BACKWARD_ETAS_SPEC, _step_charlier_etaS),
    ),
    lowering=_low_neg_forward,
    adjoint=_low_neg_forward,
    normalization=_norm_unit,
    standard=_std_charlier,
    deformation=Deformation(
        Param("u", 0, window=(0, 3)), measure=lambda pt, u: (pt.replace(a=pt.get("a") * u), 1, 0)
    ),
))

_register(FamilySpec(
    tag="meixner-pollaczek",
    domain=(Param("lam", 0, window=(0, 3)), Param("phi", 0, window=(0, 4))),
    shift_rule=lambda pt: pt.replace(lam=pt.get("lam") + _half),
    raising=_mp_raise,
    variants=(Variant("", lambda pt: ops.DELTA_X_SPEC, _step_mp),),
    lowering=_low_delta_x,
    adjoint=_adj_neg_delta_x,
    normalization=_norm_mp,
    standard=_std_mp,
    # r = tan(t/4) keeps phi - t/2 in (0, pi); samples also avoid phi - t/2 = pi/2,
    # the pole of the flow variable T = tan(phi - t/2)
    deformation=Deformation(
        Param("r", lambda v: -1 / v["phi"], lambda v: v["phi"], skip=lambda v: tangent_subtract(v["phi"], 1)),
        measure=lambda pt, r: (pt.replace(phi=tangent_subtract(pt.get("phi"), r)), 1, 0),
    ),
))

_register(FamilySpec(
    tag="wilson",
    domain=tuple(Param(k, 0, window=(0, 2)) for k in "abcd"),
    shift_rule=_sh_add(("a", "b", "c", "d"), _half),
    raising=_wilson_raise,
    variants=(Variant("", lambda pt: ops.DELTA_X2_SPEC, _step_wilson),),
    lowering=_low_delta_x2,
    adjoint=None,
    normalization=_norm_unit,
    standard=_std_wilson,
    carrier=ops.EVEN,
))

_register(FamilySpec(
    tag="big-q-jacobi",
    domain=(
        Param("q", 0, 1), *(Param(k, 0, _inv_q, window=(0, 2)) for k in "ab"), Param("c", None, 0, window=(-4, 0))
    ),
    shift_rule=_sh_mul("q", ("a", "b", "c")),
    raising=_bqj_raise,
    variants=(
        Variant("Tq", lambda pt: ops.qderiv_Tq_spec(pt.get("q")), _step_bqj_Tq),
        Variant("I", lambda pt: ops.qderiv_I_spec(pt.get("q")), _step_bqj_I),
    ),
    lowering=_low_qinv,
    adjoint=_low_qinv,
    normalization=_norm_bqj,
    standard=_std_big_q_jacobi,
))

_register(_specialization("big-q-jacobi", {"b": 0}, tag="big-q-laguerre", shift_rule=_sh_mul("q", ("a", "c"))))

_register(FamilySpec(
    tag="askey-wilson",
    domain=(Param("a", -1, 1, nonzero=True), *(Param(k, -1, 1, skip=0) for k in "bcd"), Param("p", 0, 1)),
    shift_rule=_sh_mul("p", ("a", "b", "c", "d")),
    raising=_aw_raise,
    variants=(Variant("", lambda pt: ops.aw_spec(pt.get("p")), _step_aw),),
    lowering=_low_aw,
    adjoint=None,
    normalization=_norm_aw,
    standard=_std_askey_wilson,
    carrier=ops.LAURENT,
))

_register(_specialization(
    "askey-wilson",
    dict.fromkeys("abcd", 0),
    tag="continuous-q-hermite",
    shift_rule=None,
    standard=_std_cq_hermite,
))

_register(FamilySpec(
    tag="krawtchouk",
    domain=(Param("p", 0, 1), Param("N", 0, window=(3, 9), integer=True)),
    shift_rule=None,
    raising=None,  # finite family: only the closed form and its recurrence are used
    variants=(),
    lowering=_low_neg_forward,
    adjoint=None,
    normalization=_norm_unit,
    standard=_std_krawtchouk,
    deformation=Deformation(Param("u", 0, window=(0, 3)), measure=_krawtchouk_deformed),
    top=lambda pt: pt.get("N"),
))


def deformation(tag: str) -> Deformation:
    d = FAMILIES[tag].deformation
    if d is None:
        raise KeyError(f"no e^(-xt) deformation registered for {tag}")
    return d


def deformed_measure(point: ParamPoint, s) -> tuple:
    """(image point, alpha, beta) of the family's e^(-xt) deformation at scalar s."""
    return deformation(point.family).image(point, _Q(s))


def shifted_point(point: ParamPoint, k: int) -> ParamPoint:
    """nu + k sigma: the k-th successor of point, the same object on every call."""
    spec = FAMILIES[point.family]
    for _ in range(k):
        point = spec.shift(point)
    return point


def make_point(tag: str, **values) -> ParamPoint:
    spec = FAMILIES[tag]
    names = spec.param_names
    missing = [k for k in names if k not in values]
    if missing:
        raise KeyError(f"{tag} needs parameters {missing}")
    extra = [k for k in values if k not in names]
    if extra:
        raise KeyError(f"{tag} got unknown parameters {extra}")
    vals = tuple((p.name, _coordinate(p, values[p.name])) for p in spec.domain)
    return ParamPoint(tag, vals)


def _coordinate(p: Param, v):
    """v as a point stores it: a scalar, except for an integer Param, which
    takes an integral real scalar as its int and any other value as given,
    for `Param.admits` to reject."""
    if not p.integer:
        return _Q(v)
    s = _scalar(v)
    return s.r if s is not None and not s.i and s.d == 1 else v


def raise_chain(point: ParamPoint, n: int):
    """R_nu R_(nu+sigma) ... R_(nu+(n-1)sigma) applied to the constant 1.

    The rightmost factor acts first; the order matters because raising
    operators at different parameters do not commute.  Each chain is kept on
    the point it starts at.
    """
    if FAMILIES[point.family].raising is None:
        raise ValueError(f"{point.family} has no raising-chain machinery")
    return point.derived(("chain", n), _chain, point, n)


def _chain(point: ParamPoint, n: int):
    """The chain of raise_chain(point, n), built on a memo miss.

    The recursion checks the shifted points, nearest first.
    """
    spec = FAMILIES[point.family]
    if not spec.admissible(point):
        raise ValueError(f"inadmissible parameter point {point}")
    if n == 0:
        return spec.carrier.one
    out = spec.raising_operator(point)(raise_chain(spec.shift(point), n - 1))
    if spec.carrier.degree(out) != n:
        raise AssertionError(f"{point.family} raising chain degree {spec.carrier.degree(out)} != {n}")
    return out


def standard_poly(point: ParamPoint, n: int):
    """The standard (basic) hypergeometric form of the degree-n polynomial, kept on the point."""
    return point.derived(("std", n), FAMILIES[point.family].standard, point, n)


def normalization(point: ParamPoint, n: int) -> GaussianRational:
    return FAMILIES[point.family].normalization(point, n)


def expand_in_basis(element, basis: list) -> list:
    """Coefficients of `element` in a graded basis; tripwire on any residue."""
    by_degree = {}
    for j, b in enumerate(basis):
        by_degree[b.degree if b else -1] = j
    coeffs = [GR_ZERO] * len(basis)
    rem = element
    while rem:
        d = rem.degree
        j = by_degree.get(d)
        if j is None:
            raise AssertionError(f"no basis element of degree {d} while expanding")
        c = rem.lead * basis[j].lead.inverse()
        coeffs[j] = c
        rem = rem - basis[j] * c
        if rem and rem.degree >= d:
            raise AssertionError("basis expansion failed to reduce degree")
    return coeffs


def _basis_polys(point: ParamPoint, upto: int) -> list:
    basis = raise_chain if FAMILIES[point.family].raising is not None else standard_poly
    return [basis(point, j) for j in range(upto + 1)]


def recurrence_extract(point: ParamPoint, N: int) -> MonicRecurrence:
    """Exact b_n, c_n for n <= N from x * monic(p_n) = monic(p_(n+1)) + ...

    A residue outside the three expected terms means the family data is wrong
    and raises immediately.
    """
    spec = FAMILIES[point.family]
    polys = _basis_polys(point, N + 1)
    ms = [spec.carrier.monic(f) for f in polys]
    xm = spec.carrier.variable
    bs, cs = [], []
    for n in range(N + 1):
        coeffs = expand_in_basis(xm * ms[n], ms[: n + 2])
        for j, cf in enumerate(coeffs[: max(n - 1, 0)]):
            if cf:
                raise AssertionError(f"{point.family}: x p_{n} has a stray p_{j} component")
        if coeffs[n + 1] != GR_ONE:
            raise AssertionError(f"{point.family}: x p_{n} is not monic against p_{n + 1}")
        bs.append(coeffs[n])
        cs.append(coeffs[n - 1] if n >= 1 else GR_ZERO)
    return MonicRecurrence(tuple(bs), tuple(cs))


def lowering_constant_check(point: ParamPoint, n: int):
    """L_nu p_n^(nu) must be an exact scalar multiple of p_(n-1)^(nu+sigma).

    Returns (scalar, residual); the residual after the best leading-term fit
    must be exactly zero.
    """
    spec = FAMILIES[point.family]
    if n < 1:
        raise ValueError("lowering_constant_check needs n >= 1")
    pn = raise_chain(point, n)
    target = raise_chain(spec.shift(point), n - 1)
    lowered = spec.lowering(point)(pn)
    if not lowered:
        return GR_ZERO, target  # degree-0 annihilation would be a failure upstream
    if spec.carrier.degree(lowered) != n - 1:
        raise AssertionError(f"{point.family}: lowering did not drop the degree by one")
    ell = lowered.lead * target.lead.inverse()
    residual = lowered - target * ell
    return ell, residual
