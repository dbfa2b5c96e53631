"""Isospectral-flow checks: closed-form recurrence-coefficient solutions of

    c_n' = c_n (b_(n-1) - b_n),      b_n' = c_n - c_(n+1)

and the modified-weight polynomial expansions they come from.

Time derivatives are never taken numerically.  Each solution is written as a
rational function of a substitution variable (t itself, u = e^(-t), or
T = tan(phi - t/2)), and d/dt becomes an exact polynomial multiple of d/dv:

    u = e^(-t):        d/dt = -u d/du
    T = tan(phi-t/2):  d/dt = -(1+T^2)/2 d/dT

so every residual reduces to a rational-function identity provable by exact
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import (
    GR_HALF_I,
    GR_I,
    GaussianRational,
    Poly,
    binomial,
    factorial,
    pochhammer,
    poly_gcd,
    q_pochhammer,
    scalar,
    tangent_subtract,
    term_sum,
    unit_phase,
)
from .families import (
    ParamPoint,
    MonicRecurrence,
    deformation,
    big_q_jacobi_poly,
    falling_poch_poly,
    make_point,
    mp_poly,
    q_poch_poly,
    recurrence_extract,
    rising_poch_poly,
    shifted_point,
    standard_poly,
)

__all__ = [
    "RationalFunction",
    "TodaVariable",
    "TodaSolution",
    "TODA_SOLUTIONS",
    "toda_residuals",
    "ModifiedExpansion",
    "MODIFIED_EXPANSIONS",
    "modified_expansion_residual",
    "toda_from_recurrence_crosscheck",
    "modified_recurrence",
]

_Q = scalar


class RationalFunction:
    """Quotient of polynomials in one named variable, kept in reduced form."""

    __slots__ = ("num", "den", "var")

    def __init__(self, num, den=None, var: str = "t"):
        num = num if isinstance(num, Poly) else Poly.constant(num)
        den = Poly.one() if den is None else (den if isinstance(den, Poly) else Poly.constant(den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.lead.inverse()
        self.num = num * lead
        self.den = den * lead
        self.var = var

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction(other, var=self.var)
        return self.num * other.den == other.num * self.den

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        return RationalFunction(other, var=self.var)

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num, out.den, out.var = -self.num, self.den, self.var
        return out

    def __add__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den, self.var)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den, self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num, self.var)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
            self.var,
        )

    def __call__(self, value) -> GaussianRational:
        return self.num(value) / self.den(value)

    def __repr__(self):
        num = repr(self.num).replace("x", self.var)
        if self.den == Poly.one():
            return f"({num})"
        return f"({num}) / ({repr(self.den).replace('x', self.var)})"


@dataclass(frozen=True)
class TodaVariable:
    """Substitution variable with its exact chain-rule factor for d/dt."""

    tag: str
    var: str
    chain: Poly  # d/dt = chain(v) * d/dv


VAR_PLAIN = TodaVariable("plain-t", "t", Poly.one())
VAR_EXP_NEG = TodaVariable("exp-neg-t", "u", Poly([0, -1]))
VAR_TAN_HALF = TodaVariable("tan-half", "T", Poly([_Q(-1, 2), 0, _Q(-1, 2)]))


def _ddt(f: RationalFunction, variable: TodaVariable) -> RationalFunction:
    return f.derivative() * RationalFunction(variable.chain, var=variable.var)


@dataclass(frozen=True)
class TodaSolution:
    """Closed-form b_n, c_n for one family, as rational functions of the variable."""

    family: str
    variable: TodaVariable
    b: Callable[[int, ParamPoint], RationalFunction]
    c: Callable[[int, ParamPoint], RationalFunction]
    max_n: Callable[[ParamPoint], int | None]  # None = unbounded


def _sol_hermite():
    def b(n, pt):
        return RationalFunction(Poly([0, _Q(-1, 2)]), var="t")

    def c(n, pt):
        return RationalFunction(_Q(n, 2), var="t")

    return TodaSolution("hermite", VAR_PLAIN, b, c, lambda pt: None)


def _sol_laguerre():
    den = Poly([1, 1])

    def b(n, pt):
        return RationalFunction(Poly.constant(2 * n + pt.get("nu") + 1), den, "t")

    def c(n, pt):
        return RationalFunction(Poly.constant(n * (n + pt.get("nu"))), den * den, "t")

    return TodaSolution("laguerre", VAR_PLAIN, b, c, lambda pt: None)


def _sol_charlier():
    def b(n, pt):
        return RationalFunction(Poly([n, pt.get("a")]), var="u")

    def c(n, pt):
        return RationalFunction(Poly([0, n * pt.get("a")]), var="u")

    return TodaSolution("charlier", VAR_EXP_NEG, b, c, lambda pt: None)


def _sol_meixner():
    def b(n, pt):
        beta, c = pt.get("beta"), pt.get("c")
        return RationalFunction(Poly([n, (n + beta) * c]), Poly([1, -c]), "u")

    def c(n, pt):
        beta, cc = pt.get("beta"), pt.get("c")
        den = Poly([1, -cc])
        return RationalFunction(Poly([0, n * (n + beta - 1) * cc]), den * den, "u")

    return TodaSolution("meixner", VAR_EXP_NEG, b, c, lambda pt: None)


def _sol_mp():
    def b(n, pt):
        return RationalFunction(Poly.constant(-(n + pt.get("lam"))), Poly([0, 1]), "T")

    def c(n, pt):
        lam = pt.get("lam")
        return RationalFunction(
            Poly([1, 0, 1]) * _Q(n * (n + 2 * lam - 1)), Poly([0, 0, 4]), "T"
        )

    return TodaSolution("meixner-pollaczek", VAR_TAN_HALF, b, c, lambda pt: None)


def _sol_krawtchouk():
    def b(n, pt):
        p, N = pt.get("p"), pt.get("N")
        return RationalFunction(Poly([n * (1 - p), p * (N - n)]), Poly([1 - p, p]), "u")

    def c(n, pt):
        p, N = pt.get("p"), pt.get("N")
        den = Poly([1 - p, p])
        return RationalFunction(
            Poly([0, n * (N + 1 - n) * p * (1 - p)]), den * den, "u"
        )

    return TodaSolution("krawtchouk", VAR_EXP_NEG, b, c, lambda pt: pt.get("N"))


TODA_SOLUTIONS = {
    s.family: s
    for s in (
        _sol_hermite(),
        _sol_laguerre(),
        _sol_charlier(),
        _sol_meixner(),
        _sol_mp(),
        _sol_krawtchouk(),
    )
}


def toda_residuals(sol: TodaSolution, n: int, point: ParamPoint):
    """Both lattice-equation residuals at index n; identically zero when solved.

    The b-equation uses c_(n+1), so for a finite family n must stay below the
    top index.
    """
    if n < 1:
        raise ValueError("toda_residuals needs n >= 1")
    top = sol.max_n(point)
    if top is not None and n + 1 > top:
        raise ValueError(f"index n={n} needs c_{n + 1} beyond the family size {top}")
    bn = sol.b(n, point)
    cn = sol.c(n, point)
    r_c = _ddt(cn, sol.variable) - cn * (sol.b(n - 1, point) - bn)
    r_b = _ddt(bn, sol.variable) - (cn - sol.c(n + 1, point))
    return r_c, r_b


# ---------------------------------------------------------------------------
# modified-weight expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModifiedExpansion:
    """Expansion of the polynomials for a deformed weight in the base family.

    The k-sum is orthogonal under the measure `measure(point, s)` names as
    (image point, alpha, beta): the measure of the image point pushed forward
    by x -> alpha x + beta.  None means the family's e^(-xt) deformation.
    """

    id: str
    family: str
    build: Callable  # (point, n, s) -> (lhs, [terms]); s is the deformation scalar or None
    measure: Optional[Callable] = None


def _build_hermite_toda(point, n, t):
    # H_n(x + t/2) = sum_k t^k binom(n,k) H_(n-k)(x)
    t = _Q(t)
    lhs = standard_poly(point, n).compose_affine(1, t / 2)
    terms = []
    for k in range(n + 1):
        coef = _Q(binomial(n, k)) * t ** k
        terms.append(standard_poly(point, n - k) * coef)
    return lhs, terms


def _build_laguerre_toda(point, n, t):
    # L_n^(nu)(x(1+t)) = sum_k ((-t)^k / k!) x^k L_(n-k)^(nu+k)(x)
    t = _Q(t)
    lhs = standard_poly(point, n).compose_affine(1 + t, 0)
    terms = []
    for k in range(n + 1):
        coef = (-t) ** k / factorial(k)
        terms.append(Poly.monomial(k, coef) * standard_poly(shifted_point(point, k), n - k))
    return lhs, terms


def _modified_meixner_point(point, u):
    return point.replace(c=point.get("c") * _Q(u))


def _build_meixner_toda_eta1(point, n, u):
    # M_n(x; beta, cu) = sum_k ((-n)_k (beta+x)_k / (k! (beta)_k)) M_(n-k)(x; beta+k, c) u^-n (1-u)^k
    beta = point.get("beta")
    u = _Q(u)
    lhs = standard_poly(_modified_meixner_point(point, u), n)
    un = _Q(1) / u ** n
    terms = []
    for k in range(n + 1):
        coef = pochhammer(-n, k) * (
            pochhammer(beta, k) * factorial(k)
        ).inverse() * (un * (1 - u) ** k)
        terms.append(
            rising_poch_poly(beta, k) * coef * standard_poly(shifted_point(point, k), n - k)
        )
    return lhs, terms


def _build_meixner_toda_etaS(point, n, u):
    # M_n(x; beta, cu) = sum_k ((-n)_k (-x)_k / (k! (beta)_k c^k)) M_(n-k)(x-k; beta+k, c) (1 - 1/u)^k
    beta, c = point.get("beta"), point.get("c")
    u = _Q(u)
    lhs = standard_poly(_modified_meixner_point(point, u), n)
    terms = []
    for k in range(n + 1):
        coef = pochhammer(-n, k) * (
            pochhammer(beta, k) * factorial(k)
        ).inverse() * ((1 - 1 / u) ** k / c ** k)
        terms.append(
            falling_poch_poly(k) * coef
            * standard_poly(shifted_point(point, k), n - k).compose_affine(1, -k)
        )
    return lhs, terms


def _build_charlier_toda_eta1(point, n, u):
    # C_n(x; au) = sum_k ((-n)_k / k!) C_(n-k)(x; a) u^-n (1-u)^k
    u = _Q(u)
    lhs = standard_poly(point.replace(a=point.get("a") * u), n)
    un = _Q(1) / u ** n
    terms = []
    for k in range(n + 1):
        coef = pochhammer(-n, k) * _Q(1, factorial(k)) * (un * (1 - u) ** k)
        terms.append(standard_poly(point, n - k) * coef)
    return lhs, terms


def _build_charlier_toda_etaS(point, n, u):
    # C_n(x; au) = sum_k ((-n)_k (-x)_k / k!) C_(n-k)(x-k; a) a^-k (1 - 1/u)^k
    a = point.get("a")
    u = _Q(u)
    lhs = standard_poly(point.replace(a=a * u), n)
    terms = []
    for k in range(n + 1):
        coef = pochhammer(-n, k) * _Q(1, factorial(k)) * ((1 - 1 / u) ** k / a ** k)
        terms.append(
            falling_poch_poly(k) * coef
            * standard_poly(point, n - k).compose_affine(1, -k)
        )
    return lhs, terms


def _build_mp_toda(point, n, r):
    # P_n^(lam)(x; phi - t/2) = sum_k (i^k e^(-ik phi) / k!) (lam + ix)_k
    #     P_(n-k)^(lam+k/2)(x - ki/2; phi) (2 sin(t/2))^k e^(-i t (n-k)/2),
    # with r = tan(t/4) carrying the deformation exactly.
    lam = point.get("lam")
    s = point.get("phi")
    r = _Q(r)
    u_phi = unit_phase(s)
    half_t = unit_phase(r)             # e^(i t/2)
    e_neg_half_t = half_t.conjugate()  # e^(-i t/2)
    s_mod = tangent_subtract(s, r)     # tan((phi - t/2) / 2)
    lhs = mp_poly(lam, s_mod, n)
    two_sin = _Q(2 * half_t.i, half_t.d)  # 2 sin(t/2)
    terms = []
    for k in range(n + 1):
        coef = (GR_I ** k) * u_phi.conjugate() ** k * _Q(1, factorial(k))
        coef = coef * _Q(two_sin ** k) * e_neg_half_t ** (n - k)
        terms.append(
            rising_poch_poly(lam, k, GR_I) * coef
            * standard_poly(shifted_point(point, k), n - k).compose_affine(
                1, GR_HALF_I * (-k)
            )
        )
    return lhs, terms


def _build_bqj_to_bql(point, n, s):
    # sum_k ((q^-n, x; q)_k / (q, aq, cq; q)_k) (-abq^n)^k q^(k(k+3)/2)
    #     P_(n-k)(x q^k; a q^k, 0, c q^k; q)  =  P_n(x; a, b, c; q)
    a, b, c, q = (point.get(k) for k in ("a", "b", "c", "q"))
    lhs = standard_poly(point, n)
    qn = _Q(1) / q ** n
    terms = []
    for k in range(n + 1):
        coef = q_pochhammer(qn, q, k) * (
            q_pochhammer(q, q, k) * q_pochhammer(a * q, q, k) * q_pochhammer(c * q, q, k)
        ).inverse() * ((-a * b * q ** n) ** k * q ** (k * (k + 3) // 2))
        t = q_poch_poly(1, q, k) * coef
        t = t * big_q_jacobi_poly(a * q ** k, 0, c * q ** k, q, n - k).compose_affine(q ** k, 0)
        terms.append(t)
    return lhs, terms


def _build_bql_inverse(point, n, s):
    # sum_k ((q^-n, x; q)_k / (q, aq, cq; q)_k) (ab)^k q^(k(k+n+1))
    #     P_(n-k)(x q^k; a q^k, b q^k, c q^k; q)  =  P_n(x; a, 0, c; q)
    a, b, c, q = (point.get(k) for k in ("a", "b", "c", "q"))
    lhs = big_q_jacobi_poly(a, 0, c, q, n)
    qn = _Q(1) / q ** n
    terms = []
    for k in range(n + 1):
        coef = q_pochhammer(qn, q, k) * (
            q_pochhammer(q, q, k) * q_pochhammer(a * q, q, k) * q_pochhammer(c * q, q, k)
        ).inverse() * ((a * b) ** k * q ** (k * (k + n + 1)))
        t = q_poch_poly(1, q, k) * coef
        t = t * standard_poly(shifted_point(point, k), n - k).compose_affine(q ** k, 0)
        terms.append(t)
    return lhs, terms


def _measure_bql_inverse(point, s):
    q, a, c = (point.get(k) for k in ("q", "a", "c"))
    return make_point("big-q-laguerre", q=q, a=a, c=c), 1, 0


def _build_bql_second(point, n, s):
    # sum_k ((q^-n, xb/c; q)_k / (q, aq, cq; q)_k) (ac)^k q^(k(k+n+1))
    #     P_(n-k)(x q^k; a q^k, b q^k, c q^k; q)
    #   = (c/b)^n ((bq, abq/c; q)_n / (aq, cq; q)_n) P_n(x b/c; b, 0, ab/c; q)
    a, b, c, q = (point.get(k) for k in ("a", "b", "c", "q"))
    scale = (c / b) ** n * q_pochhammer(b * q, q, n) * q_pochhammer(a * b * q / c, q, n) * (
        q_pochhammer(a * q, q, n) * q_pochhammer(c * q, q, n)
    ).inverse()
    lhs = big_q_jacobi_poly(b, 0, a * b / c, q, n).compose_affine(b / c, 0) * scale
    qn = _Q(1) / q ** n
    terms = []
    for k in range(n + 1):
        coef = q_pochhammer(qn, q, k) * (
            q_pochhammer(q, q, k) * q_pochhammer(a * q, q, k) * q_pochhammer(c * q, q, k)
        ).inverse() * ((a * c) ** k * q ** (k * (k + n + 1)))
        t = q_poch_poly(b / c, q, k) * coef
        t = t * standard_poly(shifted_point(point, k), n - k).compose_affine(q ** k, 0)
        terms.append(t)
    return lhs, terms


def _measure_bql_second(point, s):
    # the sum is orthogonal where P_n(x b/c; b, 0, ab/c; q) is: y -> (c/b) y
    a, b, c, q = (point.get(k) for k in ("a", "b", "c", "q"))
    return make_point("big-q-laguerre", q=q, a=b, c=a * b / c), c / b, 0


MODIFIED_EXPANSIONS: dict = {}


def _reg(e: ModifiedExpansion):
    MODIFIED_EXPANSIONS[e.id] = e


_reg(ModifiedExpansion("hermite-toda", "hermite", _build_hermite_toda))
_reg(ModifiedExpansion("laguerre-toda", "laguerre", _build_laguerre_toda))
_reg(ModifiedExpansion("meixner-toda-eta1", "meixner", _build_meixner_toda_eta1))
_reg(ModifiedExpansion("meixner-toda-etaS", "meixner", _build_meixner_toda_etaS))
_reg(ModifiedExpansion("charlier-toda-eta1", "charlier", _build_charlier_toda_eta1))
_reg(ModifiedExpansion("charlier-toda-etaS", "charlier", _build_charlier_toda_etaS))
_reg(ModifiedExpansion("mp-toda", "meixner-pollaczek", _build_mp_toda))
_reg(ModifiedExpansion(
    "bigqjacobi-to-bigqlaguerre", "big-q-jacobi", _build_bqj_to_bql, lambda point, s: (point, 1, 0)
))
_reg(ModifiedExpansion("bigqlaguerre-inverse", "big-q-jacobi", _build_bql_inverse, _measure_bql_inverse))
_reg(ModifiedExpansion("bigqlaguerre-second", "big-q-jacobi", _build_bql_second, _measure_bql_second))


def modified_expansion_residual(identity: str, point: ParamPoint, n: int, s=None):
    """LHS minus the k-sum at deformation scalar s (None for a family without one)."""
    lhs, terms = MODIFIED_EXPANSIONS[identity].build(point, n, s)
    return lhs - term_sum(terms)


# ---------------------------------------------------------------------------
# recurrence crosscheck
# ---------------------------------------------------------------------------

def modified_recurrence(point: ParamPoint, s, N: int) -> MonicRecurrence:
    """Monic recurrence of the orthogonal family for the e^(-xt)-deformed weight at scalar s.

    The recurrence is extracted at the deformation's image point; the image's
    affine change of variable x -> alpha x + beta then maps (b, c) to
    (alpha b + beta, alpha^2 c).
    """
    image, alpha, beta = deformation(point.family).image(point, _Q(s))
    rec = recurrence_extract(image, N)
    return MonicRecurrence(
        tuple(b * alpha + beta for b in rec.b), tuple(c * (alpha * alpha) for c in rec.c)
    )


def toda_from_recurrence_crosscheck(point: ParamPoint, s, n: int):
    """Recurrence extraction at the deformed point vs. the closed-form solution.

    The deformation scalar s is the one the family's deformation names (t,
    u = e^(-t) or r = tan(t/4)); the closed form is evaluated at the flow
    variable read off the image.  Returns the pair of differences (b-route
    gap, c-route gap), both exactly zero.
    """
    rec = modified_recurrence(point, s, n)
    sol = TODA_SOLUTIONS[point.family]
    v = deformation(point.family).flow_variable(point, _Q(s))
    return rec.b[n] - sol.b(n, point)(v), rec.c[n] - sol.c(n, point)(v)
