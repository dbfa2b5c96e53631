"""Isospectral-flow checks: closed-form recurrence-coefficient solutions of

    c_n' = c_n (b_(n-1) - b_n),      b_n' = c_n - c_(n+1)

and the modified-weight polynomial expansions they come from.  Each
expansion declares only its k-th term, and ModifiedExpansion.build states the
range k = 0 .. n once; the terms sum to the standard polynomial of the measure
the expansion declares, by default the family's e^(-xt) deformation (ModifiedExpansion.lhs).

Time derivatives are never taken numerically.  Each solution is written in a
substitution variable v (t itself, u = e^(-t), or T = tan(phi - t/2)), and
d/dt becomes an exact polynomial multiple of d/dv:

    u = e^(-t):        d/dt = -u d/du
    T = tan(phi-t/2):  d/dt = -(1+T^2)/2 d/dT

Each family declares one denominator D(v) and numerator polynomials B_n(v)
and C_n(v), with b_n = B_n/D and c_n = C_n/D^2.  Clearing D turns both
lattice equations into polynomial identities provable by exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import (
    GR_HALF_I,
    GR_I,
    Poly,
    binomial,
    factorial,
    pochhammer,
    q_pochhammer,
    scalar,
    term_sum,
    unit_phase,
)
from .families import (
    FAMILIES,
    ParamPoint,
    MonicRecurrence,
    deformed_measure,
    big_q_jacobi_poly,
    falling_poch_poly,
    make_point,
    q_poch_poly,
    recurrence_extract,
    rising_poch_poly,
    shifted_point,
    standard_poly,
)

__all__ = [
    "TodaVariable",
    "TodaSolution",
    "TODA_SOLUTIONS",
    "flow_index",
    "toda_residuals",
    "flow_coefficient_strs",
    "ModifiedExpansion",
    "MODIFIED_EXPANSIONS",
    "modified_expansion_residual",
    "toda_from_recurrence_crosscheck",
    "modified_recurrence",
]

_Q = scalar


@dataclass(frozen=True)
class TodaVariable:
    """Substitution variable v with its exact chain-rule factor for d/dt.

    `read(image, s)` is v at the image point of the family's e^(-xt)
    deformation at scalar s; by default v is s itself (t, or u = e^(-t)).
    """

    tag: str
    var: str
    chain: Poly  # d/dt = chain(v) * d/dv
    read: Callable = lambda image, s: s


def _read_tan(image, r):
    """T = tan(phi - t/2) = tan(2A), the image's phi parameter being tan(A)."""
    h = image.get("phi")
    return 2 * h / (1 - h * h)


VAR_PLAIN = TodaVariable("plain-t", "t", Poly.one())
VAR_EXP_NEG = TodaVariable("exp-neg-t", "u", Poly([0, -1]))
VAR_TAN_HALF = TodaVariable("tan-half", "T", Poly([_Q(-1, 2), 0, _Q(-1, 2)]), _read_tan)


@dataclass(frozen=True)
class TodaSolution:
    """Closed-form b_n = B_n/D and c_n = C_n/D^2 for one family, in the variable v.

    D(v) is declared once per family and has degree <= 1; B_n and C_n are
    polynomials in v.
    """

    family: str
    variable: TodaVariable
    den: Callable[[ParamPoint], Poly]  # D
    b: Callable[[int, ParamPoint], Poly]  # B_n
    c: Callable[[int, ParamPoint], Poly]  # C_n


TODA_SOLUTIONS = {
    s.family: s
    for s in (
        # b_n = -t/2, c_n = n/2
        TodaSolution(
            "hermite", VAR_PLAIN,
            den=lambda pt: Poly.one(),
            b=lambda n, pt: Poly([0, _Q(-1, 2)]),
            c=lambda n, pt: Poly.constant(_Q(n, 2)),
        ),
        # b_n = (2n + nu + 1)/(1 + t), c_n = n(n + nu)/(1 + t)^2
        TodaSolution(
            "laguerre", VAR_PLAIN,
            den=lambda pt: Poly([1, 1]),
            b=lambda n, pt: Poly.constant(2 * n + pt.get("nu") + 1),
            c=lambda n, pt: Poly.constant(n * (n + pt.get("nu"))),
        ),
        # b_n = n + au, c_n = nau
        TodaSolution(
            "charlier", VAR_EXP_NEG,
            den=lambda pt: Poly.one(),
            b=lambda n, pt: Poly([n, pt.get("a")]),
            c=lambda n, pt: Poly([0, n * pt.get("a")]),
        ),
        # b_n = (n + (n + beta)cu)/(1 - cu), c_n = n(n + beta - 1)cu/(1 - cu)^2
        TodaSolution(
            "meixner", VAR_EXP_NEG,
            den=lambda pt: Poly([1, -pt.get("c")]),
            b=lambda n, pt: Poly([n, (n + pt.get("beta")) * pt.get("c")]),
            c=lambda n, pt: Poly([0, n * (n + pt.get("beta") - 1) * pt.get("c")]),
        ),
        # b_n = -(n + lam)/T, c_n = (1 + T^2) n(n + 2 lam - 1)/(4 T^2)
        TodaSolution(
            "meixner-pollaczek", VAR_TAN_HALF,
            den=lambda pt: Poly.x(),
            b=lambda n, pt: Poly.constant(-(n + pt.get("lam"))),
            c=lambda n, pt: Poly([1, 0, 1]) * (n * (n + 2 * pt.get("lam") - 1) / _Q(4)),
        ),
        # b_n = (n(1 - p) + p(N - n)u)/(1 - p + pu),
        # c_n = n(N + 1 - n)p(1 - p)u/(1 - p + pu)^2
        TodaSolution(
            "krawtchouk", VAR_EXP_NEG,
            den=lambda pt: Poly([1 - pt.get("p"), pt.get("p")]),
            b=lambda n, pt: Poly([n * (1 - pt.get("p")), pt.get("p") * (pt.get("N") - n)]),
            c=lambda n, pt: Poly([0, n * (pt.get("N") + 1 - n) * pt.get("p") * (1 - pt.get("p"))]),
        ),
    )
}


def flow_index(point: ParamPoint, n: int) -> int:
    """n, kept below the top index of a finite family: the flow at n reads c_(n+1)."""
    top = FAMILIES[point.family].top(point)
    return n if top is None else min(n, top - 1)


def toda_residuals(sol: TodaSolution, n: int, point: ParamPoint):
    """Both lattice-equation residuals at index n, cleared of D; zero when solved.

    With b = B/D and c = C/D^2, D^3 r_c = chi (C' D - 2 C D') - C (B_(n-1) - B_n)
    and D^2 r_b = chi (B' D - B D') - (C_n - C_(n+1)), chi the chain-rule
    factor; as D != 0 each is zero exactly when its equation holds.  n runs
    from 1 to flow_index(point, n).
    """
    if n < 1:
        raise ValueError("toda_residuals needs n >= 1")
    if flow_index(point, n) < n:
        top = FAMILIES[point.family].top(point)
        raise ValueError(f"index n={n} needs c_{n + 1} beyond the family size {top}")
    d = sol.den(point)
    if not d:
        raise ZeroDivisionError("lattice flow with zero denominator")
    dd = d.derivative()
    chi = sol.variable.chain
    bn, cn = sol.b(n, point), sol.c(n, point)
    r_c = chi * (cn.derivative() * d - 2 * cn * dd) - cn * (sol.b(n - 1, point) - bn)
    r_b = chi * (bn.derivative() * d - bn * dd) - (cn - sol.c(n + 1, point))
    return r_c, r_b


def _quotient_str(num: Poly, den: Poly, power: int, var: str) -> str:
    """num / den^power in lowest terms with a monic denominator, written in var.

    den has degree <= 1, so the monic den is 1 or v - r, and it is divided out
    of num for as long as it divides, that is while num(r) == 0.
    """
    lead = den.lead.inverse()
    num, den = num * lead ** power, den * lead
    if not den.degree:
        power = 0
    root = -den.coefficient(0)
    while power and not num(root):
        num, power = num.exact_div(den), power - 1
    text = f"({num!r})".replace("x", var)
    if power:
        text += f" / ({den ** power!r})".replace("x", var)
    return text


def flow_coefficient_strs(sol: TodaSolution, n: int, point: ParamPoint) -> tuple:
    """(b_n, c_n) as printed by `askeykit toda`: each in lowest terms, in the flow variable."""
    d, var = sol.den(point), sol.variable.var
    return _quotient_str(sol.b(n, point), d, 1, var), _quotient_str(sol.c(n, point), d, 2, var)


# ---------------------------------------------------------------------------
# modified-weight expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModifiedExpansion:
    """Expansion of the polynomials for a deformed weight in the base family.

    The k-sum is orthogonal under the measure `measure(point, s)` names as
    (image point, alpha, beta): the measure of the image point pushed forward
    by x -> alpha x + beta, by default the family's e^(-xt) deformation.  So
    the left side is that measure's standard polynomial, times `scale(point, n)`
    where one is declared.
    """

    id: str
    family: str
    term: Callable  # (point, n, s, k) -> the k-th term; s is the deformation scalar or None
    measure: Callable = deformed_measure
    scale: Callable | None = None

    def build(self, point: ParamPoint, n: int, s) -> list:
        """The k-terms, k = 0 .. n."""
        return [self.term(point, n, s, k) for k in range(n + 1)]

    def lhs(self, point: ParamPoint, n: int, s):
        """The image point's standard polynomial read at x -> (x - beta)/alpha, times the scale."""
        image, alpha, beta = self.measure(point, s)
        p = standard_poly(image, n)
        if alpha != 1 or beta:
            inv = _Q(alpha).inverse()
            p = p.compose_affine(inv, -beta * inv)
        return p if self.scale is None else p * self.scale(point, n)


def _term_hermite_toda(point, n, t, k):
    # H_n(x + t/2) = sum_k t^k binom(n,k) H_(n-k)(x)
    t = _Q(t)
    coef = _Q(binomial(n, k)) * t ** k
    return standard_poly(point, n - k) * coef


def _term_laguerre_toda(point, n, t, k):
    # L_n^(nu)(x(1+t)) = sum_k ((-t)^k / k!) x^k L_(n-k)^(nu+k)(x)
    t = _Q(t)
    coef = (-t) ** k / factorial(k)
    return Poly.monomial(k, coef) * standard_poly(shifted_point(point, k), n - k)


def _term_meixner_toda_eta1(point, n, u, k):
    # M_n(x; beta, cu) = sum_k ((-n)_k (beta+x)_k / (k! (beta)_k)) M_(n-k)(x; beta+k, c) u^-n (1-u)^k
    beta = point.get("beta")
    u = _Q(u)
    un = _Q(1) / u ** n
    coef = pochhammer(-n, k) * (
        pochhammer(beta, k) * factorial(k)
    ).inverse() * (un * (1 - u) ** k)
    return (
        rising_poch_poly(beta, k) * coef * standard_poly(shifted_point(point, k), n - k)
    )


def _term_meixner_toda_etaS(point, n, u, k):
    # M_n(x; beta, cu) = sum_k ((-n)_k (-x)_k / (k! (beta)_k c^k)) M_(n-k)(x-k; beta+k, c) (1 - 1/u)^k
    beta, c = point.get("beta"), point.get("c")
    u = _Q(u)
    coef = pochhammer(-n, k) * (
        pochhammer(beta, k) * factorial(k)
    ).inverse() * ((1 - 1 / u) ** k / c ** k)
    return (
        falling_poch_poly(k) * coef
        * standard_poly(shifted_point(point, k), n - k).compose_affine(1, -k)
    )


def _term_charlier_toda_eta1(point, n, u, k):
    # C_n(x; au) = sum_k ((-n)_k / k!) C_(n-k)(x; a) u^-n (1-u)^k
    u = _Q(u)
    un = _Q(1) / u ** n
    coef = pochhammer(-n, k) * _Q(1, factorial(k)) * (un * (1 - u) ** k)
    return standard_poly(point, n - k) * coef


def _term_charlier_toda_etaS(point, n, u, k):
    # C_n(x; au) = sum_k ((-n)_k (-x)_k / k!) C_(n-k)(x-k; a) a^-k (1 - 1/u)^k
    a = point.get("a")
    u = _Q(u)
    coef = pochhammer(-n, k) * _Q(1, factorial(k)) * ((1 - 1 / u) ** k / a ** k)
    return (
        falling_poch_poly(k) * coef
        * standard_poly(point, n - k).compose_affine(1, -k)
    )


def _term_mp_toda(point, n, r, k):
    # P_n^(lam)(x; phi - t/2) = sum_k (i^k e^(-ik phi) / k!) (lam + ix)_k
    #     P_(n-k)^(lam+k/2)(x - ki/2; phi) (2 sin(t/2))^k e^(-i t (n-k)/2),
    # with r = tan(t/4) carrying the deformation exactly.
    lam = point.get("lam")
    r = _Q(r)
    u_phi = unit_phase(point.get("phi"))
    half_t = unit_phase(r)             # e^(i t/2)
    e_neg_half_t = half_t.conjugate()  # e^(-i t/2)
    two_sin = _Q(2 * half_t.i, half_t.d)  # 2 sin(t/2)
    coef = (GR_I ** k) * u_phi.conjugate() ** k * _Q(1, factorial(k))
    coef = coef * _Q(two_sin ** k) * e_neg_half_t ** (n - k)
    return (
        rising_poch_poly(lam, k, GR_I) * coef
        * standard_poly(shifted_point(point, k), n - k).compose_affine(
            1, GR_HALF_I * (-k)
        )
    )


def _bq_coef(a, c, q, n, k):
    """(q^-n; q)_k / (q, aq, cq; q)_k, the factor all three big q-expansions share."""
    return q_pochhammer(q ** -n, q, k) * (
        q_pochhammer(q, q, k) * q_pochhammer(a * q, q, k) * q_pochhammer(c * q, q, k)
    ).inverse()


def _term_bqj_to_bql(point, n, s, k):
    # sum_k ((q^-n, x; q)_k / (q, aq, cq; q)_k) (-abq^n)^k q^(k(k+3)/2)
    #     P_(n-k)(x q^k; a q^k, 0, c q^k; q)  =  P_n(x; a, b, c; q)
    a, b, c, q = (point.get(name) for name in ("a", "b", "c", "q"))
    coef = _bq_coef(a, c, q, n, k) * ((-a * b * q ** n) ** k * q ** (k * (k + 3) // 2))
    t = q_poch_poly(1, q, k) * coef
    t = t * big_q_jacobi_poly(a * q ** k, 0, c * q ** k, q, n - k).compose_affine(q ** k, 0)
    return t


def _term_bql_inverse(point, n, s, k):
    # sum_k ((q^-n, x; q)_k / (q, aq, cq; q)_k) (ab)^k q^(k(k+n+1))
    #     P_(n-k)(x q^k; a q^k, b q^k, c q^k; q)  =  P_n(x; a, 0, c; q)
    a, b, c, q = (point.get(name) for name in ("a", "b", "c", "q"))
    coef = _bq_coef(a, c, q, n, k) * ((a * b) ** k * q ** (k * (k + n + 1)))
    t = q_poch_poly(1, q, k) * coef
    t = t * standard_poly(shifted_point(point, k), n - k).compose_affine(q ** k, 0)
    return t


def _measure_bql_inverse(point, s):
    q, a, c = (point.get(k) for k in ("q", "a", "c"))
    return make_point("big-q-laguerre", q=q, a=a, c=c), 1, 0


def _term_bql_second(point, n, s, k):
    # sum_k ((q^-n, xb/c; q)_k / (q, aq, cq; q)_k) (ac)^k q^(k(k+n+1))
    #     P_(n-k)(x q^k; a q^k, b q^k, c q^k; q)
    #   = (c/b)^n ((bq, abq/c; q)_n / (aq, cq; q)_n) P_n(x b/c; b, 0, ab/c; q)
    a, b, c, q = (point.get(name) for name in ("a", "b", "c", "q"))
    coef = _bq_coef(a, c, q, n, k) * ((a * c) ** k * q ** (k * (k + n + 1)))
    t = q_poch_poly(b / c, q, k) * coef
    t = t * standard_poly(shifted_point(point, k), n - k).compose_affine(q ** k, 0)
    return t


def _measure_bql_second(point, s):
    # the sum is orthogonal where P_n(x b/c; b, 0, ab/c; q) is: y -> (c/b) y
    a, b, c, q = (point.get(k) for k in ("a", "b", "c", "q"))
    return make_point("big-q-laguerre", q=q, a=b, c=a * b / c), c / b, 0


def _scale_bql_second(point, n):
    """(c/b)^n (bq, abq/c; q)_n / (aq, cq; q)_n, the scale of the second expansion's left side."""
    a, b, c, q = (point.get(k) for k in ("a", "b", "c", "q"))
    return (c / b) ** n * q_pochhammer(b * q, q, n) * q_pochhammer(a * b * q / c, q, n) * (
        q_pochhammer(a * q, q, n) * q_pochhammer(c * q, q, n)
    ).inverse()


MODIFIED_EXPANSIONS: dict = {}


def _reg(e: ModifiedExpansion):
    MODIFIED_EXPANSIONS[e.id] = e


_reg(ModifiedExpansion("hermite-toda", "hermite", _term_hermite_toda))
_reg(ModifiedExpansion("laguerre-toda", "laguerre", _term_laguerre_toda))
_reg(ModifiedExpansion("meixner-toda-eta1", "meixner", _term_meixner_toda_eta1))
_reg(ModifiedExpansion("meixner-toda-etaS", "meixner", _term_meixner_toda_etaS))
_reg(ModifiedExpansion("charlier-toda-eta1", "charlier", _term_charlier_toda_eta1))
_reg(ModifiedExpansion("charlier-toda-etaS", "charlier", _term_charlier_toda_etaS))
_reg(ModifiedExpansion("mp-toda", "meixner-pollaczek", _term_mp_toda))
_reg(ModifiedExpansion(
    "bigqjacobi-to-bigqlaguerre", "big-q-jacobi", _term_bqj_to_bql, lambda point, s: (point, 1, 0)
))
_reg(ModifiedExpansion("bigqlaguerre-inverse", "big-q-jacobi", _term_bql_inverse, _measure_bql_inverse))
_reg(ModifiedExpansion(
    "bigqlaguerre-second", "big-q-jacobi", _term_bql_second, _measure_bql_second, _scale_bql_second
))


def modified_expansion_residual(identity: str, point: ParamPoint, n: int, s=None):
    """LHS minus the k-sum at deformation scalar s (None for a family without one)."""
    e = MODIFIED_EXPANSIONS[identity]
    return e.lhs(point, n, s) - term_sum(e.build(point, n, s))


# ---------------------------------------------------------------------------
# recurrence crosscheck
# ---------------------------------------------------------------------------

def modified_recurrence(point: ParamPoint, s, N: int) -> MonicRecurrence:
    """Monic recurrence of the orthogonal family for the e^(-xt)-deformed weight at scalar s.

    The recurrence is extracted at the deformation's image point; the image's
    affine change of variable x -> alpha x + beta then maps (b, c) to
    (alpha b + beta, alpha^2 c).
    """
    image, alpha, beta = deformed_measure(point, s)
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
    v = sol.variable.read(deformed_measure(point, s)[0], _Q(s))
    d = sol.den(point)(v)
    return rec.b[n] - sol.b(n, point)(v) / d, rec.c[n] - sol.c(n, point)(v) / (d * d)
