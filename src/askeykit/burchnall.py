"""Operational and expansion identities.

Two layers deliberately coexist:

  * a generic engine that evaluates the raising-chain expansion
        chain_n(f) = sum_k alpha(n,k) ratio_k eta^k(p_(n-k)) T_{k,n} f
    directly from a family's registered data.  The k-th term is stated once,
    as its piece alpha(n,k) eta^k(p_(n-k)) T_{k,n} f and the weight steps
    with ratio_k = step_0 ... step_(k-1).  As in the paper's sum over
    r <= m ^ n, a term whose partial^k f is zero vanishes, so the sum runs
    over the window k = 0 .. top, top the last k with a nonzero partial^k f:
    only the top steps are built, and operational_sum folds the window's
    pieces from the top by Horner's rule in the steps,
        piece_0 + step_0 (piece_1 + step_1 (... + step_(top-1) piece_top)),
    while operational_terms multiplies the ratios out for the termwise
    comparison below, all n + 1 of them, zero past the window, and

  * literal transcriptions of the closed-form expansion identities, one
    function per catalogued identity, written straight from the textbook
    closed forms and *not* routed through the engine.  Each declares only
    its k-th term; `Expansion.build` states the range k = 0 .. min(n, m) once,
    and the left side the terms sum to is `lhs_prefactor(n, m)` times the
    standard polynomial p_(n+m).

Agreement between the two is itself a test: after the family normalization
the engine must reproduce each literal expansion k-term by k-term.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Callable

from .algebra import (
    GR_HALF_I,
    GR_I,
    GR_ONE,
    GaussianRational,
    Laurent,
    Poly,
    binomial,
    factorial,
    horner_sum,
    pochhammer,
    product,
    q_pochhammer,
    scalar,
    term_sum,
    unit_phase,
)
from .families import (
    FAMILIES,
    ParamPoint,
    expand_in_basis,
    falling_poch_poly,
    make_point,
    normalization,
    q_poch_poly,
    raise_chain,
    rising_poch_poly,
    shifted_point,
    standard_poly,
)
from .ops import aw_eta, ladder

__all__ = [
    "apply_chain",
    "operational_sum",
    "operational_terms",
    "operational_residual",
    "chain_expansion_residual",
    "Expansion",
    "EXPANSIONS",
    "closed_expansion_residual",
    "expansion_term_gaps",
    "hermite_linearization_oracle",
    "feldheim_watson_coefficient",
    "zassenhaus_series_residual",
]

_Q = scalar


# ---------------------------------------------------------------------------
# generic engine
# ---------------------------------------------------------------------------

def apply_chain(point: ParamPoint, n: int, f):
    """R_nu R_(nu+sigma) ... R_(nu+(n-1)sigma) f by composing the operators."""
    spec = FAMILIES[point.family]
    points = [point]
    for _ in range(n - 1):
        points.append(spec.shift(points[-1]))
    out = f
    for pt in reversed(points[:n]):
        out = spec.raising_operator(pt)(out)
    return out


def _pieces(point: ParamPoint, n: int, fs, variant: str | None) -> tuple:
    """(pieces, steps): for each f of fs its n + 1 pieces alpha(n,k) eta^k(p_(n-k)) T_(k,n) f,
    and the variant's weight steps over the window, so that term k of the expansion
    is piece k times ratio_k = steps[0] ... steps[k-1].

    The window is k = 0 .. top, where top = len(steps) is the last k at which
    some partial^k f is nonzero (0 if none is); past it every piece is the
    zero partial^k f itself and computes nothing, and no step j >= top is
    built.  The pieces that do not depend on f (alpha and the eta-shifted
    chain) are computed once per k for all of fs; each (k, f) piece is one
    product.
    """
    spec = FAMILIES[point.family]
    var = spec.variant(variant) if variant is not None else spec.variants[0]
    op = var.op_spec(point)
    ladders = [ladder(op.partial, f, n) for f in fs]
    rows = []  # rows[k][i]: piece k of fs[i]
    top = 0
    for k in range(n + 1):
        hs = [f_ladder[k] for f_ladder in ladders]
        if any(hs):
            top = k
            alpha = op.alpha(n, k)
            eta_p = op.eta(raise_chain(shifted_point(point, k), n - k), k)
            hs = [product(alpha, eta_p, op.twist(h, k, n)) for h in hs]
        rows.append(hs)
    return list(zip(*rows)), [var.weight_step(point, j) for j in range(top)]


def operational_sum(point: ParamPoint, n: int, fs, variant: str | None = None) -> list:
    """The weight-ratio expansion of the n-step chain applied to each f of fs:
    the pieces of its window folded from the top by horner_sum in the weight steps."""
    pieces, steps = _pieces(point, n, fs, variant)
    return [horner_sum(f_pieces[: len(steps) + 1], steps) for f_pieces in pieces]


def operational_terms(point: ParamPoint, n: int, fs, variant: str | None = None) -> list:
    """The n + 1 k-terms of the weight-ratio expansion of the n-step chain, for each f of fs.

    Term k is alpha(n, k) ratio_k eta^k(p_(n-k)) T_(k,n) f: the piece of
    operational_sum times the weight ratio ratio_k = eta^k(w_(nu+k sigma)) / w_nu,
    multiplied out from the steps over the window and the zero piece itself
    past it.  It serves the termwise comparison of expansion_term_gaps; the
    residuals sum the same pieces by operational_sum.
    """
    pieces, steps = _pieces(point, n, fs, variant)
    return [[p[0], *map(mul, accumulate(steps, mul), p[1:]), *p[len(steps) + 1:]] for p in pieces]


def operational_residual(point: ParamPoint, n: int, f, variant: str | None = None, chain=None):
    """Chain applied to f minus the weight-ratio expansion; exactly zero.

    chain is apply_chain(point, n, f) when the caller has it already.
    """
    if chain is None:
        chain = apply_chain(point, n, f)
    return chain - operational_sum(point, n, [f], variant)[0]


def chain_expansion_residual(point: ParamPoint, n: int, m: int, variant: str | None = None):
    """p_(n+m) minus the expansion with f = p_m at the n-shifted parameters."""
    f = raise_chain(shifted_point(point, n), m)
    return raise_chain(point, n + m) - operational_sum(point, n, [f], variant)[0]


# ---------------------------------------------------------------------------
# literal closed-form expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expansion:
    """One closed-form expansion identity: k-terms summing to lhs_prefactor(n, m) p_(n+m)."""

    id: str
    family: str
    variant: str  # the engine variant it must agree with
    term: Callable  # (point, n, m, k) -> the k-th term
    lhs_prefactor: Callable  # (n, m) -> scalar relating LHS to the standard polynomial

    def build(self, point: ParamPoint, n: int, m: int) -> list:
        """The k-terms, k = 0 .. min(n, m)."""
        return [self.term(point, n, m, k) for k in range(min(n, m) + 1)]

    def lhs(self, point: ParamPoint, n: int, m: int):
        """The left side: lhs_prefactor(n, m) times the standard polynomial p_(n+m)."""
        p, pref = standard_poly(point, n + m), self.lhs_prefactor(n, m)
        return p if pref == 1 else p * pref


def _term_hermite(point, n, m, r):
    coef = _Q(binomial(n, r) * binomial(m, r) * (-2) ** r * factorial(r))
    return standard_poly(point, n - r) * standard_poly(point, m - r) * coef


def _term_laguerre(point, n, m, k):
    # ((m+1)_n / n!) L_(m+n) = sum_k ((-x)^k / k!) L_(n-k)^(nu+k) L_(m-k)^(nu+n+k)
    xs = Poly.monomial(k, _Q((-1) ** k) / factorial(k))
    t = xs * standard_poly(shifted_point(point, k), n - k)
    t = t * standard_poly(shifted_point(point, n + k), m - k)
    return t


def _term_jacobi(point, n, m, k):
    alpha, beta = point.get("alpha"), point.get("beta")
    quad = Poly([_Q(-1, 4), 0, _Q(1, 4)])  # (1-x^2)/(-4)
    coef = pochhammer(alpha + beta + 2 * n + m + 1, k) * _Q(1, factorial(k))
    t = (quad ** k) * coef
    t = t * standard_poly(shifted_point(point, k), n - k)
    t = t * standard_poly(shifted_point(point, n + k), m - k)
    return t


def _term_meixner_eta1(point, n, m, k):
    beta, c = point.get("beta"), point.get("c")
    coef = (
        pochhammer(-n, k) * pochhammer(-m, k)
        * ((c - 1) / c) ** k
        * (pochhammer(beta, k) * pochhammer(beta + n, k) * factorial(k)).inverse()
    )
    t = rising_poch_poly(beta, k) * coef
    t = t * standard_poly(shifted_point(point, k), n - k)
    t = t * standard_poly(shifted_point(point, n + k), m - k).compose_affine(1, -n)
    return t


def _term_meixner_etaS(point, n, m, k):
    # coefficient ((1-c)/c^2)^k: the nabla = S Delta rewrite carries no sign
    beta, c = point.get("beta"), point.get("c")
    coef = (
        pochhammer(-n, k) * pochhammer(-m, k)
        * ((1 - c) / (c * c)) ** k
        * (pochhammer(beta, k) * pochhammer(beta + n, k) * factorial(k)).inverse()
    )
    t = falling_poch_poly(k) * coef
    t = t * standard_poly(shifted_point(point, k), n - k).compose_affine(1, -k)
    t = t * standard_poly(shifted_point(point, n + k), m - k).compose_affine(1, -k)
    return t


def _term_charlier_eta1(point, n, m, k):
    # coefficient (-n)_k (-m)_k / (k! (-a)^k): nabla^k C_m = (-m)_k a^-k S^k C_(m-k)
    a = point.get("a")
    coef = pochhammer(-n, k) * pochhammer(-m, k) * _Q(1, factorial(k)) / (-a) ** k
    t = standard_poly(point, n - k) * coef
    t = t * standard_poly(point, m - k).compose_affine(1, -n)
    return t


def _term_charlier_etaS(point, n, m, k):
    # coefficient (-n)_k (-m)_k (-x)_k / (k! a^(2k)); the weight ratio keeps (-x)_k
    a = point.get("a")
    coef = pochhammer(-n, k) * pochhammer(-m, k) * _Q(1, factorial(k)) / a ** (2 * k)
    t = falling_poch_poly(k) * coef
    t = t * standard_poly(point, n - k).compose_affine(1, -k)
    t = t * standard_poly(point, m - k).compose_affine(1, -k)
    return t


def _term_mp(point, n, m, k):
    lam = point.get("lam")
    u = unit_phase(point.get("phi"))
    two_sin = _Q(2 * u.i, u.d)
    coef = (
        ((-GR_I) ** k) * u.conjugate() ** k * _Q(two_sin ** k) * _Q(1, factorial(k))
    )
    t = rising_poch_poly(lam, k, GR_I) * coef
    t = t * standard_poly(shifted_point(point, k), n - k).compose_affine(
        1, GR_HALF_I * (-k)
    )
    t = t * standard_poly(shifted_point(point, n + k), m - k).compose_affine(
        1, GR_HALF_I * (n - k)
    )
    return t


def _term_wilson(point, n, m, k):
    vals = [point.get(name) for name in ("a", "b", "c", "d")]
    s1 = sum(vals)
    coef = (
        pochhammer(-n, k) * pochhammer(-m, k)
        * pochhammer(m + s1 + 2 * n - 1, k) * _Q(1, factorial(k))
    )
    prod = Poly.one()
    for e in vals:
        prod = prod * rising_poch_poly(e, k, GR_I)
    t = prod * coef
    t = t * standard_poly(shifted_point(point, k), n - k).compose_affine(1, GR_HALF_I * (-k))
    t = t * standard_poly(shifted_point(point, n + k), m - k).compose_affine(
        1, GR_HALF_I * (n - k)
    )
    return t


def _bqj_coef(a, b, c, q, n, m, k):
    """The k-th coefficient shared by both big q-Jacobi expansions:

    (q^-n, q^-m, ab q^(2n+m+1); q)_k (ac)^k q^(k(k+n+2)) / (q, aq, cq, a q^(n+1), c q^(n+1); q)_k
    """
    num = q_pochhammer(q ** -n, q, k) * q_pochhammer(q ** -m, q, k) * q_pochhammer(a * b * q ** (2 * n + m + 1), q, k)
    den = (
        q_pochhammer(q, q, k) * q_pochhammer(a * q, q, k) * q_pochhammer(c * q, q, k)
        * q_pochhammer(a * q ** (n + 1), q, k) * q_pochhammer(c * q ** (n + 1), q, k)
    )
    return num * den.inverse() * ((a * c) ** k * q ** (k * (k + n + 2)))


def _term_bqj_Tq(point, n, m, k):
    a, b, c, q = (point.get(name) for name in ("a", "b", "c", "q"))
    t = q_poch_poly(1, q, k) * q_poch_poly(b / c, q, k) * _bqj_coef(a, b, c, q, n, m, k)
    t = t * standard_poly(shifted_point(point, k), n - k).compose_affine(q ** k, 0)
    t = t * standard_poly(shifted_point(point, n + k), m - k).compose_affine(q ** k, 0)
    return t


def _term_bqj_I(point, n, m, k):
    a, b, c, q = (point.get(name) for name in ("a", "b", "c", "q"))
    qmk = _Q(1) / q ** k
    t = q_poch_poly(qmk / a, q, k) * q_poch_poly(qmk / c, q, k) * _bqj_coef(a, b, c, q, n, m, k)
    t = t * standard_poly(shifted_point(point, k), n - k)
    t = t * standard_poly(shifted_point(point, n + k), m - k).compose_affine(q ** n, 0)
    return t


def _aw_ratio_factor(vals, q, k) -> Laurent:
    """z^(-2k) (az, bz, cz, dz; q)_k; a zero parameter's factor is 1."""
    factors = [q_poch_poly(e, q, k) for e in vals if e] or [Poly.one()]
    return Laurent.from_poly(product(1, *factors), -2 * k)


def _term_aw_vals(point, vals, n, m, k):
    p = point.get("p")
    q = p * p
    a, b, c, d = vals
    qn = _Q(1) / q ** n
    qm = _Q(1) / q ** m
    abcd = a * b * c * d
    coef = (
        q_pochhammer(qn, q, k) * q_pochhammer(qm, q, k) * q_pochhammer(abcd * q ** (2 * n + m - 1), q, k)
        * q_pochhammer(q, q, k).inverse()
    )
    # q^(-k^2 + k + nm/2 + km/2 + nk), integral in the base p
    coef = coef * GaussianRational.coerce(p) ** (
        -2 * k * k + 2 * k + n * m + k * m + 2 * n * k
    )
    t = _aw_ratio_factor(vals, q, k) * coef
    t = t * aw_eta(standard_poly(shifted_point(point, k), n - k), p, k)
    t = t * aw_eta(standard_poly(shifted_point(point, n + k), m - k), p, k - n)
    return t


def _term_aw(point, n, m, k):
    return _term_aw_vals(point, [point.get(name) for name in ("a", "b", "c", "d")], n, m, k)


def _term_cqh(point, n, m, k):
    # Askey-Wilson's expansion at a = b = c = d = 0
    return _term_aw_vals(point, [_Q(0)] * 4, n, m, k)


def _pref_one(n, m):
    return GR_ONE


def _pref_binom(n, m):
    return GaussianRational(binomial(n + m, n))


EXPANSIONS: dict = {}


def _reg(e: Expansion):
    EXPANSIONS[e.id] = e


_reg(Expansion("hermite-expansion", "hermite", "", _term_hermite, _pref_one))
_reg(Expansion("laguerre-expansion", "laguerre", "", _term_laguerre, _pref_binom))
_reg(Expansion("jacobi-expansion", "jacobi", "", _term_jacobi, _pref_binom))
_reg(Expansion("meixner-expansion-eta1", "meixner", "eta1", _term_meixner_eta1, _pref_one))
_reg(Expansion("meixner-expansion-etaS", "meixner", "etaS", _term_meixner_etaS, _pref_one))
_reg(Expansion("charlier-expansion-eta1", "charlier", "eta1", _term_charlier_eta1, _pref_one))
_reg(Expansion("charlier-expansion-etaS", "charlier", "etaS", _term_charlier_etaS, _pref_one))
_reg(Expansion("mp-expansion", "meixner-pollaczek", "", _term_mp, _pref_binom))
_reg(Expansion("wilson-expansion", "wilson", "", _term_wilson, _pref_one))
_reg(Expansion("bigqjacobi-expansion-Tq", "big-q-jacobi", "Tq", _term_bqj_Tq, _pref_one))
_reg(Expansion("bigqjacobi-expansion-I", "big-q-jacobi", "I", _term_bqj_I, _pref_one))
_reg(Expansion("aw-expansion", "askey-wilson", "", _term_aw, _pref_one))
_reg(Expansion("cqhermite-expansion", "continuous-q-hermite", "", _term_cqh, _pref_one))


def closed_expansion_residual(identity: str, point: ParamPoint, n: int, m: int):
    """LHS minus the closed-form k-sum for one catalogued identity; exactly zero."""
    e = EXPANSIONS[identity]
    return e.lhs(point, n, m) - term_sum(e.build(point, n, m))


def expansion_term_gaps(identity: str, point: ParamPoint, n: int, m: int) -> tuple:
    """Each literal k-term minus prefactor * normalization times the engine's k-term.

    The literal k-terms run over the range `Expansion.build` states, k = 0 ..
    min(n, m); the engine's terms past it must be zero and stand as they are.
    All zero means the closed form and the generic engine write the same sum
    term by term, not merely the same polynomial.
    """
    e = EXPANSIONS[identity]
    literal = e.build(point, n, m)
    scale = e.lhs_prefactor(n, m) * normalization(point, n + m)
    f = raise_chain(shifted_point(point, n), m)
    engine = operational_terms(point, n, [f], e.variant)[0]
    return tuple(
        literal[k] - t * scale if k < len(literal) else t for k, t in enumerate(engine)
    )


# ---------------------------------------------------------------------------
# Hermite oracles
# ---------------------------------------------------------------------------

def feldheim_watson_coefficient(m: int, n: int, r: int) -> int:
    return binomial(n, r) * binomial(m, r) * 2 ** r * factorial(r)


def hermite_linearization_oracle(m: int, n: int) -> tuple:
    """Coefficients of H_(m+n-2r) in H_m H_n, by brute-force basis expansion."""
    h = make_point("hermite")
    basis = [standard_poly(h, j) for j in range(m + n + 1)]
    coeffs = expand_in_basis(basis[m] * basis[n], basis)
    out = []
    for j, cf in enumerate(coeffs):
        if (m + n - j) % 2 == 1 and cf:
            raise AssertionError("Hermite product expansion hit a parity-violating term")
    for r in range(min(m, n) + 1):
        out.append(coeffs[m + n - 2 * r])
    if any(cf for j, cf in enumerate(coeffs) if j < m + n - 2 * min(m, n)):
        raise AssertionError("Hermite product expansion has terms below degree m+n-2min")
    return tuple(out)


def zassenhaus_series_residual(order: int, f: Poly) -> tuple:
    """Coefficient-wise difference of exp(t(d/dx - 2x)) f against its closed form.

    LHS_j = chain^j f / j!; RHS is the t-expansion of f(x+t) exp(-2xt - t^2).
    Returns the order + 1 residual Polys, t^0 first; all are exactly zero.
    """
    pt = make_point("hermite")
    spec = FAMILIES["hermite"]
    R = spec.raising(pt)
    lhs = []
    cur = f
    for j in range(order + 1):
        lhs.append(cur * _Q(1, factorial(j)))
        cur = R(cur)
    # exp(-2xt - t^2): coefficient of t^b
    exp_coeffs = []
    for b in range(order + 1):
        acc = Poly.zero()
        for mm in range(b // 2 + 1):
            w = b - 2 * mm
            coef = _Q((-1) ** mm, factorial(w) * factorial(mm))
            acc = acc + Poly.monomial(w, _Q((-2) ** w)) * coef
        exp_coeffs.append(acc)
    # f(x+t): coefficient of t^a is f^(a)/a!
    taylor = []
    cur = f
    for a in range(order + 1):
        taylor.append(cur * _Q(1, factorial(a)))
        cur = cur.derivative()
    residual = []
    for j in range(order + 1):
        rhs = Poly.zero()
        for a in range(j + 1):
            rhs = rhs + taylor[a] * exp_coeffs[j - a]
        residual.append(lhs[j] - rhs)
    return tuple(residual)
