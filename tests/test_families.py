"""Family catalog: chains, closed forms, normalizations, recurrences."""

import dataclasses
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from askeykit import algebra
from askeykit.algebra import (
    GR_HALF_I,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Laurent,
    Poly,
    SymLaurent,
    chebyshev_lift,
    pochhammer,
    q_pochhammer,
    scalar,
    term_sum,
    unit_phase,
)
from askeykit import families, ops
from askeykit.burchnall import apply_chain, operational_terms
from askeykit.functional import adjointness_check, build_functional
from askeykit.families import (
    FAMILIES,
    FamilySpec,
    Param,
    ParamPoint,
    lowering_constant_check,
    make_point,
    normalization,
    q_poch_poly,
    raise_chain,
    recurrence_extract,
    rising_poch_poly,
    shifted_point,
    standard_poly,
    falling_poch_poly,
)
from askeykit.sampling import sample_point

Q = scalar

CHAIN_FAMILIES = [t for t, s in FAMILIES.items() if s.raising is not None]


def test_chain_first_steps():
    assert raise_chain(make_point("hermite"), 1) == Poly([0, -2])
    pt = make_point("laguerre", nu=Q(1, 2))
    assert raise_chain(pt, 1) == Poly([Q(3, 2), -1])
    pt = make_point("charlier", a=Q(3))
    assert raise_chain(pt, 1) == Poly([1, Q(-1, 3)])


def test_standard_examples():
    assert standard_poly(make_point("hermite"), 2) == Poly([-2, 0, 4])
    assert standard_poly(make_point("meixner", beta=Q(2), c=Q(1, 2)), 1)(0) == GaussianRational(1)
    assert standard_poly(make_point("continuous-q-hermite", p=Q(1, 2)), 1).coefficient(1) == GaussianRational(1)
    assert standard_poly(make_point("laguerre", nu=Q(0)), 1) == Poly([1, -1])
    assert standard_poly(make_point("krawtchouk", p=Q(1, 2), N=5), 0) == Poly.one()


def test_inadmissible_points_raise():
    pt = make_point("laguerre", nu=Q(-3, 2))
    with pytest.raises(ValueError):
        raise_chain(pt, 1)
    with pytest.raises(ValueError):
        raise_chain(make_point("krawtchouk", p=Q(1, 2), N=4), 1)


def test_an_integer_parameter_given_as_a_scalar():
    # an integral real scalar is stored as its int; any other value is
    # inadmissible, and the check never converts it
    spec = FAMILIES["krawtchouk"]
    pt = make_point("krawtchouk", p=Q(1, 3), N=Q(5))
    assert type(pt.get("N")) is int and pt == make_point("krawtchouk", p=Q(1, 3), N=5)
    assert spec.admissible(pt)
    for N in (Q(11, 2), Q(5) + GR_I, Fraction(11, 2)):
        assert not spec.admissible(make_point("krawtchouk", p=Q(1, 3), N=N)), N


def test_normalization_identity_random_points():
    rng = Random(91)
    for tag in CHAIN_FAMILIES:
        spec = FAMILIES[tag]
        upto = 6 if spec.carrier != "poly" else 8
        for _ in range(10):
            pt = sample_point(tag, rng)
            for n in range(upto + 1):
                assert standard_poly(pt, n) == raise_chain(pt, n) * normalization(pt, n), (tag, pt, n)


def test_chain_degree_growth():
    rng = Random(17)
    for tag in CHAIN_FAMILIES:
        spec = FAMILIES[tag]
        pt = sample_point(tag, rng)
        for n in range(5):
            assert spec.carrier.degree(raise_chain(pt, n)) == n


def test_adjoint_annihilation():
    # the lowering chain of length n kills polynomials of degree < n
    rng = Random(23)
    for tag in CHAIN_FAMILIES:
        spec = FAMILIES[tag]
        if spec.carrier != "poly":
            continue
        pt = sample_point(tag, rng)
        low = spec.lowering(pt)
        for n in range(1, 5):
            for k in range(n):
                f = Poly.monomial(k)
                for _ in range(n):
                    f = low(f)
                assert not f, (tag, n, k)


def test_recurrence_examples():
    rec = recurrence_extract(make_point("hermite"), 5)
    assert all(not b for b in rec.b)
    assert rec.c[3] == GaussianRational(Q(3, 2))
    rec = recurrence_extract(make_point("laguerre", nu=Q(1, 2)), 3)
    assert rec.b[0] == GaussianRational(Q(3, 2))
    rec = recurrence_extract(make_point("charlier", a=Q(2)), 3)
    assert rec.c[1] == GaussianRational(2)


def _assert_recurrence(pt, b, c, N=8):
    """recurrence_extract at pt against closed forms n -> b_n, c_n for n <= N."""
    rec = recurrence_extract(pt, N)
    for n in range(N + 1):
        assert rec.b[n] == b(n), (pt, n)
        if n:
            assert rec.c[n] == c(n), (pt, n)


def _big_q_jacobi_recurrence(a, b, c, q):
    def A(n):
        num = (1 - a * q ** (n + 1)) * (1 - a * b * q ** (n + 1)) * (1 - c * q ** (n + 1))
        return num / ((1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2)))

    def C(n):
        num = -a * c * q ** (n + 1) * (1 - q ** n) * (1 - b * q ** n) * (1 - a * b * q ** n / c)
        return num / ((1 - a * b * q ** (2 * n)) * (1 - a * b * q ** (2 * n + 1)))

    return (lambda n: 1 - A(n) - C(n)), (lambda n: A(n - 1) * C(n))


def _jacobi_recurrence(al, be):
    def b(n):
        s = 2 * n + al + be
        return (be ** 2 - al ** 2) / (s * (s + 2)) if n else (be - al) / (al + be + 2)

    def c(n):
        # c_1 with the factor n + al + be = s - 1 cancelled: al + be = -1 is admissible
        s = 2 * n + al + be
        if n == 1:
            return 4 * (1 + al) * (1 + be) / (s ** 2 * (s + 1))
        return 4 * n * (n + al) * (n + be) * (n + al + be) / (s ** 2 * (s + 1) * (s - 1))

    return b, c


def _meixner_pollaczek_recurrence(lam, phi):
    u = unit_phase(phi)
    cos, sin = scalar(u.r, u.d), scalar(u.i, u.d)
    return (lambda n: -(n + lam) * cos / sin), (lambda n: n * (n + 2 * lam - 1) / (4 * sin ** 2))


def _wilson_recurrence(a, b, c, d):
    # in the variable x^2
    s = a + b + c + d

    def A(n):
        return (n + s - 1) * (n + a + b) * (n + a + c) * (n + a + d) / ((2 * n + s - 1) * (2 * n + s))

    def C(n):
        return n * (n + b + c - 1) * (n + b + d - 1) * (n + c + d - 1) / ((2 * n + s - 2) * (2 * n + s - 1))

    return (lambda n: A(n) + C(n) - a * a), (lambda n: A(n - 1) * C(n))


def _askey_wilson_recurrence(a, b, c, d, p):
    # in the variable x = (z + 1/z)/2
    q, abcd = p * p, a * b * c * d

    def A(n):
        qn, q1 = q ** n, q ** n / q  # q^n, q^(n-1)
        num = (1 - a * b * qn) * (1 - a * c * qn) * (1 - a * d * qn) * (1 - abcd * q1)
        return num / (a * (1 - abcd * qn * q1) * (1 - abcd * qn * qn))

    def C(n):
        qn, q1 = q ** n, q ** n / q
        num = a * (1 - qn) * (1 - b * c * q1) * (1 - b * d * q1) * (1 - c * d * q1)
        return num / ((1 - abcd * q1 * q1) * (1 - abcd * qn * q1))

    return (lambda n: (a + 1 / a - A(n) - C(n)) / 2), (lambda n: A(n - 1) * C(n) / 4)


# The monic b_n and c_n of Koekoek, Lesky and Swarttouw for all twelve
# families, each read off a point as the pair (n -> b_n, n -> c_n).
RECURRENCE_CLOSED_FORMS = {
    "hermite": lambda g: ((lambda n: 0), (lambda n: Q(n, 2))),
    "laguerre": lambda g: ((lambda n: 2 * n + g("nu") + 1), (lambda n: n * (n + g("nu")))),
    "charlier": lambda g: ((lambda n: n + g("a")), (lambda n: n * g("a"))),
    "jacobi": lambda g: _jacobi_recurrence(g("alpha"), g("beta")),
    "meixner": lambda g: (
        (lambda n: (n + (n + g("beta")) * g("c")) / (1 - g("c"))),
        (lambda n: n * (n + g("beta") - 1) * g("c") / (1 - g("c")) ** 2),
    ),
    "krawtchouk": lambda g: (
        (lambda n: g("p") * (g("N") - n) + n * (1 - g("p"))),
        (lambda n: n * g("p") * (1 - g("p")) * (g("N") + 1 - n)),
    ),
    "meixner-pollaczek": lambda g: _meixner_pollaczek_recurrence(g("lam"), g("phi")),
    "continuous-q-hermite": lambda g: ((lambda n: 0), (lambda n: (1 - g("p") ** (2 * n)) / 4)),
    "big-q-jacobi": lambda g: _big_q_jacobi_recurrence(g("a"), g("b"), g("c"), g("q")),
    "big-q-laguerre": lambda g: _big_q_jacobi_recurrence(g("a"), 0, g("c"), g("q")),
    "wilson": lambda g: _wilson_recurrence(*map(g, "abcd")),
    "askey-wilson": lambda g: _askey_wilson_recurrence(*map(g, "abcdp")),
}


def _assert_closed_forms(pt, N=8):
    _assert_recurrence(pt, *RECURRENCE_CLOSED_FORMS[pt.family](pt.get), N)


def test_recurrence_against_closed_forms():
    # n <= 8 at one fixed point per family (Krawtchouk at N = 9)
    _assert_closed_forms(make_point("hermite"))
    _assert_closed_forms(make_point("laguerre", nu=Q(2, 3)))
    _assert_closed_forms(make_point("charlier", a=Q(3, 4)))
    _assert_closed_forms(make_point("jacobi", alpha=Q(1, 2), beta=Q(-1, 3)))
    _assert_closed_forms(make_point("meixner", beta=Q(5, 2), c=Q(1, 3)))
    _assert_closed_forms(make_point("krawtchouk", p=Q(1, 3), N=9))
    _assert_closed_forms(make_point("meixner-pollaczek", lam=Q(4, 3), phi=Q(2, 5)))
    _assert_closed_forms(make_point("continuous-q-hermite", p=Q(2, 3)))
    q, a, b, c = Q(1, 2), Q(1, 3), Q(1, 4), Q(-2, 3)
    _assert_closed_forms(make_point("big-q-jacobi", q=q, a=a, b=b, c=c))
    _assert_closed_forms(make_point("big-q-laguerre", q=q, a=a, c=c))
    _assert_closed_forms(make_point("wilson", a=Q(1, 2), b=Q(1, 3), c=Q(1, 5), d=Q(3, 4)))
    _assert_closed_forms(make_point("askey-wilson", a=Q(1, 3), b=Q(1, 5), c=Q(-1, 7), d=Q(1, 11), p=Q(2, 3)))


def test_recurrence_closed_forms_at_sampled_points():
    assert set(RECURRENCE_CLOSED_FORMS) == set(FAMILIES)
    for tag in RECURRENCE_CLOSED_FORMS:
        rng = Random(f"recurrence/{tag}")
        for _ in range(3):
            pt = sample_point(tag, rng)
            _assert_closed_forms(pt, pt.get("N") - 1 if tag == "krawtchouk" else 10)


def test_recurrence_c_nonzero():
    rng = Random(5)
    for tag in CHAIN_FAMILIES:
        pt = sample_point(tag, rng)
        rec = recurrence_extract(pt, 4)
        for n in range(1, 5):
            assert rec.c[n], (tag, n)


def test_lowering_constant_hermite():
    pt = make_point("hermite")
    for n in (1, 2, 5):
        ell, res = lowering_constant_check(pt, n)
        assert not res
        assert ell == GaussianRational(-2 * n)


def test_lowering_constant_all_families():
    rng = Random(29)
    for tag in CHAIN_FAMILIES:
        pt = sample_point(tag, rng)
        for n in range(1, 5):
            ell, res = lowering_constant_check(pt, n)
            assert not res, (tag, n)
            assert ell, (tag, n)


def _ratio(spec, var, pt, k):
    """eta^k(w_(nu+k sigma))/w_nu as the product of the variant's first k weight steps."""
    out = Laurent.one() if spec.carrier == "laurent" else Poly.one()
    for j in range(k):
        out = out * var.weight_step(pt, j)
    return out


def test_weight_ratio_degree_bound():
    # eta^k(w_(nu+k sigma))/w_nu is polynomial of family degree <= 2k
    rng = Random(43)
    for tag in CHAIN_FAMILIES:
        spec = FAMILIES[tag]
        pt = sample_point(tag, rng)
        for var in spec.variants:
            for k in range(4):
                ratio = _ratio(spec, var, pt, k)
                if spec.carrier == "laurent":
                    deg = max(abs(ratio.degree), abs(ratio.low))
                else:
                    deg = spec.carrier.degree(ratio)
                assert deg <= 2 * k, (tag, var.name, k, deg)


def test_jacobi_derivative_relation():
    a, b = Q(1, 3), Q(3, 4)
    n = 3
    dP = standard_poly(make_point("jacobi", alpha=a, beta=b), n).derivative()
    assert dP == standard_poly(make_point("jacobi", alpha=a + 1, beta=b + 1), n - 1) * Q(n + a + b + 1, 2)


def test_charlier_recurrence_crossref():
    # c_1 = a, matching the flow solution at t = 0 (u = 1)
    rec = recurrence_extract(make_point("charlier", a=Q(7, 4)), 2)
    assert rec.c[1] == GaussianRational(Q(7, 4))


def test_q_pochhammer_is_gaussian_rational():
    # the literal q-transcriptions call .inverse() on it, so it must live in Q(i)
    for a, q, k in [(Q(2, 3), Q(1, 2), 0), (Q(1, 5), Q(1, 2), 1), (Q(-3, 7), Q(2, 5), 4), (3, Q(1, 4), 3)]:
        val = q_pochhammer(a, q, k)
        assert isinstance(val, GaussianRational), (a, q, k)
        prod = Q(1)
        for j in range(k):
            prod *= 1 - Q(a) * Q(q) ** j
        assert val == GaussianRational(prod), (a, q, k)
        assert val * val.inverse() == GaussianRational(1), (a, q, k)


def test_cold_chain_checks_each_point_once(monkeypatch):
    # the recursion checks the shifted points, so a chain of length n makes
    # n + 1 admissibility checks, not one per point per level
    calls = [0]
    admissible = FamilySpec.admissible

    def counting(self, point):
        calls[0] += 1
        return admissible(self, point)

    monkeypatch.setattr(FamilySpec, "admissible", counting)
    rng = Random(47)
    n = 6
    for tag in CHAIN_FAMILIES:
        pt = sample_point(tag, rng)  # a new point: nothing is kept on it yet
        calls[0] = 0
        raise_chain(pt, n)
        assert calls[0] == n + 1, (tag, calls[0])


# The weight ratios in their per-k closed forms, written out independently of
# the step functions in the family registry.

def _rising(base, k, xcoef=1):
    out = Poly.one()
    for j in range(k):
        out = out * Poly([base + j, xcoef])
    return out


def _falling(k):
    return _rising(0, k, -1)  # (-x)_k


def _q_poch_x(scale, q, k):
    out = Poly.one()
    for j in range(k):
        out = out * Poly([1, -scale * q ** j])
    return out


def _aw_ratio(vals, p, k):
    q = p * p
    out = Laurent.monomial(-2 * k, (-1) ** k / p ** (k * k))
    for e in vals:
        if e:
            for j in range(k):
                out = out * Laurent(0, [1, -e * q ** j])
    return out


RATIO_ORACLES = {
    ("hermite", ""): lambda v, k: Poly.one(),
    ("laguerre", ""): lambda v, k: Poly.monomial(k),
    ("jacobi", ""): lambda v, k: Poly([1, 0, -1]) ** k,
    ("meixner", "eta1"): lambda v, k: _rising(v["beta"], k) * pochhammer(v["beta"], k).inverse(),
    ("meixner", "etaS"): lambda v, k: _falling(k)
    * ((-1) ** k / v["c"] ** k) * pochhammer(v["beta"], k).inverse(),
    ("charlier", "eta1"): lambda v, k: Poly.one(),
    ("charlier", "etaS"): lambda v, k: _falling(k) * (1 / (-v["a"]) ** k),
    ("meixner-pollaczek", ""): lambda v, k: _rising(v["lam"], k, GR_I)
    * (GR_I ** k * unit_phase(v["phi"]).conjugate() ** k),
    ("wilson", ""): lambda v, k: _rising(v["a"], k, GR_I) * _rising(v["b"], k, GR_I)
    * _rising(v["c"], k, GR_I) * _rising(v["d"], k, GR_I) * (-1) ** k,
    ("big-q-jacobi", "Tq"): lambda v, k: _q_poch_x(1, v["q"], k) * _q_poch_x(v["b"] / v["c"], v["q"], k),
    ("big-q-jacobi", "I"): lambda v, k: _q_poch_x(1 / (v["a"] * v["q"] ** k), v["q"], k)
    * _q_poch_x(1 / (v["c"] * v["q"] ** k), v["q"], k),
    ("big-q-laguerre", "Tq"): lambda v, k: _q_poch_x(1, v["q"], k),
    ("big-q-laguerre", "I"): lambda v, k: _q_poch_x(1 / (v["a"] * v["q"] ** k), v["q"], k)
    * _q_poch_x(1 / (v["c"] * v["q"] ** k), v["q"], k),
    ("askey-wilson", ""): lambda v, k: _aw_ratio([v[e] for e in "abcd"], v["p"], k),
    ("continuous-q-hermite", ""): lambda v, k: _aw_ratio([], v["p"], k),
}


def test_weight_steps_multiply_to_the_closed_ratios():
    rng = Random(53)
    variants = {(tag, var.name) for tag in CHAIN_FAMILIES for var in FAMILIES[tag].variants}
    assert variants == set(RATIO_ORACLES)
    for tag in CHAIN_FAMILIES:
        spec = FAMILIES[tag]
        for _ in range(3):
            pt = sample_point(tag, rng)
            for var in spec.variants:
                for k in range(6):
                    expected = RATIO_ORACLES[(tag, var.name)](pt.as_dict(), k)
                    assert _ratio(spec, var, pt, k) == expected, (tag, var.name, pt, k)


# The 3phi2 and 4phi3 forms with fresh q-Pochhammer products for every term.

def _big_q_jacobi_by_pochhammers(a, b, c, q, n):
    out = Poly.zero()
    xpoch = Poly.one()
    for k in range(n + 1):
        scal = q_pochhammer(q ** -n, q, k) * q_pochhammer(a * b * q ** (n + 1), q, k) * q ** k / (
            q_pochhammer(a * q, q, k) * q_pochhammer(c * q, q, k) * q_pochhammer(q, q, k)
        )
        out = out + xpoch * scal
        xpoch = xpoch * Poly([1, -(q ** k)])
    return out


def _askey_wilson_by_pochhammers(a, b, c, d, p, n):
    q = p * p
    out = Laurent.zero()
    zpoch = Laurent.one()
    for k in range(n + 1):
        scal = q_pochhammer(q ** -n, q, k) * q_pochhammer(a * b * c * d * q ** (n - 1), q, k) * q ** k / (
            q_pochhammer(a * b, q, k) * q_pochhammer(a * c, q, k) * q_pochhammer(a * d, q, k)
            * q_pochhammer(q, q, k)
        )
        out = out + zpoch * scal
        zpoch = zpoch * Laurent(0, [1, -a * q ** k]) * Laurent(-1, [-a * q ** k, 1])
    pref = q_pochhammer(a * b, q, n) * q_pochhammer(a * c, q, n) * q_pochhammer(a * d, q, n) / a ** n
    return (out * pref).to_sym()


def test_q_closed_forms_match_the_pochhammer_forms():
    rng = Random(59)
    for _ in range(3):
        v = sample_point("big-q-jacobi", rng).as_dict()
        w = sample_point("big-q-laguerre", rng).as_dict()
        u = sample_point("askey-wilson", rng).as_dict()
        for n in range(7):
            for bq in ((v["a"], v["b"], v["c"], v["q"], n), (w["a"], 0, w["c"], w["q"], n)):
                pt = make_point("big-q-jacobi", **dict(zip("abcq", bq)))
                assert standard_poly(pt, n) == _big_q_jacobi_by_pochhammers(*bq), bq
            aw = (u["a"], u["b"], u["c"], u["d"], u["p"], n)
            pt = make_point("askey-wilson", **dict(zip("abcdp", aw)))
            assert standard_poly(pt, n) == _askey_wilson_by_pochhammers(*aw), (u, n)


# The closed forms as the sums of their KLS terms, each term a fresh product
# of Pochhammer symbols times a fresh product of polynomials; nothing here
# goes through algebra.horner_series.

def _pfq_terms(n, tops, bottoms, z, xpart):
    # sum_(k<=n) prod (a)_k / (prod (b)_k k!) z^k xpart(k)
    out = Poly.zero()
    for k in range(n + 1):
        scal = GaussianRational.coerce(z) ** k * Q(1, factorial(k))
        for a in tops:
            scal = scal * pochhammer(a, k)
        for b in bottoms:
            scal = scal / pochhammer(b, k)
        out = out + xpart(k) * scal
    return out


def _laguerre_by_pochhammers(nu, n):
    pref = pochhammer(nu + 1, n) * Q(1, factorial(n))
    return _pfq_terms(n, [-n], [nu + 1], 1, lambda k: Poly.x() ** k) * pref


def _jacobi_by_pochhammers(alpha, beta, n):
    pref = pochhammer(alpha + 1, n) * Q(1, factorial(n))
    half = Poly([Q(1, 2), Q(-1, 2)])
    return _pfq_terms(n, [-n, n + alpha + beta + 1], [alpha + 1], 1, lambda k: half ** k) * pref


def _meixner_by_pochhammers(beta, c, n):
    return _pfq_terms(n, [-n], [beta], 1 - 1 / GaussianRational.coerce(c), _falling)


def _charlier_by_pochhammers(a, n):
    return _pfq_terms(n, [-n], [], -1 / GaussianRational.coerce(a), _falling)


def _mp_by_pochhammers(lam, phi, n):
    # complex terms (lambda + ix)_k (1 - e^(-2i phi))^k whose sum is real
    u = unit_phase(phi)
    pref = pochhammer(2 * lam, n) * Q(1, factorial(n)) * u ** n
    return _pfq_terms(n, [-n], [2 * lam], 1 - u.conjugate() ** 2, lambda k: _rising(lam, k, GR_I)) * pref


def _wilson_by_pochhammers(a, b, c, d, n):
    pref = pochhammer(a + b, n) * pochhammer(a + c, n) * pochhammer(a + d, n)
    return _pfq_terms(
        n, [-n, n + a + b + c + d - 1], [a + b, a + c, a + d], 1,
        lambda k: _rising(a, k, GR_I) * _rising(a, k, -GR_I),
    ) * pref


def _krawtchouk_by_pochhammers(p, N, n):
    return _pfq_terms(n, [-n], [-N], 1 / GaussianRational.coerce(p), _falling)


def _cq_hermite_by_q_binomials(p, n):
    # H_n(x | q) = sum_k [n, k]_q z^(n-2k) (KLS 14.26.1), with the q-binomials
    # as quotients of (q; q)_j
    q = p * p
    out = Laurent.zero()
    for k in range(n + 1):
        qb = q_pochhammer(q, q, n) / (q_pochhammer(q, q, k) * q_pochhammer(q, q, n - k))
        out = out + Laurent.monomial(n - 2 * k, qb)
    return out.to_sym()


# tag: (the oracle's arguments from a point's values and n, the oracle)
_CLOSED_FORMS = {
    "laguerre": (lambda v, n: (v["nu"], n), _laguerre_by_pochhammers),
    "jacobi": (lambda v, n: (v["alpha"], v["beta"], n), _jacobi_by_pochhammers),
    "meixner": (lambda v, n: (v["beta"], v["c"], n), _meixner_by_pochhammers),
    "charlier": (lambda v, n: (v["a"], n), _charlier_by_pochhammers),
    "meixner-pollaczek": (lambda v, n: (v["lam"], v["phi"], n), _mp_by_pochhammers),
    "wilson": (lambda v, n: (v["a"], v["b"], v["c"], v["d"], n), _wilson_by_pochhammers),
    "big-q-jacobi": (lambda v, n: (v["a"], v["b"], v["c"], v["q"], n), _big_q_jacobi_by_pochhammers),
    "big-q-laguerre": (lambda v, n: (v["a"], 0, v["c"], v["q"], n), _big_q_jacobi_by_pochhammers),
    "askey-wilson": (lambda v, n: (v["a"], v["b"], v["c"], v["d"], v["p"], n), _askey_wilson_by_pochhammers),
    "continuous-q-hermite": (lambda v, n: (v["p"], n), _cq_hermite_by_q_binomials),
    "krawtchouk": (lambda v, n: (v["p"], v["N"], n), _krawtchouk_by_pochhammers),
}


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_closed_forms_match_their_pochhammer_terms(seed):
    # the ten forms (big q-Jacobi also as big q-Laguerre, b = 0) at sampled
    # points, n <= 10 (Krawtchouk n <= N)
    rng = Random(seed)
    for tag, (args, oracle) in _CLOSED_FORMS.items():
        pt = sample_point(tag, rng)
        v = pt.as_dict()
        for n in range(min(10, v.get("N", 10)) + 1):
            assert standard_poly(pt, n) == oracle(*args(v, n)), (tag, v, n)


_nonreal = st.builds(
    GaussianRational, st.builds(Q, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Q, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
)


@settings(max_examples=15, deadline=None)
@given(st.lists(_nonreal, min_size=4, max_size=4), st.integers(0, 6), st.integers(0, 2 ** 32))
def test_closed_forms_take_gaussian_parameters(vals, n, seed):
    # non-real parameters take the complex routes of both helpers
    a, b, c, d = vals
    q = sample_point("big-q-jacobi", Random(seed)).get("q")
    # each point's values in its oracle's argument order
    cases = [
        ("laguerre", {"nu": a}, _laguerre_by_pochhammers),
        ("jacobi", {"alpha": a, "beta": b}, _jacobi_by_pochhammers),
        ("meixner", {"beta": a, "c": b}, _meixner_by_pochhammers),
        ("charlier", {"a": a}, _charlier_by_pochhammers),
        ("wilson", {"a": a, "b": b, "c": c, "d": d}, _wilson_by_pochhammers),
        ("big-q-jacobi", {"a": a, "b": b, "c": c, "q": q}, _big_q_jacobi_by_pochhammers),
        ("big-q-jacobi", {"a": a, "b": 0, "c": c, "q": q}, _big_q_jacobi_by_pochhammers),
        ("askey-wilson", {"a": a, "b": b, "c": c, "d": d, "p": q}, _askey_wilson_by_pochhammers),
    ]
    for tag, values, oracle in cases:
        pt = make_point(tag, **values)
        try:
            expected = oracle(*values.values(), n)
        except ZeroDivisionError:  # a bottom parameter met a pole
            with pytest.raises(ZeroDivisionError):
                standard_poly(pt, n)
            continue
        assert standard_poly(pt, n) == expected, pt


def _from_sympy(expr, x):
    import sympy

    cs = sympy.Poly(expr, x).all_coeffs()[::-1]
    return Poly([scalar(int(c.p), int(c.q)) for c in cs])


def test_classical_forms_match_sympy():
    # a third-party check of Hermite, Laguerre and Jacobi in the KLS
    # normalization, which sympy's hermite_poly, laguerre_poly and
    # jacobi_poly share
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    params = [Q(1, 2), Q(-1, 3), Q(7, 4), Q(5), Q(-3, 5)]
    for n in range(11):
        assert standard_poly(make_point("hermite"), n) == _from_sympy(sympy.hermite_poly(n, x), x), n
        for nu in params:
            sym = sympy.laguerre_poly(n, x, sympy.Rational(nu.r, nu.d))
            assert standard_poly(make_point("laguerre", nu=nu), n) == _from_sympy(sym, x), (nu, n)
        for alpha, beta in zip(params, params[2:] + params[:2]):
            sa, sb = (sympy.Rational(t.r, t.d) for t in (alpha, beta))
            sym = sympy.jacobi_poly(n, sa, sb, x)
            pt = make_point("jacobi", alpha=alpha, beta=beta)
            assert standard_poly(pt, n) == _from_sympy(sym, x), (alpha, beta, n)


def test_closed_forms_canonicalize_once(monkeypatch):
    # each form sums its series in algebra.horner_series: no Poly built from
    # coefficients, no Poly or Laurent product, one canonical form
    rng = Random(73)
    points = {tag: sample_point(tag, rng) for tag in _CLOSED_FORMS}
    calls = {"init": 0, "mul": 0, "canon": 0}
    canon, init = algebra._canon, Poly.__init__

    def counting(method):
        def wrapper(self, other):
            calls["mul"] += 1
            return method(self, other)

        return wrapper

    def counting_init(self, *args):
        calls["init"] += 1
        init(self, *args)

    def counting_canon(*args):
        calls["canon"] += 1
        return canon(*args)

    for cls in (Poly, Laurent, SymLaurent):
        monkeypatch.setattr(cls, "__mul__", counting(cls.__mul__))
        monkeypatch.setattr(cls, "__rmul__", counting(cls.__rmul__))
    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(algebra, "_canon", counting_canon)
    for tag in _CLOSED_FORMS:
        calls.update(init=0, mul=0, canon=0)
        out = standard_poly(points[tag], 3)
        assert calls == {"init": 0, "mul": 0, "canon": 1}, (tag, calls)
        assert out.degree == (6 if tag == "wilson" else 3), tag
    monkeypatch.undo()


def test_points_hash_on_integer_parts(monkeypatch):
    # an int coordinate and the equal scalar give equal points with equal
    # hashes, and hashing a new point takes no scalar hash (whose
    # Fraction-compatible formula needs a modular inverse)
    a = ParamPoint("krawtchouk", (("p", GaussianRational(Q(1, 3))), ("N", 4)))
    b = ParamPoint("krawtchouk", (("p", GaussianRational(Q(1, 3))), ("N", GaussianRational(4))))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    c = a.replace(p=GaussianRational(Q(1, 3), Q(1, 5)))
    assert c != a and c == b.replace(p=GaussianRational(Q(1, 3), Q(1, 5)))
    assert hash(c) == hash(b.replace(p=GaussianRational(Q(1, 3), Q(1, 5))))

    def refuse(*args):
        raise AssertionError("hashing a point took a scalar hash or pow")

    pt = make_point("wilson", a=Q(1, 3), b=Q(2, 7), c=Q(5, 11), d=Q(3, 13))
    monkeypatch.setattr(GaussianRational, "__hash__", refuse)
    monkeypatch.setattr("builtins.pow", refuse)
    shifted = families.shifted_point(pt, 3)
    assert hash(shifted) == hash(families.shifted_point(pt, 3))
    assert {shifted: 1}[families.shifted_point(pt, 3)] == 1
    monkeypatch.undo()


def test_points_hold_the_scalar():
    rng = Random(61)
    for tag, spec in FAMILIES.items():
        pt = sample_point(tag, rng)
        for p in spec.domain:
            v = pt.get(p.name)
            assert type(v) is (int if p.integer else GaussianRational), (tag, p.name, v)
        image = spec.shift(pt)
        assert all(type(v) in (int, GaussianRational) for _, v in image.values), image
    for nu in (Q(1, 2), 3, GaussianRational(Q(5, 4))):
        v = make_point("laguerre", nu=nu).get("nu")
        assert type(v) is GaussianRational and v == nu


def test_engine_makes_no_fractions(monkeypatch):
    # points hold the integer-part scalar, so a cold raising chain, the
    # operational expansion and a moment functional never build a
    # fractions.Fraction; the points are new, so every memo on them starts empty
    points = {
        "laguerre": make_point("laguerre", nu=Q(1, 2)),
        "big-q-jacobi": make_point("big-q-jacobi", q=Q(1, 2), a=Q(1, 3), b=Q(1, 4), c=Q(-2, 3)),
        "askey-wilson": make_point("askey-wilson", a=Q(1, 3), b=Q(1, 5), c=Q(-1, 7), d=Q(1, 11), p=Q(2, 3)),
    }
    f = Poly([Q(1, 2), -3, Q(2, 5), 1])
    inputs = {tag: chebyshev_lift(f) if FAMILIES[tag].carrier == "laurent" else f for tag in points}
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    n = 4
    for tag, pt in points.items():
        raise_chain(pt, n)
        for var in FAMILIES[tag].variants:
            term_sum(operational_terms(pt, n, [inputs[tag]], var.name)[0])
        if FAMILIES[tag].carrier == "poly":
            build_functional(pt, 2 * n)
    monkeypatch.undo()
    assert made == []
    assert Fraction(2, 4) == Q(1, 2)  # the constructor is restored


def test_shift_keeps_one_successor_per_point():
    # spec.shift stores the successor on the point, so every walk of a
    # lattice meets the same point objects
    rng = Random(67)
    for tag, spec in FAMILIES.items():
        pt = sample_point(tag, rng)
        walk = [pt]
        for _ in range(4):
            walk.append(spec.shift(walk[-1]))
        # a shift_rule of None is the identity: the successor is the point itself
        successor = pt if spec.shift_rule is None else spec.shift_rule(pt)
        assert spec.shift(pt) is walk[1] and spec.shift(pt) == successor, tag
        for k, expected in enumerate(walk):
            assert shifted_point(pt, k) is expected, (tag, k)


def test_a_specialization_shifts_as_its_parent_does():
    # a specialization inherits every fact but its shift rule, so the rule is
    # checked against the parent's: the fixed coordinates added to the k-th
    # successor of a point give the parent's k-th successor of the lifted point
    assert {"big-q-laguerre", "continuous-q-hermite"} <= set(families._SPECIALIZATIONS)
    rng = Random(73)
    for tag, (parent, fixed) in families._SPECIALIZATIONS.items():
        for _ in range(3):
            pt = sample_point(tag, rng)
            lifted = make_point(parent, **pt.as_dict(), **fixed)
            for k in range(5):
                child = make_point(parent, **shifted_point(pt, k).as_dict(), **fixed)
                assert child == shifted_point(lifted, k), (tag, pt, k)


def test_one_case_builds_each_point_datum_once(monkeypatch):
    # raise_chain, operational_terms for every variant, then apply_chain: one
    # operational case builds each raising operator and evaluates each
    # domain bound once per point of its lattice
    rng = Random(71)
    n = 4
    admits = [0]
    plain_admits = Param.admits

    def counting_admits(self, v, values):
        admits[0] += 1
        return plain_admits(self, v, values)

    monkeypatch.setattr(Param, "admits", counting_admits)
    for tag in CHAIN_FAMILIES:
        spec = FAMILIES[tag]
        pt = sample_point(tag, rng)
        built = []

        def counting_raising(point, raising=spec.raising):
            built.append(point)
            return raising(point)

        monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(spec, raising=counting_raising))
        f = Poly([Q(1, 2), 0, -3, 0, 1])  # even, so it lies in every carrier
        f = chebyshev_lift(f) if spec.carrier == "laurent" else f
        admits[0] = 0
        raise_chain(pt, n)
        for var in spec.variants:
            term_sum(operational_terms(pt, n, [f], var.name)[0])
        apply_chain(pt, n, f)
        lattice = {}  # id -> first k; an identity shift gives one point
        for k in range(n + 1):
            lattice.setdefault(id(shifted_point(pt, k)), k)
        assert Counter(map(id, built)) == Counter({i: 1 for i, k in lattice.items() if k < n}), tag
        assert admits[0] == len(lattice) * len(spec.domain), (tag, admits[0])
    monkeypatch.undo()


def test_pochhammer_polys_match_the_naive_products():
    # _rising and _q_poch_x multiply one Poly literal per factor
    gauss = GaussianRational(Q(3, 7), Q(-2, 5))
    big = GaussianRational(Q(2 ** 70 + 1, 3 ** 40))
    for n in range(13):
        assert falling_poch_poly(n) == _falling(n), n
        for base, xcoef in ((gauss, 1), (gauss, GR_I), (Q(5, 3), -1), (big, GR_I)):
            assert rising_poch_poly(base, n, xcoef) == _rising(base, n, xcoef), (base, xcoef, n)
        for scale, q in ((gauss, Q(2, 3)), (big, Q(1, 2)), (1, big), (Q(-7, 3), gauss)):
            assert q_poch_poly(scale, q, n) == _q_poch_x(scale, q, n), (scale, q, n)


# The raising operators against their KLS forms, composed here from
# compose_affine, derivative, *, - and exact_div.

def _linear_product(vals, sign):
    out = Poly.one()
    for e in vals:
        out = out * Poly([e, sign * GR_I])  # e +- ix
    return out


def _raise_by_definition(tag, v, f):
    x = Poly.x()
    if tag == "hermite":
        return f.derivative() - 2 * x * f
    if tag == "laguerre":
        return x * f.derivative() + Poly([v["nu"] + 1, -1]) * f
    if tag == "jacobi":
        a, b = v["alpha"], v["beta"]
        return Poly([1, 0, -1]) * f.derivative() + Poly([b - a, -(a + b + 2)]) * f
    if tag == "meixner":
        return Poly([1, 1 / v["beta"]]) * f - x * (1 / (v["c"] * v["beta"])) * f.compose_affine(1, -1)
    if tag == "charlier":
        return f - x * (1 / v["a"]) * f.compose_affine(1, -1)
    if tag == "meixner-pollaczek":
        u = unit_phase(v["phi"])
        up = Poly([v["lam"], -GR_I]) * (-u) * f.compose_affine(1, GR_HALF_I)
        return up + Poly([v["lam"], GR_I]) * (-u.conjugate()) * f.compose_affine(1, -GR_HALF_I)
    if tag == "wilson":
        vals = [v[k] for k in "abcd"]
        num = _linear_product(vals, 1) * f.compose_affine(1, -GR_HALF_I)
        num = num - _linear_product(vals, -1) * f.compose_affine(1, GR_HALF_I)
        return num.exact_div(Poly([0, 2 * GR_I]))
    a, c, q = v["a"], v["c"], v["q"]
    b = v.get("b", 0)
    up = Poly([1, -1 / (a * q)]) * Poly([1, -1 / (c * q)])
    dn = Poly([1, -1]) * Poly([1, -b / c])
    return (up * f - dn * f.compose_affine(q, 0)).exact_div(Poly([0, 1 - q]))


POLY_CHAIN_FAMILIES = [t for t in CHAIN_FAMILIES if FAMILIES[t].carrier != "laurent"]
_rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))
_gaussians = st.builds(GaussianRational, _rationals, _rationals)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2 ** 32),
    st.lists(_rationals, min_size=1, max_size=6),
    st.lists(_gaussians, min_size=1, max_size=6).filter(lambda cs: any(GaussianRational.coerce(c).i for c in cs)),
)
def test_raising_operators_match_their_definitions(seed, real, cplx):
    # a real input takes the conjugate-pair route of Meixner-Pollaczek and Wilson, a complex one both taps
    assert len(POLY_CHAIN_FAMILIES) == 9
    rng = Random(seed)
    for tag in POLY_CHAIN_FAMILIES:
        spec = FAMILIES[tag]
        pt = sample_point(tag, rng)
        R = spec.raising(pt)
        for cs in (real, cplx):
            if spec.carrier == "even":
                cs = [c if k % 2 == 0 else 0 for k, c in enumerate(cs)]
            f = Poly(cs)
            assert R(f) == _raise_by_definition(tag, pt.as_dict(), f), (tag, pt, f)


def test_raising_tripwires():
    # odd inputs leave a constant term before the division by x
    x = Poly.x()
    wilson = FAMILIES["wilson"].raising(make_point("wilson", a=Q(1, 2), b=Q(1, 3), c=1, d=Q(3, 2)))
    with pytest.raises(ValueError, match="nonzero remainder"):
        wilson(x)
    with pytest.raises(ValueError, match="nonzero remainder"):
        ops.delta_x2(x)


def _declare(monkeypatch, tag, **fields):
    """Replace fields of one family's declaration for the rest of the test."""
    monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(FAMILIES[tag], **fields))


def _keeps_degree(pt):
    return lambda f: f


_BQJ = dict(a=Q(1, 3), b=Q(1, 4), c=Q(-2, 3))

# Raise sites that no sampled case reaches: each row is a call (given
# monkeypatch, to declare wrong family data where the site needs it), the
# exception it raises and a fragment of its message.
FAILURE_PATHS = {
    "deformation outside its domain": (
        lambda mp: families.deformed_measure(make_point("laguerre", nu=Q(1, 2)), -2),
        ValueError, "outside the deformation domain",
    ),
    "basic hypergeometric form at a non-real base": (
        lambda mp: standard_poly(make_point("big-q-jacobi", **_BQJ, q=GaussianRational(Q(1, 2), Q(1, 3))), 2),
        ValueError, "need a real base",
    ),
    "Meixner-Pollaczek at a non-real lambda": (
        lambda mp: standard_poly(make_point("meixner-pollaczek", lam=GaussianRational(1, 1), phi=Q(2, 5)), 2),
        AssertionError, "came out non-real",
    ),
    "Askey-Wilson at a = 0": (
        lambda mp: standard_poly(make_point("askey-wilson", a=0, b=Q(1, 2), c=Q(1, 3), d=Q(1, 5), p=Q(1, 2)), 1),
        ValueError, "needs a != 0",
    ),
    "Krawtchouk above N": (
        lambda mp: standard_poly(make_point("krawtchouk", p=Q(1, 3), N=2), 3),
        ValueError, "needs n <= N",
    ),
    "a raising operator that keeps the degree": (
        lambda mp: _declare(mp, "hermite", raising=_keeps_degree) or raise_chain(make_point("hermite"), 2),
        AssertionError, "raising chain degree",
    ),
    "a basis missing a degree": (
        lambda mp: families.expand_in_basis(Poly.monomial(2), [Poly.one(), Poly.x()]),
        AssertionError, "no basis element of degree 2",
    ),
    "a basis with a stray recurrence component": (
        # p_n = x^n + 1: x p_2 = p_3 + p_1 - 2 p_0
        lambda mp: _declare(mp, "krawtchouk", standard=lambda pt, n: Poly.monomial(n) + 1 if n else Poly.one())
        or recurrence_extract(make_point("krawtchouk", p=Q(1, 3), N=5), 3),
        AssertionError, "x p_2 has a stray p_0 component",
    ),
    "a carrier whose monic form is wrong": (
        # a lift lead of 2 with no lift: monic(p_1) = 2x, so x p_0 = p_1 / 2
        lambda mp: _declare(mp, "hermite", carrier=ops.Carrier("poly", lead=2))
        or recurrence_extract(make_point("hermite"), 2),
        AssertionError, "x p_0 is not monic against p_1",
    ),
    "a lowering operator that keeps the degree": (
        lambda mp: _declare(mp, "hermite", lowering=_keeps_degree) or lowering_constant_check(make_point("hermite"), 2),
        AssertionError, "lowering did not drop the degree",
    ),
    "adjointness for a family with no adjoint": (
        lambda mp: adjointness_check(make_point("wilson", a=1, b=1, c=1, d=1), 1),
        ValueError, "no exact adjoint registered",
    ),
}


@pytest.mark.parametrize("site", sorted(FAILURE_PATHS))
def test_failure_paths_raise_their_errors(monkeypatch, site):
    call, error, fragment = FAILURE_PATHS[site]
    with pytest.raises(error, match=fragment):
        call(monkeypatch)


# The Askey-Wilson and continuous q-Hermite raising steps against their
# definition, composed here from scale_var, *, -, exact_div and to_sym.

def _aw_raise_by_definition(vals, p, f):
    # (B(z) f(pz)/z - z^3 B(1/z) f(z/p)) / (1 - z^2) * (-2/(1 - q)), q = p^2
    B = Laurent.one()
    for e in vals:
        B = B * Laurent(0, [1, -e])
    num = B * f.scale_var(p) * Laurent.monomial(-1) - Laurent.monomial(3) * B.invert_var() * f.scale_var(1 / p)
    return (num.exact_div(Laurent(0, [1, 0, -1])) * (-2 / (1 - p * p))).to_sym()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2 ** 32),
    st.lists(_rationals, min_size=1, max_size=6),
    st.lists(_gaussians, min_size=1, max_size=6).filter(lambda cs: any(GaussianRational.coerce(c).i for c in cs)),
)
def test_aw_raising_steps_match_their_definitions(seed, real, cplx):
    rng = Random(seed)
    for tag in ("askey-wilson", "continuous-q-hermite"):
        pt = sample_point(tag, rng)
        v = pt.as_dict()
        vals = [v.get(k, 0) for k in "abcd"]
        R = FAMILIES[tag].raising(pt)
        for cs in (real, cplx):
            f = SymLaurent(cs)
            assert R(f) == _aw_raise_by_definition(vals, v["p"], f), (tag, pt, f)


def _mirrored(f):
    # the Laurent polynomial with f's z^k coefficients, k >= 0, mirrored onto z^-k
    half = [f.coefficient(k) for k in range(f.degree + 1)]
    return Laurent(-f.degree, half[:0:-1] + half)


def test_symmetric_laurents_are_checked_laurents():
    # every route to a symmetric Laurent polynomial gives a Laurent equal to
    # the mirror of its k >= 0 half, hashing and printing like it, and the
    # arithmetic on it is Laurent's
    rng = Random(29)
    pt = sample_point("askey-wilson", rng)
    p = pt.get("p")
    f = chebyshev_lift(Poly([Q(1, 2), -3, Q(2, 5), 1]))
    made = {
        "SymLaurent(cs)": SymLaurent([Q(1, 2), 0, GR_I, Q(-3, 4)]),
        "SymLaurent.zero": SymLaurent.zero(),
        "to_sym": Laurent(-2, [1, Q(2, 3), 5, Q(2, 3), 1]).to_sym(),
        "chebyshev_lift": f,
        "aw_Dq": ops.aw_Dq_operator(p)(f),
        "raising": FAMILIES["askey-wilson"].raising(pt)(f),
        "lowering": FAMILIES["askey-wilson"].lowering(pt)(f),
    }
    for name, s in made.items():
        expected = _mirrored(s)
        assert isinstance(s, Laurent), name
        assert s == expected and hash(s) == hash(expected) and repr(s) == repr(expected), name
    s = made["SymLaurent(cs)"]
    for out in (s + s, s + f, s - f, -s, s * f, s * 3, s.scale_var(2), s.exact_div(SymLaurent.one())):
        assert type(out) is Laurent, out


def test_operators_canonicalize_once(monkeypatch):
    # a raising operator is built from the point's scalars without Poly or
    # Laurent products, and one application, like each ops partial declared
    # as taps, puts one result in canonical form; so do the Askey-Wilson eta
    # and twist, and algebra.product of their term
    rng = Random(71)
    points = {tag: sample_point(tag, rng) for tag in POLY_CHAIN_FAMILIES}
    points.update((tag, sample_point(tag, rng)) for tag in CHAIN_FAMILIES if tag not in points)
    f = Poly([Q(1, 2), -3, Q(2, 5), 1, Q(-3, 7), 2])
    even = Poly([Q(1, 2), 0, Q(2, 5), 0, Q(-3, 7), 0, 2])
    lifted = chebyshev_lift(f)
    q = Q(2, 3)
    p = points["askey-wilson"].get("p")
    calls = {"mul": 0, "canon": 0}
    canon = algebra._canon

    def counting(method):
        def wrapper(self, other):
            calls["mul"] += 1
            return method(self, other)

        return wrapper

    def counting_canon(*args):
        calls["canon"] += 1
        return canon(*args)

    for cls in (Poly, Laurent, SymLaurent):
        monkeypatch.setattr(cls, "__mul__", counting(cls.__mul__))
        monkeypatch.setattr(cls, "__rmul__", counting(cls.__rmul__))
    built = {tag: FAMILIES[tag].raising(pt) for tag, pt in points.items()}
    assert calls["mul"] == 0
    monkeypatch.setattr(algebra, "_canon", counting_canon)
    cat = ops.operator_catalog(q, p)
    carrier_input = {"poly": f, "even": even, "laurent": lifted}
    applications = [(tag, R, carrier_input[FAMILIES[tag].carrier]) for tag, R in built.items()]
    applications += [
        ("forward_shift", ops.forward_shift, f),
        ("backward_shift", ops.backward_shift, f),
        ("neg_forward_shift", ops.neg_forward_shift, f),
        ("delta_x", ops.delta_x, f),
        ("delta_x2", ops.delta_x2, even),
        ("q_derivative", ops.q_derivative_operator(q), f),
        ("q_derivative_inverse", ops.q_derivative_operator(1 / q), f),
        ("qderiv-Tq", cat["qderiv-Tq"].partial, f),
        ("qderiv-I", cat["qderiv-I"].partial, f),
        ("aw_Dq", ops.aw_Dq_operator(p), lifted),
        ("aw", cat["aw"].partial, lifted),
        ("aw lowering", FAMILIES["askey-wilson"].lowering(points["askey-wilson"]), lifted),
    ]
    for name, op, g in applications:
        calls["canon"] = 0
        out = op(g)
        assert calls["canon"] == 1, (name, calls["canon"])
        assert out.degree >= 3, name
    aw = cat["aw"]
    calls["canon"] = 0
    eta = aw.eta(lifted, 2)
    assert calls["canon"] == 1
    twist = aw.twist(lifted, 1, 3)
    assert calls["canon"] == 2
    assert algebra.product(aw.alpha(3, 1), eta, twist).degree == 10
    assert calls["canon"] == 3
    monkeypatch.undo()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(_rationals, _gaussians), max_size=5))
def test_esym_is_the_product_of_linear_factors(vals):
    # the raising operators of Wilson and Askey-Wilson read e_k(vals) as the
    # t^k coefficient of prod (1 + v t), one _linear_product
    vals = [GaussianRational.coerce(v) for v in vals]
    e = families._linear_product([families._factor(1, v) for v in vals])
    for k in range(len(vals) + 2):
        e_k = sum((prod(c, start=GR_ONE) for c in combinations(vals, k)), GR_ZERO)
        assert e.coefficient(k) == e_k, (vals, k)


# Oracles that share no code with the raising chains: the discrete families'
# self-duality on their closed forms, and the second-order equations of
# Koekoek, Lesky & Swarttouw (2010) on standard_poly, checked by derivative
# and evaluation alone.

_SELF_DUAL = {
    "charlier": lambda n: standard_poly(make_point("charlier", a=Q(3, 7)), n),  # C_n(x; a) = C_x(n; a)
    # M_n(x; beta, c) = M_x(n; beta, c)
    "meixner": lambda n: standard_poly(make_point("meixner", beta=Q(5, 2), c=Q(2, 5)), n),
    "krawtchouk": lambda n: standard_poly(make_point("krawtchouk", p=Q(2, 7), N=9), n),  # K_n(x; p, N) = K_x(n; p, N)
}


@pytest.mark.parametrize("tag", sorted(_SELF_DUAL))
def test_discrete_closed_forms_are_self_dual(tag):
    polys = [_SELF_DUAL[tag](n) for n in range(10)]
    for n in range(10):
        for x in range(10):
            assert polys[n](x) == polys[x](n), (tag, n, x)


def _mp_equation(v, y, n, x):
    # e^(i phi)(lam - ix) y(x+i) + 2i(x cos phi - (n + lam) sin phi) y(x)
    #     - e^(-i phi)(lam + ix) y(x-i) = 0
    lam, u = v["lam"], unit_phase(v["phi"])
    return (
        u * (lam - GR_I * x) * y(x + GR_I) + 2 * GR_I * (x * Q(u.re) - (n + lam) * Q(u.im)) * y(x)
        - u.conjugate() * (lam + GR_I * x) * y(x - GR_I)
    )


def _big_q_equation(v, y, n, x):
    # B y(qx) - (B + D) y(x) + D y(x/q) = q^-n (1 - q^n)(1 - ab q^(n+1)) x^2 y(x),
    # B = aq(x - 1)(bx - c), D = (x - aq)(x - cq); big q-Laguerre is b = 0
    a, b, c, q = v["a"], v.get("b", 0), v["c"], v["q"]
    B, D = a * q * (x - 1) * (b * x - c), (x - a * q) * (x - c * q)
    return (
        B * y(q * x) - (B + D) * y(x) + D * y(x / q)
        - q ** -n * (1 - q ** n) * (1 - a * b * q ** (n + 1)) * x * x * y(x)
    )


_KLS_EQUATIONS = {
    # y'' - 2x y' + 2n y = 0
    "hermite": lambda v, y, n, x: y.derivative().derivative()(x) - 2 * x * y.derivative()(x) + 2 * n * y(x),
    # (1 - x^2) y'' + (beta - alpha - (alpha + beta + 2)x) y' + n(n + alpha + beta + 1) y = 0
    "jacobi": lambda v, y, n, x: (
        (1 - x * x) * y.derivative().derivative()(x)
        + (v["beta"] - v["alpha"] - (v["alpha"] + v["beta"] + 2) * x) * y.derivative()(x)
        + n * (n + v["alpha"] + v["beta"] + 1) * y(x)
    ),
    # p(N - x) y(x+1) - (p(N - x) + x(1 - p)) y(x) + x(1 - p) y(x-1) + n y(x) = 0
    "krawtchouk": lambda v, y, n, x: (
        v["p"] * (v["N"] - x) * y(x + 1) - (v["p"] * (v["N"] - x) + x * (1 - v["p"])) * y(x)
        + x * (1 - v["p"]) * y(x - 1) + n * y(x)
    ),
    "meixner-pollaczek": _mp_equation,
    "big-q-jacobi": _big_q_equation,
    "big-q-laguerre": _big_q_equation,
    # x y'' + (nu + 1 - x) y' + n y = 0
    "laguerre": lambda v, y, n, x: (
        x * y.derivative().derivative()(x) + (v["nu"] + 1 - x) * y.derivative()(x) + n * y(x)
    ),
    # a y(x+1) - (x + a) y(x) + x y(x-1) + n y(x) = 0
    "charlier": lambda v, y, n, x: v["a"] * y(x + 1) - (x + v["a"]) * y(x) + x * y(x - 1) + n * y(x),
    # c(x + beta) y(x+1) - (x + (x + beta)c) y(x) + x y(x-1) = n(c - 1) y(x)
    "meixner": lambda v, y, n, x: (
        v["c"] * (x + v["beta"]) * y(x + 1) - (x + (x + v["beta"]) * v["c"]) * y(x) + x * y(x - 1)
        - n * (v["c"] - 1) * y(x)
    ),
}


@pytest.mark.parametrize("tag", sorted(_KLS_EQUATIONS))
def test_kls_equations_hold_on_the_standard_forms(tag):
    rng = Random(23)
    for _ in range(3):
        pt = sample_point(tag, rng)
        v = pt.as_dict()
        top = FAMILIES[tag].top(pt)
        for n in range(12 if top is None else top + 1):
            y = standard_poly(pt, n)
            # each residual is a polynomial of degree at most n + 2: zero at n + 3 points is zero
            for k in range(n + 3):
                assert not _KLS_EQUATIONS[tag](v, y, n, Q(2 * k + 1, 3)), (tag, pt, n, k)
