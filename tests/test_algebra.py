"""Exact scalar and polynomial arithmetic."""

import numbers
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

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
    chebyshev_project,
    horner_series,
    horner_sum,
    pochhammer,
    q_binomial,
    q_pochhammer,
    rational_str,
    scalar,
    tangent_subtract,
    unit_phase,
)
from askeykit import algebra
from askeykit.algebra import term_sum
from askeykit.ops import aw_eta, leibniz_check, operator_catalog

rationals = st.builds(scalar, st.integers(-20, 20), st.integers(1, 12))
gaussians = st.builds(GaussianRational, rationals, rationals)
small_polys = st.builds(lambda cs: Poly(cs), st.lists(st.integers(-4, 4), max_size=11))


def test_gaussian_examples():
    assert GaussianRational(1, 1) * GaussianRational(1, -1) == GaussianRational(2)
    assert GR_I / GR_I == GR_ONE
    a = GaussianRational(scalar(1, 2), scalar(1, 3))
    assert a + a.conjugate() == GR_ONE


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


@settings(max_examples=60, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_gaussian_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == GR_ONE


def test_pochhammer_examples():
    assert pochhammer(5, 0) == GR_ONE
    assert pochhammer(1, 3) == GaussianRational(6)
    assert pochhammer(-2, 3) == GR_ZERO


@settings(max_examples=40, deadline=None)
@given(gaussians, st.integers(0, 12))
def test_pochhammer_recurrence(a, k):
    assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


def test_q_pochhammer_examples():
    q = scalar(1, 2)
    assert q_pochhammer(GaussianRational(3), q, 0) == GR_ONE
    assert q_pochhammer(q, q, 2) == GaussianRational(scalar(3, 8))
    assert q_pochhammer(1, q, 1) == GR_ZERO


def test_q_binomial_examples():
    assert q_binomial(7, 0, scalar(1, 3)) == 1
    assert q_binomial(2, 1, scalar(1, 3)) == scalar(4, 3)
    assert q_binomial(3, 1, scalar(1, 2)) == scalar(7, 4)
    with pytest.raises(ValueError):
        q_binomial(2, 3, scalar(1, 2))


@settings(max_examples=5, deadline=None)
@given(st.builds(scalar, st.integers(1, 20), st.integers(21, 40)))
def test_q_binomial_symmetry(q):
    for n in range(11):
        for k in range(n + 1):
            assert q_binomial(n, k, q) == q_binomial(n, n - k, q)


def test_poly_ring_examples():
    x = Poly.x()
    assert x * x == Poly([0, 0, 1])
    assert (x - 1) * (x + 1) == x * x - 1
    assert Poly.zero() + x == x
    assert x.degree == 1 and Poly.zero().degree == -1


def test_compose_affine():
    x = Poly.x()
    assert (x ** 2).compose_affine(1, -1) == x * x - 2 * x + 1
    assert x.compose_affine(scalar(1, 2), 0) == Poly([0, scalar(1, 2)])
    f = x.compose_affine(1, GaussianRational(0, scalar(1, 2)))
    assert f == Poly([GaussianRational(0, scalar(1, 2)), 1])


def test_exact_divide():
    x = Poly.x()
    assert (x * x - 1).exact_div(x - 1) == x + 1
    f = 3 * x ** 4 - x + 7
    assert f.exact_div(Poly.one()) == f
    with pytest.raises(ValueError):
        x.exact_div(x * x)


@settings(max_examples=50, deadline=None)
@given(small_polys, small_polys)
def test_exact_divide_roundtrip(f, g):
    if not g:
        return
    assert (f * g).exact_div(g) == f


def test_chebyshev_examples():
    x = Poly.x()
    assert chebyshev_lift(x) == SymLaurent([0, scalar(1, 2)])
    assert chebyshev_lift(x ** 2) == SymLaurent([scalar(1, 2), 0, scalar(1, 4)])
    assert chebyshev_lift(Poly.one()) == SymLaurent.one()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=13))
def test_chebyshev_roundtrip(cs):
    f = Poly(cs)
    assert chebyshev_project(chebyshev_lift(f)) == f


def test_laurent_scale():
    # f(z) |-> f(p z), the map aw_eta(f, p, 1): z |-> 3z and z |-> 2z
    f = chebyshev_lift(Poly.x())
    p = scalar(3)
    out = aw_eta(f, p, 1)
    assert out.coefficient(1) == GaussianRational(scalar(3, 2))
    assert out.coefficient(-1) == GaussianRational(scalar(1, 6))
    assert aw_eta(SymLaurent.one(), p, 1) == Laurent.one()
    f2 = chebyshev_lift(Poly.x() ** 2)
    out2 = aw_eta(f2, scalar(2), 1)
    assert out2.coefficient(2) == GaussianRational(1)
    assert out2.coefficient(0) == GaussianRational(scalar(1, 2))
    assert out2.coefficient(-2) == GaussianRational(scalar(1, 16))


def test_laurent_symmetry_tools():
    f = Laurent(-1, [1, 0, 1])  # z + 1/z
    assert f.is_symmetric()
    assert f.to_sym() == SymLaurent([0, 1])
    g = Laurent(0, [0, 1])  # z alone
    assert not g.is_symmetric()
    with pytest.raises(ValueError):
        g.to_sym()


def test_unit_phase():
    v = unit_phase(scalar(1, 3))  # ((1 - 1/9) + (2/3) i) / (1 + 1/9)
    assert v == GaussianRational.from_parts(4, 3, 5)
    assert v * v.conjugate() == 1
    assert unit_phase(0) == 1 and unit_phase(-1) == -GR_I
    with pytest.raises(TypeError):
        unit_phase(GR_I)
    assert tangent_subtract(1, 1) == 0


def test_rational_str():
    assert rational_str(scalar(3, 4)) == "3/4"
    assert rational_str(5) == "5/1"
    assert rational_str(scalar(-2, 6)) == "-1/3"


def test_fraction_inputs_at_the_edge():
    # fractions.Fraction is no scalar type of the package, but the edge takes
    # it: scalar(), Poly(...), GaussianRational(a, b) and operator_catalog
    # accept it (the benchmark's probes build their inputs from it, under the
    # name algebra.Rational), and the re/im views return it (the benchmark's
    # tracer reads their numerators)
    assert algebra.Rational is Fraction
    assert scalar(Fraction(3, 4)) == scalar(3, 4) and hash(scalar(3, 4)) == hash(Fraction(3, 4))
    assert Poly([Fraction(1, 2), Fraction(-2, 3)]) == Poly([scalar(1, 2), scalar(-2, 3)])
    g = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert (g.r, g.i, g.d) == (3, -4, 6)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert (g.re, g.im) == (Fraction(1, 2), Fraction(-2, 3))
    f = Poly([Fraction(1, 2), 0, Fraction(1, 3)])  # even, as delta-x2 needs
    for name, spec in operator_catalog(Fraction(1, 3), Fraction(2, 3)).items():
        h = chebyshev_lift(f) if spec.carrier == "laurent" else f
        assert not leibniz_check(spec, h, h, 2), name


# -- the fraction-free kernel against a plain list-of-GaussianRational oracle --
#
# The oracle below shares no code with Poly/Laurent: polynomials are lists of
# GaussianRational coefficients (x^k at index k), Laurent polynomials are
# dicts {power: coefficient}, and every operation is the schoolbook one.

def o_trim(cs):
    cs = [GaussianRational.coerce(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def o_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = a + [GR_ZERO] * (n - len(a))
    b = b + [GR_ZERO] * (n - len(b))
    return o_trim([x + y * sign for x, y in zip(a, b)])


def o_mul(a, b):
    if not a or not b:
        return []
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return o_trim(out)


def o_compose(a, alpha, beta):
    out = []
    for c in reversed(a):
        out = o_add(o_mul(out, [beta, alpha]), [c])
    return out


def o_divmod(a, b):
    rem = list(a)
    quot = [GR_ZERO] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        q = rem[-1] * inv
        quot[shift] = q
        rem = o_add(rem, o_mul([GR_ZERO] * shift + [q], b), -1)
    return o_trim(quot), rem


def o_laurent(low, cs):
    return {low + k: c for k, c in enumerate(o_trim(cs)) if c}


def o_laurent_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, GR_ZERO) + x * y
    return {k: c for k, c in out.items() if c}


def o_laurent_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, GR_ZERO) + c
    return {k: c for k, c in out.items() if c}


def as_dict(f):
    return {f.low + k: c for k, c in enumerate(f.coeffs) if c}


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.re)
    if p.im is not None:
        assert len(p.im) == len(p.re) and any(p.im)
        assert all(type(c) is int for c in p.im)
    assert gcd(p.den, *p.re, *(p.im or ())) == 1
    if p.re:
        assert p.re[-1] or p.im[-1]


def check(p, oracle):
    assert_canonical(p)
    assert list(p.coeffs) == oracle
    assert p.is_real == all(c.is_real for c in oracle)


real_lists = st.lists(rationals, max_size=7).map(o_trim)
gauss_lists = st.lists(st.one_of(rationals, gaussians), max_size=7).map(o_trim)
poly_lists = st.one_of(real_lists, gauss_lists)
nonzero_lists = poly_lists.filter(bool)
scalars = st.one_of(rationals, gaussians, st.integers(-5, 5))
shifts = st.one_of(
    rationals, gaussians, st.sampled_from([GR_HALF_I, -GR_HALF_I, GaussianRational(1), GaussianRational(-1)])
)


@settings(max_examples=80, deadline=None)
@given(poly_lists, poly_lists, scalars)
def test_kernel_ring_ops_match_oracle(a, b, c):
    f, g = Poly(a), Poly(b)
    check(f, a)
    check(f + g, o_add(a, b))
    check(f - g, o_add(a, b, -1))
    check(-f, o_add([], a, -1))
    check(f * g, o_mul(a, b))
    check(f * c, o_mul(a, o_trim([c])))
    check(c * f, o_mul(a, o_trim([c])))
    check(f.derivative(), o_trim([c * k for k, c in enumerate(a)][1:]))


@settings(max_examples=80, deadline=None)
@given(poly_lists, rationals, shifts)
def test_kernel_compose_affine_matches_oracle(a, alpha, beta):
    f = Poly(a)
    alpha, beta = GaussianRational.coerce(alpha), GaussianRational.coerce(beta)
    check(f.compose_affine(alpha, beta), o_compose(a, alpha, beta))
    check(f.compose_affine(1, beta), o_compose(a, GR_ONE, beta))
    check(f.compose_affine(alpha, 0), o_compose(a, alpha, GR_ZERO))
    check(f.compose_affine(beta, 0), o_compose(a, beta, GR_ZERO))


@settings(max_examples=80, deadline=None)
@given(poly_lists, st.one_of(nonzero_lists, st.just([GR_ZERO, GaussianRational(0, 2)])))
def test_kernel_exact_div_matches_oracle(a, b):
    prod = o_mul(a, b)
    quot = Poly(prod).exact_div(Poly(b))
    check(quot, a)
    check(quot, o_divmod(prod, b)[0])


@settings(max_examples=40, deadline=None)
@given(poly_lists, st.one_of(real_lists, st.just([GR_ZERO, GaussianRational(0, 2)])), scalars)
def test_kernel_exact_div_tripwire(a, b, r):
    # a nonzero remainder of lower degree than the divisor must raise
    if len(b) < 2 or not GaussianRational.coerce(r):
        return
    num = o_add(o_mul(a, b), o_trim([r]))
    assert o_divmod(num, b)[1]
    with pytest.raises(ValueError, match="nonzero remainder"):
        Poly(num).exact_div(Poly(b))


def test_kernel_exact_div_tripwire_paths():
    x = Poly.x()
    with pytest.raises(ValueError, match="nonzero remainder"):
        (x * x + 1).exact_div(2 * x - 1)  # real lead
    with pytest.raises(ValueError, match="nonzero remainder"):
        (x * x + 1).exact_div(Poly([0, GaussianRational(0, 2)]))  # complex lead 2i
    with pytest.raises(ValueError, match="nonzero remainder"):
        Poly([GR_I, 0, 1]).exact_div(Poly([1, GaussianRational(1, 1)]))  # lead 1 + i


def test_division_error_paths():
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        Poly([1, 2]).exact_div(Poly.zero())
    with pytest.raises(ZeroDivisionError, match="Laurent division by zero"):
        Laurent(0, [1, 2]).exact_div(Laurent.zero())
    with pytest.raises(ValueError, match="nonzero remainder"):
        Laurent(-1, [1, 0, 1]).exact_div(Laurent(0, [1, 1]))
    # a complex lead divided out through Laurent.exact_div
    f = Laurent(-2, [1, GR_I, 3])
    g = Laurent(-1, [2, scalar(1, 3), GR_I])
    assert (f * g).exact_div(g) == f
    assert (f * g).exact_div(f) == g


def test_kernel_canonical_form_across_routes():
    x = Poly.x()
    pairs = [
        (Poly([scalar(1, 2), 1]) * 2, Poly([1, 2])),
        ((x + GR_I) * (x - GR_I), x * x + 1),
        (Poly([scalar(2, 4), scalar(3, 6)]), Poly([1, 1]) * scalar(1, 2)),
        (Poly([scalar(1, 3)]) * 3 - 1, Poly.zero()),
        ((x * scalar(2, 3)).compose_affine(scalar(3, 2), 0), x),
        (Poly([GaussianRational(1, 1)]) * GaussianRational(1, -1), Poly.constant(2)),
        (Laurent(-1, [1, 0, 1]), SymLaurent([0, 1])),
        (Laurent(0, [0, 0, scalar(1, 2)]) * 2, Laurent.monomial(2)),
    ]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)
    assert (x + GR_I) * (x - GR_I) == x * x + 1
    assert ((x + GR_I) * (x - GR_I)).im is None
    assert_canonical(Poly.zero())
    assert Poly([0, 0]).re == () and Poly.zero().im is None


laurents = st.tuples(st.integers(-3, 3), poly_lists)


@settings(max_examples=60, deadline=None)
@given(laurents, laurents, st.one_of(rationals, gaussians))
def test_kernel_laurent_matches_oracle(la, lb, p):
    f, g = Laurent(*la), Laurent(*lb)
    a, b = o_laurent(*la), o_laurent(*lb)
    for h in (f, g):
        assert_canonical(h.body)
        assert not h.body or h.body.coefficient(0)
    assert as_dict(f) == a
    assert as_dict(f * g) == o_laurent_mul(a, b)
    assert as_dict(f + g) == o_laurent_add(a, b)
    assert as_dict(f.invert_var()) == {-k: c for k, c in a.items()}
    p = GaussianRational.coerce(p)
    if p:
        assert as_dict(f.scale_var(p)) == {k: c * p ** k for k, c in a.items()}
    if g:
        assert as_dict((f * g).exact_div(g)) == a


# -- the integer-part scalar against a (Fraction, Fraction) oracle --
#
# A value is the pair (re, im) of fractions.Fraction; every operation below is
# the schoolbook one on pairs and shares no code with GaussianRational.

F = Fraction
fracs = st.builds(F, st.integers(-40, 40), st.integers(1, 36))
nonzero_fracs = fracs.filter(bool)
pairs = st.one_of(
    st.tuples(fracs, st.just(F(0))),  # real
    st.tuples(st.just(F(0)), fracs),  # imaginary
    st.tuples(fracs, fracs),  # mixed
    st.tuples(nonzero_fracs, nonzero_fracs),
)
others = st.one_of(st.integers(-9, 9), fracs)


def p_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def p_neg(a):
    return -a[0], -a[1]


def p_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def p_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return a[0] / n, -a[1] / n


def p_pow(a, k):
    if k < 0:
        a, k = p_inv(a), -k
    out = (F(1), F(0))
    for _ in range(k):
        out = p_mul(out, a)
    return out


def p_repr(a):
    re, im = a
    if not im:
        return f"{re}"
    if not re:
        return f"{im}*i"
    return f"({re}{'+' if im >= 0 else '-'}{abs(im)}*i)"


def gr(a):
    return GaussianRational(*a)


def assert_scalar(g, pair):
    """g is canonical and equals the oracle pair."""
    assert type(g) is GaussianRational
    assert type(g.r) is int and type(g.i) is int and type(g.d) is int
    assert g.d > 0 and gcd(g.r, g.i, g.d) == 1
    assert (g.re, g.im) == pair
    assert type(g.re) is F and type(g.im) is F


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, others)
def test_scalar_ring_ops_match_pair_oracle(a, b, c):
    x, y = gr(a), gr(b)
    cp = (F(c), F(0))
    assert_scalar(x, a)
    assert_scalar(x + y, p_add(a, b))
    assert_scalar(x - y, p_add(a, p_neg(b)))
    assert_scalar(-x, p_neg(a))
    assert_scalar(x * y, p_mul(a, b))
    assert_scalar(x * x, p_mul(a, a))
    assert_scalar(x.conjugate(), (a[0], -a[1]))
    assert_scalar(GaussianRational(x, y), p_add(a, p_mul((F(0), F(1)), b)))  # x + y*i
    assert_scalar(x + c, p_add(a, cp))
    assert_scalar(c + x, p_add(a, cp))
    assert_scalar(x - c, p_add(a, p_neg(cp)))
    assert_scalar(c - x, p_add(cp, p_neg(a)))
    assert_scalar(x * c, p_mul(a, cp))
    assert_scalar(c * x, p_mul(a, cp))
    assert bool(x) == any(a)
    assert x.is_real == (not a[1])


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, others, st.integers(-6, 6))
def test_scalar_division_and_powers_match_pair_oracle(a, b, c, k):
    x, y = gr(a), gr(b)
    if any(b):
        assert_scalar(y.inverse(), p_inv(b))
        assert_scalar(x / y, p_mul(a, p_inv(b)))
        assert_scalar(c / y, p_mul((F(c), F(0)), p_inv(b)))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    if c:
        assert_scalar(x / c, p_mul(a, (1 / F(c), F(0))))
    if any(a) or k >= 0:
        assert_scalar(x ** k, p_pow(a, k))
    else:
        with pytest.raises(ZeroDivisionError):
            x ** k


@settings(max_examples=150, deadline=None)
@given(pairs, pairs, fracs.filter(lambda q: abs(q) != 1), st.integers(0, 6))
def test_q_products_match_pair_oracle(a, q, b, n):
    # (a; q)_n = prod_j (1 - a q^j), and the q-binomial through (b; b)_n
    out, aq = (F(1), F(0)), a
    for _ in range(n):
        out = p_mul(out, p_add((F(1), F(0)), p_neg(aq)))
        aq = p_mul(aq, q)
    assert_scalar(q_pochhammer(gr(a), gr(q), n), out)

    def poch(m):
        return (F(1), F(0)) if not m else p_mul(poch(m - 1), (1 - b ** m, F(0)))

    for k in range(n + 1):
        expected = p_mul(poch(n), p_inv(p_mul(poch(k), poch(n - k))))
        assert_scalar(q_binomial(n, k, b), expected)
        assert_scalar(q_binomial(n, k, GaussianRational(b)), expected)


@settings(max_examples=200, deadline=None)
@given(pairs, st.integers(-50, 50).filter(bool))
def test_scalar_equal_values_have_equal_parts(a, k):
    x = gr(a)
    # the same value from scaled integer parts, from arithmetic and from Fractions
    num = x.d * k
    routes = [
        GaussianRational.from_parts(x.r * k, x.i * k, num),
        (x + k) - k,
        (x * k) / k,
        GaussianRational(F(x.r * k, num), F(x.i * k, num)),
        GaussianRational(gr((a[0], F(0))), gr((a[1], F(0)))),
    ]
    if any(a):
        routes.append(x.inverse().inverse())
    for y in routes:
        assert (y.r, y.i, y.d) == (x.r, x.i, x.d)
        assert y == x and hash(y) == hash(x)
    assert (x == a[0]) == (not a[1])


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_scalar_repr_is_the_fraction_pair_format(a):
    assert repr(gr(a)) == p_repr(a)


@settings(max_examples=200, deadline=None)
@given(fracs, fracs, others)
def test_scalar_ordering_on_real_values(a, b, c):
    x, y = GaussianRational(a), GaussianRational(b)
    assert (x < y, x <= y, x > y, x >= y) == (a < b, a <= b, a > b, a >= b)
    assert (x < c, x <= c, x > c, x >= c) == (a < c, a <= c, a > c, a >= c)
    assert (c < x, c <= x, c > x, c >= x) == (c < a, c <= a, c > a, c >= a)
    assert (floor(x), ceil(x)) == (floor(a), ceil(a))
    assert_scalar(abs(x), (abs(a), F(0)))
    assert max(x, y) == max(a, b) and min(x, c) == min(a, c)


@settings(max_examples=100, deadline=None)
@given(fracs, nonzero_fracs)
def test_scalar_ordering_rejects_complex_values(a, b):
    z, x = GaussianRational(a, b), GaussianRational(a)
    for op in (lambda: z < x, lambda: x <= z, lambda: z > 0, lambda: 0 >= z, lambda: z < F(1, 2)):
        with pytest.raises(TypeError):
            op()
    for fn in (floor, ceil, abs):
        with pytest.raises(TypeError):
            fn(z)


def test_scalar_is_not_registered_as_a_number():
    # the value may be complex; registration would hide conversions
    assert not isinstance(GR_ONE, numbers.Number)
    with pytest.raises(TypeError):
        F(GR_ONE)
    with pytest.raises(TypeError):
        rational_str(GR_I)
    assert rational_str(GaussianRational(F(-2, 6))) == "-1/3"


@settings(max_examples=200, deadline=None)
@given(fracs, nonzero_fracs)
def test_scalar_hash_agrees_with_int_and_fraction(a, b):
    # equal values hash equal across the three types, so each finds the others in a set
    x = GaussianRational(a)
    assert hash(x) == hash(a)
    assert x in {a} and a in {x}
    if a.denominator == 1:
        n = int(a)
        assert hash(x) == hash(n) and x in {n} and n in {x}
    z = GaussianRational(a, b)
    w = GaussianRational.from_parts(z.r * 3, z.i * 3, z.d * 3)
    assert hash(z) == hash(w) and w in {z}


def test_scalar_hash_examples():
    for v in (0, 3, -3, F(1, 2), F(-1, 2), F(7, 2), F(-7, 2), F(1, 2 ** 61 - 1), F(-1, 2 ** 61 - 1)):
        x = GaussianRational(v)
        assert hash(x) == hash(v), v
        assert x in {v} and v in {x} and {x: 1}[v] == 1
    assert GaussianRational(3) in {3} and 3 in {GaussianRational(3)}


def test_laurent_equality_with_foreign_operands():
    assert Laurent(0, [1]) == 1
    assert Laurent(0, [F(1, 2)]) == GaussianRational(F(1, 2))
    assert Laurent.one() == SymLaurent.one()
    assert not (Laurent.one() == "x")
    assert Laurent.one() != "x"
    assert Laurent.one() != Poly.one()


def test_equality_reads_the_imaginary_parts():
    # a Poly.__eq__ that skips `im` leaves every verify report unchanged
    # (its residuals are zero either way), so it is pinned here
    assert Poly([1 + GR_I]) != Poly([1])
    assert Laurent(0, [1 + GR_I]) != Laurent(0, [1])


def test_equal_laurent_values_hash_equal():
    # Laurent, SymLaurent and scalars that compare equal hash equal, and
    # SymLaurent compares with scalars the way Laurent does
    half = F(1, 2)
    equal_groups = [
        [1, GR_ONE, Laurent.one(), SymLaurent.one(), Laurent(0, [1]), SymLaurent([1])],
        [half, GaussianRational(half), Laurent(0, [half]), SymLaurent([half])],
        [0, GR_ZERO, Laurent.zero(), SymLaurent.zero()],
        [GR_HALF_I, Laurent(0, [GR_HALF_I]), SymLaurent([GR_HALF_I])],
        [SymLaurent([1, F(2, 3)]), Laurent(-1, [F(2, 3), 1, F(2, 3)])],
        [SymLaurent([0, 0, GR_I]), Laurent(-2, [GR_I, 0, 0, 0, GR_I])],
    ]
    for group in equal_groups:
        for a in group:
            for b in group:
                assert a == b and b == a, (a, b)
                assert hash(a) == hash(b), (a, b)
        assert len(set(group)) == 1, group
    assert SymLaurent.one() in {1} and 1 in {SymLaurent.one()} and Laurent.one() in {F(1)}
    for a in equal_groups[0][2:]:
        assert a != 2 and a != half and a != SymLaurent([1, 1]) and a != Laurent(1, [1])
        assert not (a == "1") and a != Poly.one()
    assert SymLaurent([1, 1]) != 1 and SymLaurent([1, 1]) != Laurent.one()


# -- the hypergeometric series kernel against the sum of its terms --

def _naive_series(steps, c, low):
    # sum_(k<=n) prod_(j<k) rho_j phi_j as a sum of Poly (or Laurent) products
    laurent = low is not None
    out = Laurent.zero() if laurent else Poly.zero()
    term = Laurent.one() if laurent else Poly.one()
    for k in range(len(steps) + 1):
        out = out + term
        if k < len(steps):
            nr, ni, d, fr, fi, o = steps[k]
            cs = [GaussianRational(a, b) for a, b in zip(fr, fi or [0] * len(fr))]
            phi = Laurent(o, cs) if laurent else Poly(cs)
            term = term * phi * GaussianRational(scalar(nr, d), scalar(ni, d))
    if laurent:
        return out * Laurent.monomial(low, c)
    return out * c


_ints = st.integers(-30, 30)
_step_ratios = st.one_of(
    st.tuples(_ints, st.just(0), _ints.filter(bool)),  # real
    st.tuples(_ints, _ints, _ints.filter(bool)),  # Gaussian, either sign of d
    st.tuples(st.just(0), st.just(0), _ints.filter(bool)),  # zero
)
_factor_parts = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(-9, 9), min_size=m, max_size=m),
        st.one_of(st.none(), st.lists(st.integers(-9, 9), min_size=m, max_size=m)),
    )
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(_step_ratios, _factor_parts, st.integers(-1, 0)), max_size=6),
    st.one_of(st.integers(-3, 3), rationals, gaussians),
    st.one_of(st.none(), st.integers(-4, 4)),
)
def test_horner_series_matches_the_sum_of_its_terms(drawn, c, low):
    # real and Gaussian ratios (zero among them), real and complex factors,
    # n = 0, and factors z^o phi with a Laurent offset o in the z-form
    steps = [(nr, ni, d, fr, fi, o if low is not None else 0) for (nr, ni, d), (fr, fi), o in drawn]
    got = horner_series(steps, c, low)
    assert type(got) is (Poly if low is None else Laurent)
    assert got == _naive_series(steps, c, low)
    assert_canonical(got if low is None else got.body)


# -- the expansion kernel against the multiplied-out terms --

_coefficients = st.lists(st.one_of(st.integers(-5, 5), rationals, gaussians), max_size=5)
_polys = st.builds(Poly, _coefficients)
_laurents = st.builds(Laurent, st.integers(-4, 3), _coefficients)


@st.composite
def _horner_inputs(draw):
    # n >= 1 terms and n - 1 steps, all Poly or all Laurent
    values, n = draw(st.sampled_from([_polys, _laurents])), draw(st.integers(1, 5))
    return draw(st.lists(values, min_size=n, max_size=n)), draw(st.lists(values, min_size=n - 1, max_size=n - 1))


@settings(max_examples=150, deadline=None)
@given(_horner_inputs())
def test_horner_sum_matches_the_multiplied_out_terms(drawn):
    # real and complex Poly with differing denominators, zeros among them,
    # one term, and Laurent values with differing lows
    terms, steps = drawn
    expanded, ratio = [terms[0]], None
    for t, s in zip(terms[1:], steps):
        ratio = s if ratio is None else ratio * s
        expanded.append(t * ratio)
    got = horner_sum(terms, steps)
    assert type(got) is (Laurent if isinstance(terms[0], Laurent) else Poly)
    assert got == term_sum(expanded)
    assert_canonical(got.body if isinstance(got, Laurent) else got)


def test_horner_sum_examples():
    # 1 + x (2 + x (3)): one step per level, from the top
    x = Poly.x()
    assert horner_sum([Poly.one(), Poly.constant(2), Poly.constant(3)], [x, x]) == Poly([1, 2, 3])
    assert horner_sum([Poly([0, GR_HALF_I])], []) == Poly([0, GR_HALF_I])
    assert horner_sum([], []) == Poly.zero()
    # z^-2 steps move the low offset down: 1 + z^-2 (z + z^-2 z^3) = 1 + 2 z^-1
    zinv2 = Laurent.monomial(-2)
    got = horner_sum([Laurent.one(), Laurent.monomial(1), Laurent.monomial(3)], [zinv2, zinv2])
    assert got == Laurent(-1, [2, 1])
    # a term below the running offset pads the sum instead
    assert horner_sum([Laurent.monomial(-3), Laurent.one()], [Laurent.one()]) == Laurent(-3, [1, 0, 0, 1])


def test_horner_series_examples():
    # 1 + 2x (1 + x/3 (1 + ...)): the terms 1, 2x, 2x^2/3
    steps = [(2, 0, 1, (0, 1), None, 0), (1, 0, 3, (0, 1), None, 0)]
    assert horner_series(steps) == Poly([1, 2, scalar(2, 3)])
    assert horner_series(steps, GR_I) == Poly([GR_I, 2 * GR_I, scalar(2, 3) * GR_I])
    assert horner_series([]) == Poly.one() and horner_series([], 5, -2) == Laurent.monomial(-2, 5)
    # z^-1 (1 - z)^2 per step with low 0: 1 + (z^-1 - 2 + z)
    assert horner_series([(1, 0, 1, (1, -2, 1), None, -1)], 1, 0) == Laurent(-1, [1, -1, 1])
    # a zero ratio ends the sum
    assert horner_series([(0, 0, 7, (0, 1), None, 0), (5, 0, 1, (0, 1), None, 0)]) == Poly.one()
    with pytest.raises(ZeroDivisionError):
        horner_series([(1, 0, 0, (1,), None, 0)])
