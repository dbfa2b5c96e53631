"""Operators and the generalized Leibniz engine."""

import dataclasses
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from askeykit.algebra import (
    GR_HALF_I,
    GR_I,
    DifferenceOperator,
    GaussianRational,
    Laurent,
    LaurentOperator,
    Poly,
    SymLaurent,
    chebyshev_lift,
    chebyshev_project,
    product,
    scalar,
)
from askeykit.ops import (
    EVEN,
    LAURENT,
    POLY,
    aw_Dq_operator,
    aw_eta,
    aw_spec,
    backward_shift,
    delta_x,
    delta_x2,
    forward_shift,
    leibniz_check,
    neg_forward_shift,
    operator_catalog,
    q_derivative_operator,
    translate,
)
from askeykit.families import FAMILIES
from askeykit.sampling import sample_point, sample_rational

x = Poly.x()


def test_derivative_examples():
    assert Poly.derivative(x ** 2) == 2 * x
    assert Poly.derivative(Poly.constant(5)) == Poly.zero()
    assert Poly.derivative(x ** 3 - x) == 3 * x * x - 1


def test_shift_examples():
    assert backward_shift(x) == Poly.one()
    assert backward_shift(x ** 2) == 2 * x - 1
    assert backward_shift(Poly.one()) == Poly.zero()
    assert forward_shift(x) == Poly.one()
    assert forward_shift(x ** 2) == 2 * x + 1
    assert neg_forward_shift(x ** 2) == -2 * x - 1


def test_delta_x_examples():
    assert delta_x(x) == Poly.one()
    assert delta_x(x ** 2) == 2 * x
    assert delta_x(Poly.one()) == Poly.zero()


def test_delta_x2_examples():
    assert delta_x2(x ** 2) == Poly.one()
    assert delta_x2(Poly.one()) == Poly.zero()
    assert delta_x2(x ** 4) == 2 * x * x - scalar(1, 2)


def test_q_derivative_examples():
    q = scalar(1, 2)
    assert q_derivative_operator(q)(x) == Poly.one()
    assert q_derivative_operator(q)(x ** 2) == Poly([0, scalar(3, 2)])
    assert q_derivative_operator(q)(Poly.one()) == Poly.zero()
    assert q_derivative_operator(1 / q)(x ** 2) == Poly([0, 3])  # [2]_(1/q) = 1 + 2


def test_aw_Dq_examples():
    p = scalar(1, 2)
    assert aw_Dq_operator(p)(chebyshev_lift(x)) == SymLaurent.one()
    assert aw_Dq_operator(p)(SymLaurent.one()) == SymLaurent.zero()
    assert aw_Dq_operator(p)(chebyshev_lift(x ** 2)) == SymLaurent([0, scalar(5, 4)])


def test_aw_eta_examples():
    p = scalar(1, 2)
    f = chebyshev_lift(x)
    up = aw_eta(f, p, 1)
    assert up.coefficient(1) == GaussianRational(scalar(1, 4))
    assert up.coefficient(-1) == GaussianRational(1)
    dn = aw_eta(f, p, -1)
    assert dn.coefficient(1) == GaussianRational(1)
    assert dn.coefficient(-1) == GaussianRational(scalar(1, 4))
    assert aw_eta(SymLaurent.one(), p, 5) == aw_eta(SymLaurent.one(), p, -5)


def test_aw_Dq_prefold_symmetry():
    rng = Random(7)
    p = sample_rational(rng, 0, 1)
    f = chebyshev_lift(Poly([1, -2, 0, 3, 1]))
    raw = _aw_Dq_by_definition(f, p)
    for k in range(raw.degree + 1):
        assert raw.coefficient(k) == raw.coefficient(-k)


def test_commutations():
    rng = Random(3)
    q = sample_rational(rng, 0, 1)
    for _ in range(5):
        f = Poly([sample_rational(rng, -4, 4) for _ in range(6)])
        assert translate(backward_shift(f), -1) == backward_shift(translate(f, -1))
        # D_q T_q = q T_q D_q
        lhs = q_derivative_operator(q)(f.compose_affine(q, 0))
        rhs = q_derivative_operator(q)(f).compose_affine(q, 0) * q
        assert lhs == rhs


def test_degree_drops():
    rng = Random(11)
    q = sample_rational(rng, 0, 1)
    p = sample_rational(rng, 0, 1)
    for _ in range(5):
        deg = rng.randrange(1, 7)
        f = Poly([sample_rational(rng, -4, 4) for _ in range(deg)] + [1])
        for op in (
            Poly.derivative,
            backward_shift,
            neg_forward_shift,
            delta_x,
            q_derivative_operator(q),
            q_derivative_operator(1 / q),
        ):
            assert op(f).degree == deg - 1
        even = Poly([sample_rational(rng, -4, 4), 0] * deg + [1])
        assert delta_x2(even).degree == even.degree - 2
        lifted = chebyshev_lift(f)
        assert aw_Dq_operator(p)(lifted).degree == deg - 1


def _random_input(rng, carrier):
    return carrier.element([sample_rational(rng, -3, 3) for _ in range(6)])


def test_carriers_declare_their_facts():
    # a carrier is its name to callers that compare, hash or print it
    assert [POLY, EVEN, LAURENT] == ["poly", "even", "laurent"]
    assert {"even": 1}[EVEN] == 1 and f"{POLY:7s}|{LAURENT:7s}" == "poly   |laurent"
    assert (POLY.one, EVEN.one, LAURENT.one) == (Poly.one(), Poly.one(), SymLaurent.one())
    assert type(LAURENT.one) is SymLaurent
    assert (POLY.variable, EVEN.variable, LAURENT.variable) == (x, x ** 2, chebyshev_lift(x))
    assert POLY.element([1, 2, 3]) == Poly([1, 2, 3])
    assert EVEN.element([1, 2, 3, 4, 5]) == Poly([1, 0, 3, 0, 5])
    assert LAURENT.element([1, 2, 3]) == chebyshev_lift(Poly([1, 2, 3]))
    f = Poly([1, 0, 3])
    monic = Poly([scalar(1, 3), 0, 1])
    assert POLY.monic(f) == EVEN.monic(f) == monic
    assert LAURENT.monic(chebyshev_lift(f)) == chebyshev_lift(monic)


def test_leibniz_all_schemes():
    rng = Random(20240917)
    q = sample_rational(rng, 0, 1)
    p = sample_rational(rng, 0, 1)
    for name, spec in operator_catalog(q, p).items():
        for n in range(0, 7):
            f = _random_input(rng, spec.carrier)
            g = _random_input(rng, spec.carrier)
            assert not leibniz_check(spec, f, g, n), (name, n)


def test_leibniz_trivial_cases():
    cat = operator_catalog(scalar(1, 2), scalar(1, 2))
    spec = cat["derivative"]
    assert not leibniz_check(spec, x, x, 0)
    assert not leibniz_check(spec, x, x, 2)
    spec = cat["backward-eta1"]
    assert not leibniz_check(spec, x, x, 1)


def test_leibniz_check_builds_one_ladder_per_side():
    # partial^n on fg, on f and on g, each built once: 3n applications, not O(n^2)
    rng = Random(5)
    n = 6
    for name, spec in operator_catalog(scalar(1, 3), scalar(2, 3)).items():
        calls = [0]

        def counting(h, partial=spec.partial):
            calls[0] += 1
            return partial(h)

        counted = dataclasses.replace(spec, partial=counting)
        f = _random_input(rng, spec.carrier)
        g = _random_input(rng, spec.carrier)
        assert not leibniz_check(counted, f, g, n), name
        assert calls[0] == 3 * n, (name, calls[0])


# Each fused operator against its definition, composed here from
# compose_affine, derivative, *, - and exact_div.

rationals = st.builds(scalar, st.integers(-9, 9), st.integers(1, 6))
gaussians = st.builds(GaussianRational, rationals, rationals)
real_polys = st.lists(rationals, min_size=1, max_size=7).map(Poly)
complex_polys = st.lists(gaussians, min_size=1, max_size=7).map(Poly).filter(lambda f: not f.is_real)
bases = st.builds(scalar, st.integers(1, 30), st.integers(1, 12)).filter(lambda q: q != 1)
H = GR_HALF_I


def _even(f):
    return Poly([c if k % 2 == 0 else 0 for k, c in enumerate(f.coeffs)])


def _by_x(num, c):
    return num.exact_div(Poly([0, c]))


DEFINITIONS = (
    (backward_shift, lambda f: f - f.compose_affine(1, -1)),
    (forward_shift, lambda f: f.compose_affine(1, 1) - f),
    (neg_forward_shift, lambda f: f - f.compose_affine(1, 1)),
    (delta_x, lambda f: (f.compose_affine(1, H) - f.compose_affine(1, -H)) * (-GR_I)),
)


@settings(max_examples=60, deadline=None)
@given(real_polys, complex_polys)
def test_difference_operators_match_their_definitions(f_real, f_complex):
    # a real input takes the conjugate-pair route of delta_x and delta_x2, a complex one both taps
    for f in (f_real, f_complex):
        for op, definition in DEFINITIONS:
            assert op(f) == definition(f), (op.__name__, f)
        even = _even(f)
        assert delta_x2(even) == _by_x(even.compose_affine(1, H) - even.compose_affine(1, -H), 2 * GR_I), even


@settings(max_examples=60, deadline=None)
@given(real_polys, complex_polys, bases)
def test_q_derivatives_match_their_definitions(f_real, f_complex, q):
    qi = 1 / q
    cat = operator_catalog(q, scalar(1, 2))
    for f in (f_real, f_complex):
        expected = _by_x(f - f.compose_affine(q, 0), 1 - q)
        assert q_derivative_operator(q)(f) == expected
        assert cat["qderiv-Tq"].partial(f) == expected
        assert cat["qderiv-I"].partial(f) == expected
        assert q_derivative_operator(1 / q)(f) == _by_x(f - f.compose_affine(qi, 0), 1 - qi)


def _apply_tap(f, sub):
    if sub is None:
        return f
    if sub == "d":
        return f.derivative()
    return f.compose_affine(*sub)


@st.composite
def tap_lists(draw):
    """Random taps and declared conjugate pairs, of either sign."""
    taps = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.lists(st.one_of(rationals, gaussians), min_size=1, max_size=3))
        kind = draw(st.sampled_from(["id", "d", "affine", "pair"]))
        if kind == "id":
            taps.append((m, None))
        elif kind == "d":
            taps.append((m, "d"))
        else:
            alpha = draw(rationals.filter(bool))
            alpha = draw(st.one_of(st.just(alpha), gaussians.filter(bool)))
            beta = draw(gaussians)
            if kind == "affine":
                taps.append((m, (alpha, beta)))
            else:
                taps.append((m, (alpha, beta), draw(st.sampled_from([1, -1]))))
    return taps


# no divisor, and real, imaginary and mixed ones: a declared pair folds into
# one tap on a real input exactly when its sum is 2 Re(M A), that is when 1/c
# is real and the sign is 1 or 1/c is imaginary and the sign is -1; every
# other pair, of either sign, runs as its two taps
divisors = st.one_of(
    st.none(), rationals.filter(bool), rationals.filter(bool).map(lambda r: r * GR_I), gaussians.filter(bool)
)


@settings(max_examples=150, deadline=None)
@given(tap_lists(), divisors, st.one_of(real_polys, complex_polys))
def test_difference_operator_matches_its_taps(taps, c, f):
    num = Poly.zero()
    for m, sub, *sign in taps:
        num = num + Poly(m) * _apply_tap(f, sub)
        if sign:  # the partner sign conj(M) f(alpha x + conj beta)
            alpha, beta = sub
            conj = [sign[0] * GaussianRational.coerce(v).conjugate() for v in m]
            num = num + Poly(conj) * f.compose_affine(alpha, GaussianRational.coerce(beta).conjugate())
    if c is not None and f.coefficient(0):
        # one more identity tap cancels the constant term, so c*x divides the sum
        k = -num.coefficient(0) / f.coefficient(0)
        taps, num = [*taps, ((k,), None)], num + f * k
    op = DifferenceOperator(taps, divisor=c)
    if c is None:
        assert op(f) == num
    elif num.coefficient(0):
        with pytest.raises(ValueError, match="nonzero remainder"):
            op(f)
    else:
        assert op(f) == _by_x(num, c)


def test_declared_conjugate_pairs_fold():
    # each declared pair sums to 2 Re(M A), so on a real input it runs as one
    # tap; unfolded it gives the same values, so no value check sees a lost fold
    rng = Random(31)
    paired = [delta_x, delta_x2]
    for tag in ("meixner-pollaczek", "wilson"):
        paired.append(FAMILIES[tag].raising_operator(sample_point(tag, rng)))
    assert [sorted(tap[-1] for tap in op._taps if tap[-1]) for op in paired] == [[1, 2]] * 4


def test_difference_operator_remainder_tripwire():
    with pytest.raises(ValueError, match="nonzero remainder"):
        delta_x2(x)  # odd input: the difference is the constant i
    with pytest.raises(ValueError, match="nonzero remainder in exact division: 1"):
        DifferenceOperator((((1,), None),), divisor=1)(Poly.one())


# The Laurent taps against their definition, composed here from scale_var,
# *, -, exact_div and to_sym.

real_syms = st.lists(rationals, min_size=1, max_size=6).map(SymLaurent)
complex_syms = st.lists(gaussians, min_size=1, max_size=6).map(SymLaurent).filter(lambda f: not f.body.is_real)
real_bases = st.builds(scalar, st.integers(-30, 30).filter(bool), st.integers(1, 12)).filter(lambda p: abs(p) != 1)


def _laurent_taps_by_definition(p, taps, scale, divisor, f):
    num = Laurent.zero()
    for (low, m), k in taps:
        num = num + Laurent(low, m) * f.scale_var(p ** k)
    num = num * scale
    if divisor is not None:
        num = num.exact_div(Laurent(*divisor))
    return num.to_sym()


def _aw_Dq_by_definition(f, p):
    c = (p - 1 / p) / 2
    return (f.scale_var(p) - f.scale_var(1 / p)).exact_div(Laurent(-1, [-c, 0, c])).to_sym()


@st.composite
def laurent_tap_lists(draw):
    """Taps (M(z), p) with the partner (+-M(1/z), 1/p), so the sum is symmetric
    or antisymmetric, and a divisor to match; sometimes one stray tap."""
    m = draw(st.lists(st.one_of(rationals, gaussians), min_size=1, max_size=4))
    low = draw(st.integers(-3, 3))
    sign = draw(st.sampled_from([1, -1]))
    taps = [((low, m), 1), ((-(low + len(m) - 1), [sign * c for c in reversed(m)]), -1)]
    symmetric = [None, (-1, (1, 0, 1)), (0, (1, 0, 1))]  # 1, z + 1/z, 1 + z^2
    antisymmetric = [(-1, (-1, 0, 1)), (0, (1, 0, -1))]  # z - 1/z, 1 - z^2
    divisor = draw(st.sampled_from(symmetric if sign == 1 else antisymmetric))
    if draw(st.integers(0, 4)) == 0:
        taps.append(((draw(st.integers(-2, 2)), draw(st.lists(rationals, min_size=1, max_size=3))), 1))
    return taps, divisor


@settings(max_examples=150, deadline=None)
@given(laurent_tap_lists(), real_bases, gaussians.filter(bool), st.one_of(real_syms, complex_syms))
def test_laurent_operator_matches_its_taps(tap_list, p, scale, f):
    # the result, or the same tripwire (a remainder or an asymmetric quotient)
    taps, divisor = tap_list
    op = LaurentOperator(p, taps, scale=scale, divisor=divisor)
    try:
        expected = _laurent_taps_by_definition(p, taps, scale, divisor, f)
    except ValueError as exc:
        message = str(exc).split(":")[0]
        with pytest.raises(ValueError, match=message):
            op(f)
    else:
        assert op(f) == expected


@settings(max_examples=60, deadline=None)
@given(real_syms, complex_syms, real_bases, st.integers(-3, 3))
def test_aw_operators_match_their_definitions(f_real, f_complex, p, k):
    spec = aw_spec(p)
    for f in (f_real, f_complex):
        expected = _aw_Dq_by_definition(f, p)
        assert aw_Dq_operator(p)(f) == expected
        assert spec.partial(f) == expected
        g = f_real
        assert product(3, spec.eta(f, k), spec.twist(g, 1, 2)) == aw_eta(f, p, k) * aw_eta(g, p, -1) * 3


# symmetric inputs, and Laurent polynomials at any offset that need not be
laurents = st.one_of(
    real_syms,
    complex_syms,
    st.builds(Laurent, st.integers(-4, 4), st.lists(st.one_of(rationals, gaussians), max_size=6)),
)


@settings(max_examples=80, deadline=None)
@given(laurents, real_bases, st.integers(-3, 3), st.integers(0, 4))
def test_aw_eta_and_twist_are_aw_eta_dilations(f, p, k, n):
    spec = aw_spec(p)
    assert spec.eta(f, k) == aw_eta(f, p, k)
    assert spec.twist(f, k, n) == aw_eta(f, p, k - n)


@settings(max_examples=80, deadline=None)
@given(st.lists(laurents, max_size=4), gaussians)
def test_product_of_laurent_factors_is_the_chained_product(factors, c):
    # a SymLaurent first, so the Laurent route is taken whatever follows
    expected = Laurent.one()
    for f in factors:
        expected = expected * f
    assert product(c, SymLaurent.one(), *factors) == expected * c


def test_laurent_operator_tripwires():
    p = scalar(2, 3)
    f = chebyshev_lift(Poly([1, -2, 0, 3]))
    # an asymmetric multiplier: z f(pz)
    with pytest.raises(ValueError, match="not z <-> 1/z symmetric"):
        LaurentOperator(p, (((1, (1,)), 1),))(f)
    # M(z) f(pz) + M(1/z) f(z/p) is symmetric; one partner coefficient changed, it is not
    up = (-1, (1, 2, 3))
    LaurentOperator(p, ((up, 1), ((-1, (3, 2, 1)), -1)))(f)
    with pytest.raises(ValueError, match="not z <-> 1/z symmetric"):
        LaurentOperator(p, ((up, 1), ((-1, (3, 2, 2)), -1)))(f)
    # f(pz) + f(z/p) is 2 f(p) at z = 1, so z - 1/z leaves a remainder
    with pytest.raises(ValueError, match="nonzero remainder in exact division"):
        LaurentOperator(p, (((0, (1,)), 1), ((0, (1,)), -1)), divisor=(-1, (-1, 0, 1)))(f)
    with pytest.raises(ValueError, match="nonzero remainder in exact division"):
        # i (z + 1/z): only the imaginary part leaves one
        LaurentOperator(p, (((0, (1,)), 1), ((0, (1,)), -1)), divisor=(-1, (-1, 0, 1)))(SymLaurent([0, GR_I]))
    with pytest.raises(ValueError, match="nonzero remainder in exact division: 1"):
        LaurentOperator(p, (((0, (1,)), 1),), divisor=(0, (1, 1)))(SymLaurent.one())
    for bad in ((0, (2, 1, 2)), (0, (0, 1)), (0, (1, scalar(1, 2), 1))):
        with pytest.raises(ValueError, match="a Laurent divisor needs"):
            LaurentOperator(p, (), divisor=bad)
    with pytest.raises(ValueError, match="dilates by p or 1/p"):
        LaurentOperator(p, (((0, (1,)), 2),))
    for base in (0, GR_I):
        with pytest.raises(ValueError, match="real base"):
            LaurentOperator(base, ())


def test_symmetric_inputs_are_checked_not_trusted():
    # z alone, and 1 + z^2, a palindrome off z^0: the ValueError of to_sym
    # wherever a symmetric input is assumed, whatever the input's type
    p = scalar(2, 3)
    takers = (aw_Dq_operator(p), chebyshev_project)
    for bad in (Laurent(0, [0, 1]), Laurent(0, [1, 0, 1])):
        for take in takers:
            with pytest.raises(ValueError, match="not z <-> 1/z symmetric"):
                take(bad)
    # a symmetric plain Laurent passes: z + 1/z, the lift of 2x
    g = Laurent(-1, [1, 0, 1])
    assert aw_Dq_operator(p)(g) == aw_Dq_operator(p)(SymLaurent([0, 1])) == 2
    assert chebyshev_project(g) == 2 * x
