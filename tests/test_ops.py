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


def test_leibniz_check_sums_the_window_of_the_full_sum():
    # leibniz_check forms only the k at which partial^(n-k) f and partial^k g
    # are both nonzero; the full k = 0 .. n sum, written out here, gives the
    # same residual, at every n until partial^n(fg) = 0, for the declared
    # alpha and for a wrong one, whose residual is nonzero
    rng = Random(36)
    for name, spec in operator_catalog(scalar(2, 5), scalar(3, 7)).items():
        wrong = dataclasses.replace(spec, alpha=lambda n, k, alpha=spec.alpha: alpha(n, k) + k)
        grade = spec.carrier.grade
        f = spec.carrier.element([sample_rational(rng, -3, 3) for _ in range(2 * grade + 1)])
        g = spec.carrier.element([sample_rational(rng, -3, 3) for _ in range(3 * grade + 1)])
        for s in (spec, wrong):
            fs, gs, lhs, residuals = [f], [g], [f * g], []
            for n in range(0, spec.carrier.degree(f) + spec.carrier.degree(g) + 2):
                full = lhs[n] - sum(
                    (product(s.alpha(n, k), s.eta(fs[n - k], k), s.twist(gs[k], k, n)) for k in range(n + 1)),
                    start=lhs[n] * 0,
                )
                assert leibniz_check(s, f, g, n) == full, (name, n)
                residuals.append(full)
                fs, gs, lhs = fs + [s.partial(fs[-1])], gs + [s.partial(gs[-1])], lhs + [s.partial(lhs[-1])]
            assert any(residuals) == (s is wrong), name


def test_leibniz_trivial_cases():
    cat = operator_catalog(scalar(1, 2), scalar(1, 2))
    spec = cat["derivative"]
    assert not leibniz_check(spec, x, x, 0)
    assert not leibniz_check(spec, x, x, 2)
    spec = cat["backward-eta1"]
    assert not leibniz_check(spec, x, x, 1)


def test_leibniz_check_builds_one_ladder_per_side():
    # partial^n on fg, on f and on g, each built once and never applied to a
    # zero: each partial lowers the carrier degree by one, so a ladder of h
    # takes min(n, deg h + 1) applications, at most 3n in all, not O(n^2)
    rng = Random(5)
    n = 6
    for name, spec in operator_catalog(scalar(1, 3), scalar(2, 3)).items():
        calls = [0]

        def counting(h, partial=spec.partial):
            assert h, name
            calls[0] += 1
            return partial(h)

        counted = dataclasses.replace(spec, partial=counting)
        f = _random_input(rng, spec.carrier)
        g = _random_input(rng, spec.carrier)
        assert not leibniz_check(counted, f, g, n), name
        expected = sum(min(n, spec.carrier.degree(h) + 1) for h in (f * g, f, g))
        assert calls[0] == expected <= 3 * n, (name, calls[0], expected)


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
    ar, ai, br, bi, e = (scalar(c) for c in sub)
    return f.compose_affine(GaussianRational(ar, ai) / e, GaussianRational(br, bi) / e)


small = st.integers(-9, 9)
nonzero = small.filter(bool)


@st.composite
def multipliers(draw):
    """Integer numerators (mr, mi) of a multiplier from x^0 up; mi is None for a real one."""
    mr = draw(st.lists(small, min_size=1, max_size=3))
    if draw(st.booleans()):
        return tuple(mr), None
    return tuple(mr), tuple(draw(st.lists(small, min_size=len(mr), max_size=len(mr))))


@st.composite
def tap_lists(draw):
    """Integer taps (sub, mr, mi, pair), substitution denominators of either sign; a conjugate pair
    is a tap M f(alpha*x + beta), alpha real, and its partner conj(M) f(alpha*x + conj beta), folded or not."""
    taps = []
    for _ in range(draw(st.integers(1, 3))):
        mr, mi = draw(multipliers())
        kind = draw(st.sampled_from(["id", "d", "affine", "pair"]))
        if kind in ("id", "d"):
            taps.append((None if kind == "id" else "d", mr, mi, 0))
            continue
        ar, br, bi, e = draw(nonzero), draw(small), draw(small), draw(nonzero)
        if kind == "affine":
            taps.append(((ar, draw(small), br, bi, e), mr, mi, 0))
        else:
            fold = draw(st.booleans())
            conj = None if mi is None else tuple(-c for c in mi)
            taps += [((ar, 0, br, bi, e), mr, mi, fold), ((ar, 0, br, -bi, e), mr, conj, 2 * fold)]
    return taps


def _times(cs, k):
    return tuple(c * k for c in cs)


def _tap_sum(taps, f):
    """sum_t M_t S_t f in Poly arithmetic, every tap run as written."""
    num = Poly.zero()
    for sub, mr, mi, _ in taps:
        m = Poly([GaussianRational(r, i) for r, i in zip(mr, mi or [0] * len(mr))])
        num = num + m * _apply_tap(f, sub)
    return num


@settings(max_examples=150, deadline=None)
@given(tap_lists(), nonzero, st.booleans(), st.one_of(real_polys, complex_polys))
def test_difference_operator_matches_its_taps(taps, den, by_x, f):
    # a real input folds each folded pair into its first tap, a complex one runs both
    num = _tap_sum(taps, f)
    if by_x and f.coefficient(0):
        # one more identity tap cancels the constant term, so x divides the sum
        k = -num.coefficient(0) / f.coefficient(0)
        taps = [(sub, _times(mr, k.d), mi and _times(mi, k.d), pair) for sub, mr, mi, pair in taps]
        taps, num, den = [*taps, (None, (k.r,), (k.i,), 0)], (num + f * k) * k.d, den * k.d
    op = DifferenceOperator(taps, den, by_x)
    expected = num * scalar(1, den)
    if not by_x:
        assert op(f) == expected
    elif expected.coefficient(0):
        with pytest.raises(ValueError, match="nonzero remainder"):
            op(f)
    else:
        assert op(f) == _by_x(expected, 1)


def _paired_operators():
    """delta_x, delta_x2 and the Meixner-Pollaczek and Wilson raising operators at three sampled points each,
    with the carrier of their inputs."""
    rng = Random(31)
    paired = [(delta_x, POLY), (delta_x2, EVEN)]
    for tag in ("meixner-pollaczek", "wilson"):
        spec = FAMILIES[tag]
        paired += [(spec.raising_operator(sample_point(tag, rng)), spec.carrier) for _ in range(3)]
    return paired


def test_declared_conjugate_pairs_fold():
    # each declared pair folds on a real input; a lost fold changes no value, so only this check sees it
    assert [sorted(tap[-1] for tap in op._taps if tap[-1]) for op, _ in _paired_operators()] == [[1, 2]] * 8


@settings(max_examples=40, deadline=None)
@given(real_polys, complex_polys)
def test_folded_pairs_equal_their_two_taps(f_real, f_complex):
    # a folded pair is only right when its partner is the conjugate of its first tap: then the fold on
    # a real input and both taps on a complex one agree with the taps run unfolded
    for op, carrier in _paired_operators():
        unfolded = DifferenceOperator([(sub, mr, mi, 0) for sub, _, mr, mi, _ in op._taps], op._den, op._by_x)
        for f in (f_real, f_complex):
            g = _even(f) if carrier == EVEN else f
            assert op(g) == unfolded(g), (op._taps, g)


def test_laurent_divisors_suit_the_unit_division():
    # _unit_divide divides by D with integer coefficients, a nonzero constant and a top +-1
    rng = Random(5)
    ops = [aw_Dq_operator(sample_rational(rng, 0, 9, 1)) for _ in range(3)]
    for tag, spec in FAMILIES.items():
        if spec.carrier == LAURENT:
            ops += [spec.raising_operator(sample_point(tag, rng)) for _ in range(3)]
    divisors = [op._divisor for op in ops if isinstance(op, LaurentOperator)]
    assert len(divisors) == len(ops) > 3
    for _, dc in divisors:
        assert all(type(c) is int for c in dc) and dc[0] and dc[-1] in (1, -1), dc


def test_difference_operator_remainder_tripwire():
    with pytest.raises(ValueError, match="nonzero remainder"):
        delta_x2(x)  # odd input: the difference is the constant i
    with pytest.raises(ValueError, match="nonzero remainder in exact division: 1"):
        DifferenceOperator(((None, (1,), None, 0),), 1, True)(Poly.one())


# The Laurent taps against their definition, composed here from scale_var,
# *, -, exact_div and to_sym.

real_syms = st.lists(rationals, min_size=1, max_size=6).map(SymLaurent)
complex_syms = st.lists(gaussians, min_size=1, max_size=6).map(SymLaurent).filter(lambda f: not f.body.is_real)
real_bases = st.builds(scalar, st.integers(-30, 30).filter(bool), st.integers(1, 12)).filter(lambda p: abs(p) != 1)


def _laurent_taps_by_definition(p, taps, low, den, divisor, f):
    num = Laurent.zero()
    for a, _, mr, mi in taps:
        m = [GaussianRational(r, i) for r, i in zip(mr, mi or [0] * len(mr))]
        num = num + Laurent(low, m) * f.scale_var(p if a == p.r else 1 / p)
    num = num * scalar(1, den)
    if divisor is not None:
        num = num.exact_div(Laurent(*divisor))
    return num.to_sym()


def _aw_Dq_by_definition(f, p):
    c = (p - 1 / p) / 2
    return (f.scale_var(p) - f.scale_var(1 / p)).exact_div(Laurent(-1, [-c, 0, c])).to_sym()


@st.composite
def laurent_tap_lists(draw, p):
    """Integer taps: M(z) f(pz) and its partner +-M(1/z) f(z/p), so the sum is symmetric or
    antisymmetric, from one low power of z; sometimes one stray tap; and a divisor to match."""
    r, d = p.r, p.d
    mr, mi = draw(multipliers())
    top = draw(st.integers(-3, 3))  # M is z^top times a polynomial
    low = min(top, -(top + len(mr) - 1))
    sign = draw(st.sampled_from([1, -1]))

    def aligned(cs, at):
        return cs and (0,) * (at - low) + tuple(cs)

    partner = [tuple(sign * c for c in reversed(cs)) if cs else None for cs in (mr, mi)]
    taps = [(r, d, aligned(mr, top), aligned(mi, top)), (d, r, *(aligned(cs, -(top + len(mr) - 1)) for cs in partner))]
    symmetric = [None, (-1, (1, 0, 1)), (0, (1, 0, 1))]  # 1, z + 1/z, 1 + z^2
    antisymmetric = [(-1, (-1, 0, 1)), (0, (1, 0, -1))]  # z - 1/z, 1 - z^2
    divisor = draw(st.sampled_from(symmetric if sign == 1 else antisymmetric))
    if draw(st.integers(0, 4)) == 0:
        taps.append((r, d, tuple(draw(st.lists(small, min_size=1, max_size=3))), None))
    return taps, low, divisor


@settings(max_examples=150, deadline=None)
@given(st.data(), real_bases, nonzero, st.one_of(real_syms, complex_syms))
def test_laurent_operator_matches_its_taps(data, p, den, f):
    # the result, or the same tripwire (a remainder or an asymmetric quotient)
    taps, low, divisor = data.draw(laurent_tap_lists(p))
    op = LaurentOperator(taps, low, den, divisor)
    try:
        expected = _laurent_taps_by_definition(p, taps, low, den, divisor, f)
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


# the elements a step acts on: any polynomial, an even one, any Laurent polynomial
polys = st.one_of(real_polys, complex_polys)
elements = {POLY: polys, EVEN: polys.map(_even), LAURENT: laurents}


def _single_steps(carrier, f, step, j):
    """f under j single steps (a, b), or -j inverse steps (1/a, -b/a) when j < 0."""
    a, b = (scalar(v) for v in step)
    if j < 0:
        a, b, j = 1 / a, -b / a, -j
    for _ in range(j):
        f = f.scale_var(a) if carrier == LAURENT else f.compose_affine(a, b)
    return f


@settings(max_examples=60, deadline=None)
@given(st.data(), bases, real_bases, st.integers(-3, 3), st.integers(0, 4))
def test_eta_and_twist_are_powers_of_their_steps(data, q, p, k, n):
    # each step is a shift or a dilation, of z alone on the Laurent carrier,
    # so that its j-th power x |-> a^j x + j b is j single steps
    for name, spec in operator_catalog(q, p).items():
        for a, b in (spec.eta_step, spec.twist_step):
            assert a == 1 or b == 0, name
            assert b == 0 or spec.carrier != LAURENT, name
        f = data.draw(elements[spec.carrier], label=name)
        for j in range(-2, 4):
            assert spec.eta(f, j) == _single_steps(spec.carrier, f, spec.eta_step, j), (name, j)
            assert spec.twist(f, k, k + j) == _single_steps(spec.carrier, f, spec.twist_step, j), (name, j)
    spec = aw_spec(p)
    f = data.draw(laurents, label="aw")
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
    up, dn = (2, 3), (3, 2)  # z |-> (2/3) z and z |-> (3/2) z
    f = chebyshev_lift(Poly([1, -2, 0, 3]))
    # an asymmetric multiplier: z f(pz)
    with pytest.raises(ValueError, match="not z <-> 1/z symmetric"):
        LaurentOperator(((*up, (1,), None),), 1, 1)(f)
    # M(z) f(pz) + M(1/z) f(z/p) is symmetric; one partner coefficient changed, it is not
    LaurentOperator(((*up, (1, 2, 3), None), (*dn, (3, 2, 1), None)), -1, 1)(f)
    with pytest.raises(ValueError, match="not z <-> 1/z symmetric"):
        LaurentOperator(((*up, (1, 2, 3), None), (*dn, (3, 2, 2), None)), -1, 1)(f)
    # f(pz) + f(z/p) is 2 f(p) at z = 1, so z - 1/z leaves a remainder
    both = ((*up, (1,), None), (*dn, (1,), None))
    with pytest.raises(ValueError, match="nonzero remainder in exact division"):
        LaurentOperator(both, 0, 1, (-1, (-1, 0, 1)))(f)
    with pytest.raises(ValueError, match="nonzero remainder in exact division"):
        # i (z + 1/z): only the imaginary part leaves one
        LaurentOperator(both, 0, 1, (-1, (-1, 0, 1)))(SymLaurent([0, GR_I]))
    with pytest.raises(ValueError, match="nonzero remainder in exact division: 1"):
        LaurentOperator(((*up, (1,), None),), 0, 1, (0, (1, 1)))(SymLaurent.one())
    # the taps share one denominator (rd)^n only when every tap dilates by p or 1/p
    with pytest.raises(ValueError, match="dilate by one base"):
        LaurentOperator(((*up, (1,), None), (1, 3, (1,), None)), 0, 1)
    with pytest.raises(ZeroDivisionError):
        LaurentOperator(both, 0, 0)


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
