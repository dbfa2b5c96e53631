"""Operators and the generalized Leibniz engine."""

import dataclasses
from random import Random

from askeykit.algebra import (
    GaussianRational,
    Poly,
    Rational,
    SymLaurent,
    chebyshev_lift,
)
from askeykit.ops import (
    aw_Dq,
    aw_Dq_raw,
    aw_eta,
    backward_shift,
    delta_x,
    delta_x2,
    derivative,
    forward_shift,
    leibniz_check,
    neg_forward_shift,
    operator_catalog,
    q_derivative,
    q_derivative_inverse,
    q_shift,
    translate,
)
from askeykit.sampling import sample_rational

x = Poly.x()


def test_derivative_examples():
    assert derivative(x ** 2) == 2 * x
    assert derivative(Poly.constant(5)) == Poly.zero()
    assert derivative(x ** 3 - x) == 3 * x * x - 1


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
    assert delta_x2(x ** 4) == 2 * x * x - Rational(1, 2)


def test_q_derivative_examples():
    q = Rational(1, 2)
    assert q_derivative(x, q) == Poly.one()
    assert q_derivative(x ** 2, q) == Poly([0, Rational(3, 2)])
    assert q_derivative(Poly.one(), q) == Poly.zero()
    assert q_derivative_inverse(x ** 2, q) == Poly([0, 3])  # [2]_(1/q) = 1 + 2


def test_aw_Dq_examples():
    p = Rational(1, 2)
    assert aw_Dq(chebyshev_lift(x), p) == SymLaurent.one()
    assert aw_Dq(SymLaurent.one(), p) == SymLaurent.zero()
    assert aw_Dq(chebyshev_lift(x ** 2), p) == SymLaurent([0, Rational(5, 4)])


def test_aw_eta_examples():
    p = Rational(1, 2)
    f = chebyshev_lift(x)
    up = aw_eta(f, p, 1)
    assert up.coefficient(1) == GaussianRational(Rational(1, 4))
    assert up.coefficient(-1) == GaussianRational(1)
    dn = aw_eta(f, p, -1)
    assert dn.coefficient(1) == GaussianRational(1)
    assert dn.coefficient(-1) == GaussianRational(Rational(1, 4))
    assert aw_eta(SymLaurent.one(), p, 5) == aw_eta(SymLaurent.one(), p, -5)


def test_aw_Dq_prefold_symmetry():
    rng = Random(7)
    p = sample_rational(rng, 0, 1)
    f = chebyshev_lift(Poly([1, -2, 0, 3, 1]))
    raw = aw_Dq_raw(f, p)
    for k in range(raw.high + 1):
        assert raw.coefficient(k) == raw.coefficient(-k)


def test_commutations():
    rng = Random(3)
    q = sample_rational(rng, 0, 1)
    for _ in range(5):
        f = Poly([sample_rational(rng, -4, 4) for _ in range(6)])
        assert translate(backward_shift(f), -1) == backward_shift(translate(f, -1))
        # D_q T_q = q T_q D_q
        lhs = q_derivative(q_shift(f, q), q)
        rhs = q_shift(q_derivative(f, q), q) * q
        assert lhs == rhs


def test_degree_drops():
    rng = Random(11)
    q = sample_rational(rng, 0, 1)
    p = sample_rational(rng, 0, 1)
    for _ in range(5):
        deg = rng.randrange(1, 7)
        f = Poly([sample_rational(rng, -4, 4) for _ in range(deg)] + [1])
        for op in (
            derivative,
            backward_shift,
            neg_forward_shift,
            delta_x,
            lambda g: q_derivative(g, q),
            lambda g: q_derivative_inverse(g, q),
        ):
            assert op(f).degree == deg - 1
        even = Poly([sample_rational(rng, -4, 4), 0] * deg + [1])
        assert delta_x2(even).degree == even.degree - 2
        lifted = chebyshev_lift(f)
        assert aw_Dq(lifted, p).degree == deg - 1


def _random_input(rng, carrier):
    coeffs = [sample_rational(rng, -3, 3) for _ in range(6)]
    if carrier == "even":
        coeffs = [c if k % 2 == 0 else 0 for k, c in enumerate(coeffs)]
    f = Poly(coeffs)
    return chebyshev_lift(f) if carrier == "laurent" else f


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
    cat = operator_catalog()
    spec = cat["derivative"]
    assert not leibniz_check(spec, x, x, 0)
    assert not leibniz_check(spec, x, x, 2)
    spec = cat["backward-eta1"]
    assert not leibniz_check(spec, x, x, 1)


def test_leibniz_check_builds_one_ladder_per_side():
    # partial^n on fg, on f and on g, each built once: 3n applications, not O(n^2)
    rng = Random(5)
    n = 6
    for name, spec in operator_catalog(Rational(1, 3), Rational(2, 3)).items():
        calls = [0]

        def counting(h, partial=spec.partial):
            calls[0] += 1
            return partial(h)

        counted = dataclasses.replace(spec, partial=counting)
        f = _random_input(rng, spec.carrier)
        g = _random_input(rng, spec.carrier)
        assert not leibniz_check(counted, f, g, n), name
        assert calls[0] == 3 * n, (name, calls[0])
