"""Moment functionals, integrated adjointness, deformed orthogonality."""

from random import Random

import pytest

from askeykit import families, functional
from askeykit.algebra import GaussianRational, Poly, pochhammer, scalar
from askeykit.burchnall import operational_rhs
from askeykit.families import FAMILIES, FamilySpec, expand_in_basis, make_point, raise_chain
from askeykit.functional import (
    MomentFunctional,
    build_functional,
    adjointness_check,
    gram_offdiagonal,
    hankel_determinant,
    modified_functional,
    toda_orthogonality_check,
)
from askeykit.sampling import sample_deformation, sample_point
from askeykit.toda import MODIFIED_EXPANSIONS

Q = scalar

ADJOINT_FAMILIES = {
    "hermite": {},
    "laguerre": dict(nu=Q(1, 2)),
    "jacobi": dict(alpha=Q(1, 3), beta=Q(3, 4)),
    "meixner": dict(beta=Q(5, 2), c=Q(1, 3)),
    "charlier": dict(a=Q(7, 3)),
    "meixner-pollaczek": dict(lam=Q(4, 3), phi=Q(2, 5)),
    "big-q-jacobi": dict(a=Q(1, 3), b=Q(1, 4), c=Q(-2, 3), q=Q(1, 2)),
    "big-q-laguerre": dict(a=Q(1, 3), c=Q(-2, 3), q=Q(1, 2)),
}

POLY_RAISING_FAMILIES = [t for t, s in FAMILIES.items() if s.raising is not None and s.carrier == "poly"]


def test_moment_examples():
    L = build_functional(make_point("hermite"), 6)
    assert L.moments[1] == GaussianRational(0)
    assert L.moments[2] == GaussianRational(Q(1, 2))
    L = build_functional(make_point("laguerre", nu=Q(1, 2)), 4)
    assert L.moments[1] == GaussianRational(Q(3, 2))
    L = build_functional(make_point("charlier", a=Q(2)), 4)
    assert L.moments[1] == GaussianRational(2)
    assert L.moments[0] == GaussianRational(1)


def test_functional_rejects_overflow_degree():
    L = build_functional(make_point("hermite"), 3)
    with pytest.raises(ValueError):
        L.apply(Poly.monomial(4))
    # the order check counts the shift: x^1 * x^2 has degree 3, x^2 * x^2 degree 4
    assert L.apply(Poly.monomial(1), 2) == L.apply(Poly.monomial(3))
    with pytest.raises(ValueError):
        L.apply(Poly.monomial(2), 2)
    with pytest.raises(ValueError):
        L.apply(Poly.one(), 4)
    with pytest.raises(ValueError):
        L.apply(Poly.one(), -1)


def test_functional_rejects_partial_ladders():
    with pytest.raises(ValueError):
        build_functional(make_point("wilson", a=1, b=1, c=1, d=1), 3)
    # a finite family with no raising operator
    with pytest.raises(ValueError, match="no raising-chain machinery"):
        build_functional(make_point("krawtchouk", p=Q(1, 3), N=5), 3)


def test_functional_rejects_an_inadmissible_point():
    # laguerre needs nu > -1
    with pytest.raises(ValueError, match="inadmissible"):
        build_functional(make_point("laguerre", nu=Q(-3, 2)), 3)


def test_build_functional_applies_one_raising_operator_order_times(monkeypatch):
    # the moments come from R_nu x^k, k < order: no raising chain is built,
    # and one operator is applied exactly order times
    chains = []
    real_chain = families.raise_chain
    for module in (families, functional):
        monkeypatch.setattr(module, "raise_chain", lambda *a: chains.append(a) or real_chain(*a))
    builds, applications = [], []
    real_operator = FamilySpec.raising_operator

    def counting(self, point):
        builds.append(point)
        op = real_operator(self, point)
        return lambda f: applications.append(point) or op(f)

    monkeypatch.setattr(FamilySpec, "raising_operator", counting)
    rng = Random(71)
    for tag in POLY_RAISING_FAMILIES:
        pt = sample_point(tag, rng)
        for order in (0, 1, 8):
            builds.clear()
            applications.clear()
            build_functional(pt, order)
            assert builds == [pt] and applications == [pt] * order, (tag, order)
    assert chains == []


def test_the_degree_tripwire_guards_the_solve(monkeypatch):
    # the solve divides by the lead of R_nu x^k, so a degree other than k + 1 is an error
    pt = make_point("hermite")
    monkeypatch.setattr(FamilySpec, "raising_operator", lambda self, point: lambda f: f)
    with pytest.raises(AssertionError, match="degree"):
        build_functional(pt, 2)


def test_gram_offdiagonal_vanishes():
    rng = Random(31)
    for tag, kw in ADJOINT_FAMILIES.items():
        pt = sample_point(tag, rng)
        for n, m, v in gram_offdiagonal(pt, 6):
            assert not v, (tag, n, m)


def test_hankel_determinants_nonzero():
    rng = Random(37)
    for tag, kw in ADJOINT_FAMILIES.items():
        pt = sample_point(tag, rng)
        L = build_functional(pt, 8)
        for size in range(1, 5):
            assert hankel_determinant(L, size), (tag, size)


def test_basis_annihilation():
    # L[p_n] = 0 for n >= 1 directly from the construction
    pt = make_point("meixner", beta=Q(5, 2), c=Q(1, 3))
    L = build_functional(pt, 6)
    for n in range(1, 7):
        assert not L.apply(raise_chain(pt, n))


def test_adjointness_laguerre_rho():
    pt = make_point("laguerre", nu=Q(1, 2))
    for n in (1, 2, 3):
        ok, witness, failures = adjointness_check(pt, n, 6)
        assert ok, failures
        assert witness.rho == pochhammer(Q(3, 2), n)


def test_adjointness_all_families():
    assert set(ADJOINT_FAMILIES) == {t for t, s in FAMILIES.items() if s.adjoint is not None}
    for tag, kw in ADJOINT_FAMILIES.items():
        pt = make_point(tag, **kw)
        for n in (1, 2, 3):
            ok, witness, failures = adjointness_check(pt, n, 6)
            assert ok, (tag, n, failures[:2])
            assert witness.samples > 0
    # Hermite masses are t-independent, so rho is exactly 1
    ok, witness, _ = adjointness_check(make_point("hermite"), 3, 6)
    assert witness.rho == GaussianRational(1)


def test_adjointness_builds_the_base_functional_to_degree_d_plus_n(monkeypatch):
    # (chain expansion of x^i) * x^j has degree i + n + j <= D + n, so the base
    # functional needs order D + n and the shifted one order D
    orders = []
    build = functional.build_functional

    def recording(point, order):
        orders.append(order)
        return build(point, order)

    monkeypatch.setattr(functional, "build_functional", recording)
    for tag, kw in ADJOINT_FAMILIES.items():
        pt = make_point(tag, **kw)
        for n, D in ((1, 6), (3, 6), (5, 4)):
            orders.clear()
            ok, _, failures = adjointness_check(pt, n, D)
            assert ok, (tag, n, failures[:2])
            assert tuple(orders) == (D + n, D), (tag, n, D)


def test_toda_orthogonality():
    # every modified expansion, under the family's deformed measure or the
    # measure the expansion declares
    rng = Random(41)
    assert len(MODIFIED_EXPANSIONS) == 10
    for ident, expansion in MODIFIED_EXPANSIONS.items():
        pt = sample_point(expansion.family, rng)
        s = sample_deformation(rng, pt)
        for n in range(1, 5):
            residuals = toda_orthogonality_check(ident, pt, n, s)
            assert len(residuals) == n
            assert all(not r for r in residuals), (ident, n)


def test_toda_orthogonality_neutral():
    # t = 0 is plain orthogonality of the undeformed family
    pt = make_point("hermite")
    residuals = toda_orthogonality_check("hermite-toda", pt, 3, Q(0))
    assert all(not r for r in residuals)


def test_modified_functional_charlier():
    pt = make_point("charlier", a=Q(2))
    L = modified_functional(pt, Q(1, 2), 3)
    assert L.moments[1] == GaussianRational(1)  # deformed mean a*u


def test_bqj_chain_orthogonal_to_lower_monomials():
    # the f = 1 instance of the integrated expansion: the chain polynomial is
    # L-orthogonal to x^p for p < n
    pt = make_point("big-q-jacobi", a=Q(1, 3), b=Q(1, 4), c=Q(-2, 3), q=Q(1, 2))
    L = build_functional(pt, 10)
    for n in range(1, 5):
        expansion = operational_rhs(pt, n, Poly.one(), "Tq")
        for p in range(n):
            assert not L.apply(expansion, p), (n, p)


def test_moments_match_the_basis_expansion():
    # oracle: L[x^k] is the p_0-coefficient of x^k in the raising-chain basis
    rng = Random(61)
    order = 10
    for tag in POLY_RAISING_FAMILIES:
        for _ in range(3):
            pt = sample_point(tag, rng)
            basis = [raise_chain(pt, j) for j in range(order + 1)]
            expected = tuple(expand_in_basis(Poly.monomial(k), basis[: k + 1])[0] for k in range(order + 1))
            assert build_functional(pt, order).moments == expected, pt


def test_apply_matches_the_coefficient_sum():
    rng = Random(67)

    def scalar(complex_part):
        re = Q(rng.randrange(-20, 21), rng.randrange(1, 20))
        return GaussianRational(re, Q(rng.randrange(-20, 21), rng.randrange(1, 20)) if complex_part else 0)

    for complex_moments in (False, True):
        moments = [GaussianRational(1)] + [scalar(complex_moments) for _ in range(6)] + [GaussianRational(0)]
        L = MomentFunctional(tuple(moments))
        for complex_poly in (False, True):
            for deg in range(-1, L.order + 1):
                f = Poly([scalar(complex_poly) for _ in range(deg + 1)])
                expected = GaussianRational(0)
                for c, m in zip(f.coeffs, moments):
                    expected = expected + c * m
                assert L.apply(f) == expected, (complex_moments, complex_poly, f)
                for shift in range(L.order - deg + 1):
                    shifted = L.apply(f * Poly.monomial(shift))
                    assert L.apply(f, shift) == shifted, (complex_moments, complex_poly, f, shift)
