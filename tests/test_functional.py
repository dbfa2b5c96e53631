"""Moment functionals, integrated adjointness, deformed orthogonality."""

import dataclasses
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from askeykit import families, functional
from askeykit.algebra import GaussianRational, Poly, binomial, pochhammer, scalar, term_sum
from askeykit.burchnall import operational_terms
from askeykit.families import FAMILIES, FamilySpec, expand_in_basis, make_point, raise_chain, shifted_point
from askeykit.functional import (
    PAIR_BUDGET,
    MomentFunctional,
    build_functional,
    adjointness_check,
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
    monkeypatch.setattr(families, "raise_chain", lambda *a: chains.append(a) or real_chain(*a))
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


def test_the_realness_tripwire_guards_the_solve(monkeypatch):
    # the solve reads only the real parts, so an image with an imaginary part is an error
    real_operator = FamilySpec.raising_operator
    monkeypatch.setattr(
        FamilySpec, "raising_operator",
        lambda self, point: lambda f, op=real_operator(self, point): op(f) * GaussianRational(1, 1),
    )
    with pytest.raises(AssertionError, match="not to a real polynomial"):
        build_functional(make_point("laguerre", nu=Q(1, 2)), 3)


def test_gram_offdiagonal_vanishes():
    # all L[p_n p_m], n != m, n + m <= 6, vanish exactly
    rng = Random(31)
    order = 6
    for tag, kw in ADJOINT_FAMILIES.items():
        pt = sample_point(tag, rng)
        L = build_functional(pt, order)
        for n in range(order + 1):
            for m in range(n + 1, order - n + 1):
                assert not L.apply(raise_chain(pt, n) * raise_chain(pt, m)), (tag, n, m)


def test_hankel_determinants_nonzero():
    rng = Random(37)
    for tag, kw in ADJOINT_FAMILIES.items():
        pt = sample_point(tag, rng)
        L = build_functional(pt, 8)
        for size in range(1, 5):
            assert hankel_determinant(L, size), (tag, size)


def _permutation_det(rows) -> GaussianRational:
    """The determinant as the sum over permutations, each signed by its inversion count."""
    size = len(rows)
    total = GaussianRational(0)
    for perm in permutations(range(size)):
        inversions = sum(perm[a] > perm[b] for a in range(size) for b in range(a + 1, size))
        term = GaussianRational(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term = term * rows[r][c]
        total = total + term
    return total


def test_hankel_determinant_matches_the_permutation_expansion():
    # mu_0 = 0 forces a row swap in the first column, a rank-one block a zero
    # pivot in the second; the random draws are mostly zeros, so many force one or both
    rng = Random(43)
    draws = (0, 0, 0, 1, -2, Q(1, 3), GaussianRational(1, 2))
    sequences = [[0, 1, 0, 2, 0, 3, 0], [1] * 7, [2, 0, 0, 1, 0, 0, 5]]
    sequences += [[rng.choice(draws) for _ in range(7)] for _ in range(40)]
    for ms in sequences:
        L = MomentFunctional(Poly(ms), len(ms) - 1)
        for size in range(1, 5):
            block = [[L.moments[i + j] for j in range(size)] for i in range(size)]
            assert hankel_determinant(L, size) == _permutation_det(block), (ms, size)


def test_basis_annihilation():
    # L[p_n] = 0 for n >= 1 directly from the construction
    pt = make_point("meixner", beta=Q(5, 2), c=Q(1, 3))
    L = build_functional(pt, 6)
    for n in range(1, 7):
        assert not L.apply(raise_chain(pt, n))


def test_adjointness_laguerre_rho():
    pt = make_point("laguerre", nu=Q(1, 2))
    for n in (1, 2, 3):
        rho, pairs, failures = adjointness_check(pt, n)
        assert not failures, failures
        assert rho == pochhammer(Q(3, 2), n)


def test_adjointness_all_families():
    assert set(ADJOINT_FAMILIES) == {t for t, s in FAMILIES.items() if s.adjoint is not None}
    for tag, kw in ADJOINT_FAMILIES.items():
        pt = make_point(tag, **kw)
        for n in (1, 2, 3):
            rho, pairs, failures = adjointness_check(pt, n)
            assert not failures, (tag, n, failures[:2])
            assert pairs > 0
    # Hermite masses are t-independent, so rho is exactly 1
    rho, pairs, _ = adjointness_check(make_point("hermite"), 3)
    assert rho == GaussianRational(1)


def _sin_from_half(s):
    return 2 * s / (1 + s * s)


# rho_n = (mass at nu + n sigma) / (mass at nu), in closed form; big q-Jacobi
# and big q-Laguerre fit a rho that is not their plain mass ratio
CLOSED_MASS_RATIOS = {
    "hermite": lambda v, n: Q(1),
    "charlier": lambda v, n: Q(1),
    "laguerre": lambda v, n: pochhammer(v["nu"] + 1, n),
    "jacobi": lambda v, n: (
        4 ** n * pochhammer(v["alpha"] + 1, n) * pochhammer(v["beta"] + 1, n)
        / pochhammer(v["alpha"] + v["beta"] + 2, 2 * n)
    ),
    "meixner": lambda v, n: 1 / (1 - v["c"]) ** n,
    "meixner-pollaczek": lambda v, n: pochhammer(2 * v["lam"], n) / (2 * _sin_from_half(v["phi"])) ** n,
}


def test_adjointness_rho_is_the_closed_form_mass_ratio():
    rng = Random(83)
    for tag, closed in CLOSED_MASS_RATIOS.items():
        for _ in range(3):
            pt = sample_point(tag, rng)
            for n in range(1, 5):
                rho, pairs, failures = adjointness_check(pt, n)
                assert not failures, (tag, n, failures[:2])
                assert rho == closed(pt.as_dict(), n), (tag, pt, n)


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
        for n, D in ((1, PAIR_BUDGET), (3, PAIR_BUDGET), (5, 4)):
            orders.clear()
            monkeypatch.setattr(functional, "PAIR_BUDGET", D)
            _, _, failures = adjointness_check(pt, n)
            assert not failures, (tag, n, failures[:2])
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
        expansion = term_sum(operational_terms(pt, n, [Poly.one()], "Tq")[0])
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
        L = MomentFunctional(Poly(moments), len(moments) - 1)
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


# Closed-form normalized moments (KLS normalizations), computed with no
# raising operator: build_functional must reproduce them at order 12.

MOMENT_ORDER = 12


@st.composite
def _inside(draw, lo: int, hi: int):
    """A rational strictly inside (lo, hi) with denominator at most 64."""
    d = draw(st.integers(2, 64))
    return Q(draw(st.integers(lo * d + 1, hi * d - 1)), d)


def _from_factorial_moments(fm) -> tuple:
    """Power moments E[x^k] from factorial moments E[x (x-1) ... (x-j+1)]:
    x^k = sum_j S(k, j) x (x-1) ... (x-j+1), S the Stirling numbers of the second kind."""
    out = []
    row = [1]  # S(k, 0..k)
    for k in range(len(fm)):
        if k:
            row = [0] + [j * (row[j] if j < k else 0) + row[j - 1] for j in range(1, k + 1)]
        out.append(sum(s * m for s, m in zip(row, fm)))
    return tuple(out)


def _moments(pt) -> tuple:
    return build_functional(pt, MOMENT_ORDER).moments


def test_hermite_moments_in_closed_form():
    # mu_2k = (1/2)_k, odd moments 0
    expected = tuple(pochhammer(Q(1, 2), k // 2) if k % 2 == 0 else Q(0) for k in range(MOMENT_ORDER + 1))
    assert _moments(make_point("hermite")) == expected


@settings(max_examples=20, deadline=None)
@given(_inside(-1, 3))
def test_laguerre_moments_in_closed_form(nu):
    expected = tuple(pochhammer(nu + 1, k) for k in range(MOMENT_ORDER + 1))
    assert _moments(make_point("laguerre", nu=nu)) == expected


@settings(max_examples=20, deadline=None)
@given(_inside(-1, 3), _inside(-1, 3))
def test_jacobi_moments_in_closed_form(alpha, beta):
    # t = (1 - x)/2 has E[t^j] = (alpha+1)_j / (alpha+beta+2)_j, and x = 1 - 2t
    t = [pochhammer(alpha + 1, j) / pochhammer(alpha + beta + 2, j) for j in range(MOMENT_ORDER + 1)]
    expected = tuple(
        sum((binomial(k, j) * (-2) ** j * t[j] for j in range(k + 1)), Q(0)) for k in range(MOMENT_ORDER + 1)
    )
    assert _moments(make_point("jacobi", alpha=alpha, beta=beta)) == expected


@settings(max_examples=20, deadline=None)
@given(_inside(0, 4))
def test_charlier_moments_are_touchard_polynomials(a):
    # Poisson factorial moments a^j, so E[x^k] = sum_j S(k, j) a^j
    expected = _from_factorial_moments([a ** j for j in range(MOMENT_ORDER + 1)])
    assert _moments(make_point("charlier", a=a)) == expected


@settings(max_examples=20, deadline=None)
@given(_inside(0, 4), _inside(0, 1))
def test_meixner_moments_from_factorial_moments(beta, c):
    # factorial moments (beta)_j (c/(1-c))^j
    ratio = c / (1 - c)
    expected = _from_factorial_moments([pochhammer(beta, j) * ratio ** j for j in range(MOMENT_ORDER + 1)])
    assert _moments(make_point("meixner", beta=beta, c=c)) == expected


def _adjointness_by_division(point, n, D):
    """Reference pair loop: a per-f expansion, and lhs / rhs for every pair."""
    adj = FAMILIES[point.family].adjoint(point)
    L_base = build_functional(point, D + n)
    L_shift = build_functional(shifted_point(point, n), D)
    lowered = []
    for j in range(D + 1):
        g = Poly.monomial(j)
        for _ in range(n):
            g = adj(g)
        lowered.append(g)
    failures, rho, samples = [], None, 0
    for i in range(D + 1):
        expansion = term_sum(operational_terms(point, n, [Poly.monomial(i)])[0])
        for j in range(D - i + 1):
            lhs = L_base.apply(expansion, j)
            rhs = L_shift.apply(lowered[j], i)
            if not rhs:
                if lhs:
                    failures.append((i, j, "rhs vanished but lhs did not", lhs))
                continue
            ratio = lhs / rhs
            samples += 1
            if rho is None:
                rho = ratio
            elif ratio != rho:
                failures.append((i, j, "mass ratio drifted", ratio - rho))
    return not failures, rho if rho is not None else GaussianRational(0), samples, failures


@pytest.mark.parametrize("tag", sorted(ADJOINT_FAMILIES))
def test_adjointness_matches_the_dividing_pair_loop(monkeypatch, tag):
    spec = FAMILIES[tag]
    lowerings = {
        "adjoint": spec.adjoint,
        "twice the adjoint": lambda pt: (lambda f, adj=spec.adjoint(pt): adj(f) * 2),
        # followed by x -> x + 1 it is no adjoint, so the ratios drift
        "shifted adjoint": lambda pt: (lambda f, adj=spec.adjoint(pt): adj(f).compose_affine(1, 1)),
        # x^3 sent to zero: at n = 1 the rhs of every pair (i, 3) vanishes, and some lhs does not
        "adjoint zeroing x^3": lambda pt: (
            lambda f, adj=spec.adjoint(pt): Poly.zero() if f == Poly.monomial(3) else adj(f)
        ),
    }
    drifted = vanished = 0
    for name, lowering in lowerings.items():
        monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(spec, adjoint=lowering))
        for n in (1, 2):
            pt = make_point(tag, **ADJOINT_FAMILIES[tag])
            rho, pairs, failures = adjointness_check(pt, n)
            expected = _adjointness_by_division(make_point(tag, **ADJOINT_FAMILIES[tag]), n, PAIR_BUDGET)
            assert (not failures, rho, pairs, failures) == expected, (tag, name, n)
            drifted += any(reason == "mass ratio drifted" for _, _, reason, _ in failures)
            vanished += any(reason == "rhs vanished but lhs did not" for _, _, reason, _ in failures)
    assert drifted and vanished, tag
