"""Closed-form lattice flows and modified-weight expansions."""

import dataclasses
from random import Random

import pytest

from askeykit.algebra import GaussianRational, Poly, scalar
from askeykit.families import FAMILIES, deformation, make_point
from askeykit.functional import modified_functional
from askeykit.sampling import sample_deformation, sample_point
from askeykit.toda import (
    MODIFIED_EXPANSIONS,
    TODA_SOLUTIONS,
    flow_coefficient_strs,
    flow_index,
    modified_expansion_residual,
    modified_recurrence,
    toda_from_recurrence_crosscheck,
    toda_residuals,
)

Q = scalar


def test_hermite_flow_by_hand():
    sol = TODA_SOLUTIONS["hermite"]
    pt = make_point("hermite")
    # b-equation: d/dt(-t/2) = -1/2 must equal c_n - c_(n+1) = -1/2
    rc, rb = toda_residuals(sol, 2, pt)
    assert not rc and not rb


def test_all_flows_random_points():
    rng = Random(808)
    for tag, sol in TODA_SOLUTIONS.items():
        for _ in range(4):
            pt = sample_point(tag, rng)
            top = FAMILIES[tag].top(pt)
            nmax = 10 if top is None else top - 1
            for n in range(1, nmax + 1):
                rc, rb = toda_residuals(sol, n, pt)
                assert not rc and not rb, (tag, n)


def test_flow_c_nonzero():
    # c_n is nonzero for n >= 1 at admissible parameters
    rng = Random(77)
    for tag, sol in TODA_SOLUTIONS.items():
        pt = sample_point(tag, rng)
        top = FAMILIES[tag].top(pt)
        nmax = 6 if top is None else top
        for n in range(1, nmax + 1):
            assert sol.c(n, pt), (tag, n)
        # the printed lowest terms divide out a D of degree <= 1
        assert sol.den(pt) and sol.den(pt).degree <= 1, tag


@pytest.mark.parametrize("tag", sorted(TODA_SOLUTIONS))
def test_a_wrong_numerator_gives_a_nonzero_residual(tag):
    # B_n + 1 at one index breaks c_n' = c_n (b_(n-1) - b_n) there
    sol = TODA_SOLUTIONS[tag]
    pt = sample_point(tag, Random(1313))
    n = flow_index(pt, 2)
    wrong = dataclasses.replace(sol, b=lambda k, p: sol.b(k, p) + (1 if k == n else 0))
    rc, rb = toda_residuals(wrong, n, pt)
    assert rc, tag
    assert toda_residuals(sol, n, pt) == (Poly.zero(), Poly.zero())


def test_a_zero_denominator_raises():
    sol = dataclasses.replace(TODA_SOLUTIONS["laguerre"], den=lambda pt: Poly.zero())
    with pytest.raises(ZeroDivisionError):
        toda_residuals(sol, 1, make_point("laguerre", nu=Q(1, 2)))


def test_flow_coefficients_print_in_lowest_terms():
    pt = make_point("krawtchouk", p=Q(16, 41), N=8)
    sol = TODA_SOLUTIONS["krawtchouk"]
    # B_4 = 4 (1 - p + pu) is a multiple of D, so b_4 is the constant 4
    assert flow_coefficient_strs(sol, 4, pt) == (
        "(4)", "(125/4*u) / (1*u^2 + 25/8*u + 625/256)"
    )
    assert flow_coefficient_strs(sol, 1, pt)[0] == "(7*u + 25/16) / (1*u + 25/16)"
    # C_1 = 0 at lam = 0 (outside the domain): all of T^2 cancels
    mp = make_point("meixner-pollaczek", lam=Q(0), phi=Q(1, 3))
    assert flow_coefficient_strs(TODA_SOLUTIONS["meixner-pollaczek"], 1, mp) == ("(-1) / (1*T)", "(0)")


def test_flow_index_bounds():
    sol = TODA_SOLUTIONS["krawtchouk"]
    pt = make_point("krawtchouk", p=Q(1, 2), N=4)
    with pytest.raises(ValueError):
        toda_residuals(sol, 4, pt)  # needs c_5 beyond the family
    with pytest.raises(ValueError):
        toda_residuals(sol, 0, pt)


@pytest.mark.parametrize("tag", sorted(TODA_SOLUTIONS))
def test_flow_index_is_the_largest_index_toda_residuals_takes(tag):
    # the one rule that cli and toda_residuals share: the flow at n reads c_(n+1)
    sol = TODA_SOLUTIONS[tag]
    pt = sample_point(tag, Random(1414))
    top = FAMILIES[tag].top(pt)
    for n in range(1, 13):
        nn = flow_index(pt, n)
        assert 1 <= nn <= n, (tag, n, nn)
        assert toda_residuals(sol, nn, pt) == (Poly.zero(), Poly.zero()), (tag, n)
        if top is not None and n >= top - 1:
            with pytest.raises(ValueError, match="beyond the family size"):
                toda_residuals(sol, nn + 1, pt)
    if tag == "krawtchouk":
        assert top is not None and top <= 12, top  # so the loop reached the top


def test_hermite_toda_example():
    pt = make_point("hermite")
    assert MODIFIED_EXPANSIONS["hermite-toda"].lhs(pt, 1, Q(1)) == Poly([1, 2])  # H_1(x + 1/2) = 2x + 1
    assert not modified_expansion_residual("hermite-toda", pt, 1, Q(1))


def test_laguerre_toda_example():
    pt = make_point("laguerre", nu=Q(0))
    e = MODIFIED_EXPANSIONS["laguerre-toda"]
    lhs, terms = e.lhs(pt, 1, Q(2)), e.build(pt, 1, Q(2))
    assert lhs == Poly([1, -3])  # L_1(3x) = 1 - 3x
    assert terms[0] == Poly([1, -1]) and terms[1] == Poly([0, -2])
    assert not modified_expansion_residual("laguerre-toda", pt, 1, Q(2))


def test_bql_inverse_collapses_at_n1():
    pt = make_point("big-q-jacobi", a=Q(1, 3), b=Q(1, 4), c=Q(-2, 3), q=Q(1, 2))
    assert not modified_expansion_residual("bigqlaguerre-inverse", pt, 1)


def test_all_modified_expansions_sampled():
    rng = Random(909)
    for ident, e in MODIFIED_EXPANSIONS.items():
        for _ in range(3):
            pt = sample_point(e.family, rng)
            s = sample_deformation(rng, pt)
            for n in range(0, 5):
                assert not modified_expansion_residual(ident, pt, n, s), (ident, n)


def test_boundary_coherence():
    # the neutral deformation scalar collapses every sum to its k = 0 term
    rng = Random(1010)
    neutral = {"t": Q(0), "u": Q(1), "r": Q(0)}
    for ident, e in MODIFIED_EXPANSIONS.items():
        d = FAMILIES[e.family].deformation
        if d is None:
            continue
        pt = sample_point(e.family, rng)
        s = neutral[d.scalar.name]
        live = [t for t in e.build(pt, 3, s) if t]
        assert len(live) == 1 and live[0] == e.lhs(pt, 3, s), ident


@pytest.mark.parametrize("ident", ["meixner-toda-eta1", "meixner-toda-etaS"])
def test_the_left_side_reads_the_declared_deformation(monkeypatch, ident):
    # the deformation c -> c u is the only record of the Meixner left side,
    # so declaring c -> c u^2 instead must break both expansions
    spec = FAMILIES["meixner"]
    wrong = dataclasses.replace(spec.deformation, params=lambda pt, u: pt.replace(c=pt.get("c") * u * u))
    monkeypatch.setitem(FAMILIES, "meixner", dataclasses.replace(spec, deformation=wrong))
    pt = make_point("meixner", beta=Q(1), c=Q(1, 2))
    assert modified_expansion_residual(ident, pt, 1, Q(1, 2)), ident


def test_bqj_to_bql_boundary():
    # b -> 0 degenerates the expansion to the tautology P_n = P_n
    pt = make_point("big-q-jacobi", a=Q(1, 3), b=Q(1, 64), c=Q(-2, 3), q=Q(1, 2))
    e = MODIFIED_EXPANSIONS["bigqjacobi-to-bigqlaguerre"]
    terms = e.build(pt, 2, None)
    assert not modified_expansion_residual("bigqjacobi-to-bigqlaguerre", pt, 2)
    # all higher terms carry the factor (ab q^n)^k
    assert terms[1].coefficient(1)


def test_crosscheck_examples():
    bg, cg = toda_from_recurrence_crosscheck(make_point("charlier", a=Q(2)), Q(1, 3), 2)
    assert not bg and not cg
    rec = modified_recurrence(make_point("charlier", a=Q(2)), Q(1, 3), 2)
    assert rec.b[2] == GaussianRational(Q(8, 3))
    assert rec.c[2] == GaussianRational(Q(4, 3))
    # u = 1 is the undeformed family
    bg, cg = toda_from_recurrence_crosscheck(make_point("krawtchouk", p=Q(1, 2), N=4), Q(1), 1)
    assert not bg and not cg
    bg, cg = toda_from_recurrence_crosscheck(make_point("hermite"), Q(0), 3)
    assert not bg and not cg


def test_crosscheck_all_families():
    rng = Random(1111)
    for tag in TODA_SOLUTIONS:
        for _ in range(3):
            pt = sample_point(tag, rng)
            extra = sample_deformation(rng, pt)
            for n in range(1, flow_index(pt, 5) + 1):
                bg, cg = toda_from_recurrence_crosscheck(pt, extra, n)
                assert not bg and not cg, (tag, n)


def test_deformation_registry_matches_flows():
    # the six lattice families are exactly the ones with a registered
    # deformation; toda-crosscheck reads both, so a flow without one would be
    # a KeyError in every case
    deformed = {tag for tag, spec in FAMILIES.items() if spec.deformation is not None}
    assert set(TODA_SOLUTIONS) <= deformed, set(TODA_SOLUTIONS) - deformed
    assert deformed <= set(TODA_SOLUTIONS), deformed - set(TODA_SOLUTIONS)


def test_first_moment_routes_agree():
    # L~[x], b_0 of the deformed recurrence and b_0 of the closed-form flow are
    # one number; Krawtchouk has no raising chain, hence no moment functional
    rng = Random(1212)
    for tag, sol in TODA_SOLUTIONS.items():
        d = deformation(tag)
        for _ in range(4):
            pt = sample_point(tag, rng)
            s = sample_deformation(rng, pt)
            b_rec = modified_recurrence(pt, s, 1).b[0]
            v = sol.variable.read(d.image(pt, s)[0], s)
            b_flow = sol.b(0, pt)(v) / sol.den(pt)(v)
            assert b_rec == b_flow, (tag, pt, s)
            if FAMILIES[tag].raising is not None:
                assert modified_functional(pt, s, 1).moments[1] == b_rec, (tag, pt, s)
