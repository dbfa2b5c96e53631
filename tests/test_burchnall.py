"""Operational/expansion identities: generic engine, literal forms, oracles."""

import dataclasses
from random import Random

from askeykit.algebra import (
    GaussianRational,
    Poly,
    binomial,
    factorial,
    scalar,
    term_sum,
)
from askeykit.burchnall import (
    EXPANSIONS,
    closed_expansion_residual,
    chain_expansion_residual,
    expansion_term_gaps,
    feldheim_watson_coefficient,
    hermite_linearization_oracle,
    operational_residual,
    operational_sum,
    operational_terms,
    zassenhaus_series_residual,
)
from askeykit.families import FAMILIES, make_point, standard_poly
from askeykit.ops import ladder
from askeykit.sampling import sample_point, sample_rational

Q = scalar
x = Poly.x()


def _rand_f(rng, tag):
    return FAMILIES[tag].carrier.element([sample_rational(rng, -3, 3) for _ in range(5)])


def test_operational_hermite_example():
    pt = make_point("hermite")
    # (d/dx - 2x) x = 1 - 2x^2 = p_1 * x + p_0 * 1
    assert not operational_residual(pt, 1, x)
    assert not operational_residual(pt, 0, x ** 2 + 3)


def test_operational_all_variants():
    # zero for every family and variant, n <= 6, at 10 random parameter points
    rng = Random(101)
    for tag, spec in FAMILIES.items():
        if spec.raising is None:
            continue
        for _ in range(10):
            pt = sample_point(tag, rng)
            f = _rand_f(rng, tag)
            for var in spec.variants:
                for n in range(0, 7):
                    assert not operational_residual(pt, n, f, var.name), (tag, var.name, n)


def test_the_list_form_expands_each_f_as_its_own_call():
    # one pass over k for several f gives, term for term, the per-f expansions
    rng = Random(303)
    for tag, spec in FAMILIES.items():
        if spec.raising is None:
            continue
        pt = sample_point(tag, rng)
        fs = [_rand_f(rng, tag) for _ in range(3)]
        for var in spec.variants:
            for n in range(0, 4):
                expected = [operational_terms(pt, n, [f], var.name)[0] for f in fs]
                got = operational_terms(pt, n, fs, var.name)
                assert got == expected and all(len(t) == n + 1 for t in got), (tag, var.name, n)
    assert operational_terms(make_point("hermite"), 2, []) == []


def test_the_horner_sum_is_the_sum_of_the_terms():
    # operational_sum folds the pieces by Horner's rule in the weight steps and
    # operational_terms multiplies the ratios out: the two combiners of the one
    # k-th term give the same polynomial, for several f at once and n = 0
    rng = Random(404)
    for tag, spec in FAMILIES.items():
        if spec.raising is None:
            continue
        pt = sample_point(tag, rng)
        fs = [_rand_f(rng, tag) for _ in range(2)]
        for var in spec.variants:
            for n in range(0, 5):
                sums = operational_sum(pt, n, fs, var.name)
                assert sums == [term_sum(t) for t in operational_terms(pt, n, fs, var.name)], (tag, var.name, n)
    assert operational_sum(make_point("hermite"), 2, []) == []


def test_the_terms_past_the_window_are_zero():
    # the k-sum is folded over its window only, k up to the last nonzero
    # partial^k f, but operational_terms still gives all n + 1 terms: term k
    # is nonzero exactly where partial^k f is, and past it the zero partial^k f,
    # an element of the carrier (a SymLaurent zero among the Laurent terms)
    rng = Random(505)
    for tag, spec in FAMILIES.items():
        if spec.raising is None:
            continue
        pt = sample_point(tag, rng)
        f = spec.carrier.element([sample_rational(rng, -3, 3) for _ in range(3)])
        for var in spec.variants:
            for n in range(0, 6):
                window = ladder(var.op_spec(pt).partial, f, n)
                terms = operational_terms(pt, n, [f], var.name)[0]
                assert len(terms) == n + 1, (tag, var.name, n)
                assert [bool(t) for t in terms] == [bool(h) for h in window], (tag, var.name, n)
                assert all(isinstance(t, type(terms[0])) for t in terms), (tag, var.name, n)


def test_no_weight_step_is_built_past_the_window(monkeypatch):
    # with f = p_m the window ends at k = min(n, m), so a variant whose
    # weight_step raises at every j >= m still expands exactly
    def guarded(step, m):
        def weight_step(point, j):
            if j >= m:
                raise AssertionError(f"weight step {j} built past the window of p_{m}")
            return step(point, j)
        return weight_step

    rng = Random(606)
    for tag, spec in FAMILIES.items():
        if spec.raising is None:
            continue
        pt = sample_point(tag, rng)
        for m in range(0, 3):
            variants = tuple(dataclasses.replace(v, weight_step=guarded(v.weight_step, m)) for v in spec.variants)
            monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(spec, variants=variants))
            for var in variants:
                for n in range(m, m + 4):
                    assert not chain_expansion_residual(pt, n, m, var.name), (tag, var.name, n, m)
        monkeypatch.setitem(FAMILIES, tag, spec)


def test_chain_expansion_all_variants():
    rng = Random(202)
    for tag, spec in FAMILIES.items():
        if spec.raising is None:
            continue
        pt = sample_point(tag, rng)
        for var in spec.variants:
            for n in range(0, 4):
                for m in range(0, 3):
                    assert not chain_expansion_residual(pt, n, m, var.name), (tag, var.name, n, m)


def test_hermite_expansion_small():
    pt = make_point("hermite")
    e = EXPANSIONS["hermite-expansion"]
    lhs, terms = e.lhs(pt, 1, 1), e.build(pt, 1, 1)
    assert lhs == Poly([-2, 0, 4])
    assert terms[0] == Poly([0, 0, 4]) and terms[1] == Poly([-2])
    assert not closed_expansion_residual("hermite-expansion", pt, 1, 1)


def test_laguerre_expansion_small():
    pt = make_point("laguerre", nu=Q(1, 2))
    assert not closed_expansion_residual("laguerre-expansion", pt, 1, 1)
    assert not closed_expansion_residual("laguerre-expansion", pt, 1, 0)


def test_charlier_eta1_shifted_argument():
    pt = make_point("charlier", a=Q(3))
    assert not closed_expansion_residual("charlier-expansion-eta1", pt, 2, 1)


def _sample_for(ident, rng):
    return sample_point(EXPANSIONS[ident].family, rng)


def test_all_expansions_small_grid():
    rng = Random(303)
    for ident in EXPANSIONS:
        pt = _sample_for(ident, rng)
        for n in range(0, 4):
            for m in range(0, 4):
                assert not closed_expansion_residual(ident, pt, n, m), (ident, n, m)


def test_generic_vs_literal_agreement():
    # each literal k-term is the normalized engine k-term, n, m <= 4, two points each
    rng = Random(404)
    for ident in EXPANSIONS:
        for _ in range(2):
            pt = _sample_for(ident, rng)
            for n in range(5):
                for m in range(5):
                    gaps = expansion_term_gaps(ident, pt, n, m)
                    assert len(gaps) == n + 1 and not any(gaps), (ident, n, m)


def test_term_gaps_see_what_the_sum_hides(monkeypatch):
    # moving delta from the k = 0 term to the k = 1 term keeps the literal
    # sum, so its residual stays zero, but two of its terms now disagree
    e = EXPANSIONS["laguerre-expansion"]
    delta = Poly([Q(1, 7), 2])

    def moved(point, n, m, k):
        return e.term(point, n, m, k) + {0: delta, 1: -delta}.get(k, 0)

    monkeypatch.setitem(EXPANSIONS, e.id, dataclasses.replace(e, term=moved))
    pt = make_point("laguerre", nu=Q(1, 2))
    assert not closed_expansion_residual(e.id, pt, 2, 2)
    gaps = expansion_term_gaps(e.id, pt, 2, 2)
    assert gaps[0] == delta and gaps[1] == -delta and not gaps[2]


def test_the_left_side_reads_the_declared_prefactor(monkeypatch):
    # ((m+1)_n / n!) = binom(n+m, n) is the only record of the Laguerre left
    # side's scale, so declaring 1 instead must break the identity
    e = EXPANSIONS["laguerre-expansion"]
    monkeypatch.setitem(EXPANSIONS, e.id, dataclasses.replace(e, lhs_prefactor=lambda n, m: 1))
    assert closed_expansion_residual(e.id, make_point("laguerre", nu=Q(1, 2)), 1, 1)


def test_expansion_rhs_value_symmetry():
    # swapping (n, m) changes the written sum but not its value
    rng = Random(505)
    for ident in EXPANSIONS:
        e = EXPANSIONS[ident]
        pt = _sample_for(ident, rng)
        for n, m in [(1, 2), (3, 1)]:
            t1 = e.build(pt, n, m)
            t2 = e.build(pt, m, n)
            assert term_sum(t1) == term_sum(t2), (ident, n, m)


def test_linearization_oracle_matches_feldheim_watson():
    for m in range(0, 7):
        for n in range(0, 7):
            got = hermite_linearization_oracle(m, n)
            assert got == tuple(
                GaussianRational(feldheim_watson_coefficient(m, n, r))
                for r in range(min(m, n) + 1)
            )


def test_linearization_examples():
    # H1 H1 = H2 + 2 H0; H2 H1 = H3 + 4 H1
    assert hermite_linearization_oracle(1, 1) == (GaussianRational(1), GaussianRational(2))
    assert hermite_linearization_oracle(2, 1) == (GaussianRational(1), GaussianRational(4))
    assert hermite_linearization_oracle(0, 4) == (GaussianRational(1),)


def test_linearization_inverts_expansion():
    # substituting the linearization into the inverse expansion recollects H_(n+m)
    for n, m in [(1, 1), (2, 2), (3, 2), (4, 3)]:
        total = Poly.zero()
        for r in range(min(n, m) + 1):
            coef = Q(binomial(n, r) * binomial(m, r) * (-2) ** r * factorial(r))
            lin = hermite_linearization_oracle(n - r, m - r)
            acc = Poly.zero()
            for j, cf in enumerate(lin):
                acc = acc + standard_poly(make_point("hermite"), (n - r) + (m - r) - 2 * j) * cf
            total = total + acc * coef
        assert total == standard_poly(make_point("hermite"), n + m)


def test_zassenhaus_examples():
    assert not any(zassenhaus_series_residual(0, x))
    assert not any(zassenhaus_series_residual(1, Poly.one()))
    res = zassenhaus_series_residual(2, x)
    assert len(res) == 3 and not any(res)  # one residual per power t^0..t^2


def test_zassenhaus_random():
    rng = Random(606)
    for _ in range(3):
        f = Poly([sample_rational(rng, -3, 3) for _ in range(4)])
        assert not any(zassenhaus_series_residual(6, f))
