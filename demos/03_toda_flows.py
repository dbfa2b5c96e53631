"""Closed-form lattice flows and the deformed-weight expansions behind them.

Multiplying an orthogonality weight by e^(-xt) makes the monic recurrence
coefficients flow by

    c_n' = c_n (b_(n-1) - b_n),    b_n' = c_n - c_(n+1).

For six families the deformed measure stays inside the family, so b_n(t)
and c_n(t) have closed forms.  Written in a substitution variable v
(u = e^(-t), or T = tan(phi - t/2)) as b_n = B_n/D and c_n = C_n/D^2 over
one declared denominator D(v), both lattice equations become polynomial
identities once D is cleared, and they reduce to zero exactly.
"""

from random import Random

from askeykit.algebra import scalar
from askeykit.families import FAMILIES, deformation, make_point
from askeykit.functional import toda_orthogonality_check
from askeykit.sampling import sample_deformation, sample_point
from askeykit.toda import (
    MODIFIED_EXPANSIONS,
    TODA_SOLUTIONS,
    flow_coefficient_strs,
    modified_expansion_residual,
    toda_from_recurrence_crosscheck,
    toda_residuals,
)

Q = scalar

# what each deformation scalar stands for
SCALAR_MEANING = {"t": "t", "u": "e^(-t)", "r": "tan(t/4)"}

print("== The six closed-form flows ==")
points = {
    "hermite": make_point("hermite"),
    "laguerre": make_point("laguerre", nu=Q(1, 2)),
    "charlier": make_point("charlier", a=Q(3)),
    "meixner": make_point("meixner", beta=Q(5, 2), c=Q(1, 3)),
    "meixner-pollaczek": make_point("meixner-pollaczek", lam=Q(4, 3), phi=Q(2, 5)),
    "krawtchouk": make_point("krawtchouk", p=Q(1, 2), N=6),
}
for tag, pt in points.items():
    sol = TODA_SOLUTIONS[tag]
    n = 2
    b, c = flow_coefficient_strs(sol, n, pt)
    print(f"  {tag:18s} [{sol.variable.tag:9s}]  b_2 = {b}   c_2 = {c}")
    top = FAMILIES[tag].top(pt)
    nmax = 8 if top is None else top - 1
    assert not any(r for n in range(1, nmax + 1) for r in toda_residuals(sol, n, pt))
    print(f"  {'':18s} both lattice equations: residual 0 for n <= {nmax}")

print()
print("== Two independent routes to the flowed coefficients agree ==")
rng = Random(7)
for tag, pt in points.items():
    name = deformation(tag).scalar.name
    extra = sample_deformation(rng, pt)
    label = f"{SCALAR_MEANING[name]} = {extra}"
    gaps = [toda_from_recurrence_crosscheck(pt, extra, n) for n in range(1, 5)]
    ok = all(not b and not c for b, c in gaps)
    print(f"  {tag:18s} recurrence extraction vs closed form at {label}: {'agree' if ok else 'DISAGREE'}")

print()
print("== Deformed-weight expansions and their orthogonality ==")
for ident in (
    "hermite-toda", "laguerre-toda", "meixner-toda-eta1", "meixner-toda-etaS",
    "charlier-toda-eta1", "charlier-toda-etaS", "mp-toda",
):
    e = MODIFIED_EXPANSIONS[ident]
    pt = sample_point(e.family, rng)
    s = sample_deformation(rng, pt)
    assert all(not modified_expansion_residual(ident, pt, n, s) for n in range(6))
    residuals = toda_orthogonality_check(ident, pt, 3, s)
    print(f"  {ident:22s} expansion residual 0 (n <= 5); deformed functional kills x^p, p < 3: "
          f"{all(not r for r in residuals)}")

print()
print("== The q-exponential analogues for big q-Jacobi / big q-Laguerre ==")
pt = make_point("big-q-jacobi", a=Q(1, 3), b=Q(1, 4), c=Q(-2, 3), q=Q(1, 2))
for ident in ("bigqjacobi-to-bigqlaguerre", "bigqlaguerre-inverse", "bigqlaguerre-second"):
    assert all(not modified_expansion_residual(ident, pt, n) for n in range(6))
    print(f"  {ident:28s} residual 0 for n <= 5")
