"""Operational formulas and product-to-sum expansions, certified exactly.

The generic engine expands the length-n raising chain applied to any
polynomial as a weight-ratio sum; specializing the input to another family
member gives an expansion of p_(n+m) through shifted-parameter products.
Every catalogued identity is also transcribed literally from its textbook
closed form, and the two routes must agree k-term by k-term.
"""

from random import Random

from askeykit.algebra import Poly, scalar
from askeykit.burchnall import (
    EXPANSIONS,
    closed_expansion_residual,
    expansion_term_gaps,
    hermite_linearization_oracle,
    operational_residual,
    zassenhaus_series_residual,
)
from askeykit.families import make_point
from askeykit.sampling import sample_point

Q = scalar
x = Poly.x()

print("== The inverse of the Hermite linearization formula ==")
pt = make_point("hermite")
e = EXPANSIONS["hermite-expansion"]
lhs, terms = e.lhs(pt, 1, 1), e.build(pt, 1, 1)
print(f"  H_2 = {lhs}")
for k, t in enumerate(terms):
    print(f"  term k={k}: {t}")
print("  i.e. H_2 = H_1*H_1 - 2*1*1, the inverse of the linearization formula")

print()
print("== The linearization coefficients, recovered by brute-force expansion ==")
for m, n in [(1, 1), (2, 1), (2, 2)]:
    coeffs = hermite_linearization_oracle(m, n)
    print(f"  H_{m} * H_{n} -> coefficients of H_(m+n-2r): {[str(c) for c in coeffs]}")

print()
print("== Every identity in the catalog certifies at random rational points ==")
rng = Random(2024)
for ident, e in sorted(EXPANSIONS.items()):
    pt = sample_point(e.family, rng)
    worst = max(
        (1 if closed_expansion_residual(ident, pt, n, m) else 0)
        for n in range(4)
        for m in range(4)
    )
    gap = max(
        (1 if any(expansion_term_gaps(ident, pt, n, m)) else 0)
        for n in range(4)
        for m in range(4)
    )
    status = "residual 0, matches engine" if not (worst or gap) else "FAILED"
    print(f"  {ident:28s} {status}")

print()
print("== The operational formula holds for arbitrary polynomial inputs ==")
pt = make_point("jacobi", alpha=Q(1, 3), beta=Q(3, 4))
f = x ** 4 - 2 * x + 1
for n in range(5):
    assert not operational_residual(pt, n, f)
print("  jacobi chain expansion: residual 0 for n <= 4, f = x^4 - 2x + 1")

print()
print("== Operator exponential against its closed form, order by order ==")
res = zassenhaus_series_residual(6, x ** 3 - x)
print(f"  exp(t(d/dx - 2x)) f vs f(x+t)e^(-2xt-t^2): all {len(res)} t-coefficients zero: {not any(res)}")
