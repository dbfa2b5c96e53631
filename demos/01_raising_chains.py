"""Raising chains generate every family exactly.

Each family in the catalog carries a raising operator R_nu that maps
degree-n polynomials to degree-(n+1) polynomials while shifting the
parameter point.  Iterating the chain on the constant function 1 produces
the family, and a single exact scalar per degree relates the chain output
to the textbook hypergeometric form.
"""

from askeykit.algebra import scalar
from askeykit.families import (
    FAMILIES,
    make_point,
    normalization,
    raise_chain,
    recurrence_extract,
    standard_poly,
)

Q = scalar

print("== Hermite: chain vs closed form ==")
pt = make_point("hermite")
for n in range(5):
    chain = raise_chain(pt, n)
    std = standard_poly(pt, n)
    print(f"  n={n}:  chain = {chain}")
    assert std == chain * normalization(pt, n)
print("  (-1)^n * chain reproduces H_n exactly for every n above")

print()
print("== Laguerre at nu = 1/2 ==")
pt = make_point("laguerre", nu=Q(1, 2))
for n in range(4):
    print(f"  n!L_{n} = {raise_chain(pt, n)}")

print()
print("== The same normalization identity holds across the whole catalog ==")
points = {
    "jacobi": make_point("jacobi", alpha=Q(1, 3), beta=Q(3, 4)),
    "meixner": make_point("meixner", beta=Q(5, 2), c=Q(1, 3)),
    "charlier": make_point("charlier", a=Q(3)),
    "meixner-pollaczek": make_point("meixner-pollaczek", lam=Q(4, 3), phi=Q(2, 5)),
    "wilson": make_point("wilson", a=Q(1, 2), b=Q(3, 4), c=Q(5, 4), d=Q(2, 3)),
    "big-q-jacobi": make_point("big-q-jacobi", a=Q(1, 3), b=Q(1, 4), c=Q(-2, 3), q=Q(1, 2)),
    "askey-wilson": make_point("askey-wilson", a=Q(1, 3), b=Q(-1, 4), c=Q(1, 5), d=Q(2, 5), p=Q(1, 2)),
    "continuous-q-hermite": make_point("continuous-q-hermite", p=Q(2, 5)),
}
for tag, pt in points.items():
    top = 5 if FAMILIES[tag].carrier != "poly" else 7
    for n in range(top + 1):
        assert standard_poly(pt, n) == raise_chain(pt, n) * normalization(pt, n)
    print(f"  {tag:22s} standard == normalization * chain, n <= {top}")

print()
print("== Exact three-term recurrences drop out of the chains ==")
pt = make_point("meixner", beta=Q(5, 2), c=Q(1, 3))
rec = recurrence_extract(pt, 4)
for n in range(5):
    print(f"  n={n}: b_n = {rec.b[n]}, c_n = {rec.c[n]}")
print("  (matches (n + (n+beta)c)/(1-c) and n(n+beta-1)c/(1-c)^2 exactly)")
