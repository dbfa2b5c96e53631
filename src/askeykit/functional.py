"""Normalized moment functionals built from the image of the raising operator.

No integral is ever evaluated: the functional L with L[1] = 1 and
L[p_n] = 0 for n >= 1, p_n = raise_chain(n), stands in for integration
against the orthogonality measure in every integrated identity.  Since
p_n = R_nu p_(n-1)(nu+sigma) and the p_(n-1)(nu+sigma), n <= N, span the
polynomials of degree < N, the chains p_1..p_N span the same space as
R_nu x^k, k < N; so L is recovered exactly from L[R_nu x^k] = 0 by a
triangular solve for its moments, with one raising operator and no chain.
The solve runs fraction-free on integers (Bareiss, 1968): the moments are
integer numerators over one denominator, and the result is the moment Poly
itself, so applying L is an integer dot product.
Total masses are never known, so adjointness across two measures is tested
through a fitted constant whose constancy over all test pairs is itself the
assertion.  A functional is built on each call and kept nowhere.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .algebra import GR_ONE, GR_ZERO, GaussianRational, Poly, _canon, term_sum
from .families import FAMILIES, ParamPoint, deformed_measure, shifted_point
from .burchnall import operational_terms
from .toda import MODIFIED_EXPANSIONS

__all__ = [
    "MomentFunctional",
    "PAIR_BUDGET",
    "build_functional",
    "hankel_determinant",
    "adjointness_check",
    "modified_functional",
    "toda_orthogonality_check",
]

PAIR_BUDGET = 6  # adjointness pairs the monomials x^i, x^j with i + j <= PAIR_BUDGET


def _dot(a, b) -> int:
    """Sum of a[k] * b[k] over the shorter of two integer sequences."""
    return sum(map(mul, a, b))


class MomentFunctional:
    """L[x^k] = moments[k] for k <= order, normalized so L[1] = 1.

    The moments are held as the coefficients of one Poly, so L[f] is an
    integer dot product; the order is kept beside it, since trailing moments
    can be zero (Hermite's odd ones).
    """

    __slots__ = ("moment_poly", "order")

    def __init__(self, moment_poly: Poly, order: int):
        self.moment_poly, self.order = moment_poly, order

    @property
    def moments(self) -> tuple:
        return tuple(self.moment_poly.coefficient(k) for k in range(self.order + 1))

    def apply(self, f: Poly, shift: int = 0) -> GaussianRational:
        """L[x^shift f]: the coefficients of f against the moments from shift on."""
        if shift < 0 or f.degree + shift > self.order:
            raise ValueError(f"functional built to order {self.order}, got degree {f.degree} + {shift}")
        m = self.moment_poly
        m_re, m_im = m.re[shift:], (m.im or ())[shift:]
        f_im = f.im or ()
        den = f.den * m.den
        re = _dot(f.re, m_re) - _dot(f_im, m_im)
        im = _dot(f.re, m_im) + _dot(f_im, m_re)
        return GaussianRational.from_parts(re, im, den)


def build_functional(point: ParamPoint, order: int) -> MomentFunctional:
    """Moments of the functional L with L[p_0] = 1 and L[p_j] = 0 for j >= 1.

    The chains p_j = raise_chain(j), 1 <= j <= order, span the image under
    R_nu of the polynomials of degree < order, since p_j = R_nu p_(j-1) at
    nu + sigma.  So the conditions are L[R_nu x^k] = 0 for k < order: with
    R_nu x^k of degree k + 1 they form a triangular system in the moments,
    solved in O(order^2) integer steps from order applications of one
    operator.

    The moments are integer numerators M_j over one denominator D.  With
    r = R_nu x^k read as integer numerators r_j (its own denominator
    cancels) and lead L = r_(k+1), the next moment is -S / (D L),
    S = sum_(j<=k) r_j M_j.  The earlier numerators are rescaled by
    |L| / gcd(L, S), and since the content of D and the M_j is 1 before the
    step, that one gcd is all there is to divide out.  The moments are real
    because an admissible point is real (only real coordinates are ordered)
    and a raising operator maps a real monomial to a real polynomial, a
    conjugate pair of taps folding to twice its real part; an image that is
    not real, or not of degree k + 1, is an error.  Orthogonality of the
    chains themselves is a separate check (tests/test_functional.py).
    Nothing is kept: no case asks for the same functional twice.
    """
    spec = FAMILIES[point.family]
    if spec.carrier.variable != Poly.x():
        raise ValueError(f"moment functionals need the full polynomial ladder; {point.family} lacks it")
    if spec.raising is None:
        raise ValueError(f"{point.family} has no raising-chain machinery")
    if not spec.admissible(point):
        raise ValueError(f"inadmissible parameter point {point}")
    raising = spec.raising_operator(point)
    moments, den = [1], 1  # moment k is moments[k] / den
    for k in range(order):
        r = raising(Poly.monomial(k))
        if r.degree != k + 1 or r.im:
            raise AssertionError(
                f"{point.family} raising operator maps x^{k} to {r}, not to a real polynomial of degree {k + 1}"
            )
        lead = r.re[-1]
        s = _dot(r.re, moments)
        scale = abs(lead) // gcd(lead, s)
        moments = [m * scale for m in moments]
        moments.append(-s * scale // lead)
        den *= scale
    return MomentFunctional(_canon(moments, None, den), order)


def hankel_determinant(L: MomentFunctional, size: int) -> GaussianRational:
    """det(moments[i+j])_{0<=i,j<size}, by exact Gaussian elimination."""
    if 2 * (size - 1) > L.order:
        raise ValueError("Hankel block exceeds the built moment order")
    moments = L.moments
    m = [[moments[i + j] for j in range(size)] for i in range(size)]
    det = GR_ONE
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return GR_ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, size):
            if not m[r][col]:
                continue
            factor = m[r][col] * inv
            for cc in range(col, size):
                m[r][cc] = m[r][cc] - factor * m[col][cc]
    return det


def adjointness_check(point: ParamPoint, n: int):
    """Integrated adjointness through normalized moment functionals.

    For monomial pairs f = x^i, g = x^j with i + j <= D = PAIR_BUDGET, compares
      LHS' = L_nu[(chain expansion of f) * g]   against
      RHS' = L_(nu+n sigma)[f * adj^n g],
    where adj is the family's exact adjoint lowering operator.  Demands
    (a) RHS' = 0 forces LHS' = 0 (in particular every g of degree < n), and
    (b) one constant rho fits LHS' = rho * RHS' across every remaining pair.

    Returns (rho, pairs, failures): the fitted constant (0 when no pair fed
    it), the number of pairs that did, and the failures, empty exactly when
    the check passes.  Each failure is (i, j, reason, value), where the
    nonzero value is the stray LHS' or the ratio's drift from rho.
    """
    spec = FAMILIES[point.family]
    if spec.adjoint is None:
        raise ValueError(f"{point.family} has no exact adjoint registered")
    adj = spec.adjoint(point)
    D = PAIR_BUDGET
    pt_shift = shifted_point(point, n)
    L_base = build_functional(point, D + n)  # expansion * x^j has degree <= D + n
    L_shift = build_functional(pt_shift, D)
    failures = []
    rho = None
    pairs = 0
    lowered = []  # adj^n x^j for j = 0..D
    for j in range(D + 1):
        g = Poly.monomial(j)
        for _ in range(n):
            g = adj(g)
        lowered.append(g)
    monomials = [Poly.monomial(i) for i in range(D + 1)]
    for i, terms in enumerate(operational_terms(point, n, monomials)):
        expansion = term_sum(terms)
        for j in range(D - i + 1):
            lhs = L_base.apply(expansion, j)
            rhs = L_shift.apply(lowered[j], i)
            if not rhs:
                if lhs:
                    failures.append((i, j, "rhs vanished but lhs did not", lhs))
                continue
            pairs += 1
            if rho is None:
                rho = lhs / rhs
            elif lhs != rho * rhs:  # exact, since rhs != 0
                failures.append((i, j, "mass ratio drifted", lhs / rhs - rho))
    return (rho if rho is not None else GR_ZERO, pairs, failures)


def modified_functional(point: ParamPoint, s, order: int, measure=deformed_measure) -> MomentFunctional:
    """Moment functional of a measure derived from point's, at deformation scalar s.

    `measure(point, s)` gives (image point, alpha, beta), by default the
    family's e^(-xt) deformation.  The base functional is built at the image
    point and composed with the affine change of variable:
    L~[x^k] = L'[(alpha x + beta)^k].
    """
    image, alpha, beta = measure(point, s)
    base = build_functional(image, order)
    x = Poly([beta, alpha])
    return MomentFunctional(Poly([base.apply(x ** k) for k in range(order + 1)]), order)


def toda_orthogonality_check(identity: str, point: ParamPoint, n: int, s=None) -> list:
    """The expansion-sum polynomial annihilates x^p, p < n, under the measure
    the expansion declares (ModifiedExpansion.measure); returns the list of
    L~[E_n x^p] values (all exactly zero)."""
    expansion = MODIFIED_EXPANSIONS[identity]
    E = term_sum(expansion.build(point, n, s))
    L = modified_functional(point, s, E.degree + max(n - 1, 0), expansion.measure)
    return [L.apply(E, p) for p in range(n)]
