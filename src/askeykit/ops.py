"""Shift, difference, divided-difference and q-difference operators, and the
generalized Leibniz rules they satisfy.

Every operator is a declared value.  Each partial on polynomials in x (the
shifts, delta_x, delta_x2 and D_q) is an algebra.DifferenceOperator, the
Askey-Wilson divided difference on symmetric Laurent polynomials an
algebra.LaurentOperator, each built from integer taps.  The fixed ones are
built once at import, over the shift substitutions stated here (_UP, _DOWN,
_HALF_UP, _HALF_DOWN, which the raising operators of `families` share); D_q
and the Askey-Wilson D_q are built for their base from its integer parts
(`q_derivative_operator(q)`, `aw_Dq_operator(p)`).  The Askey-Wilson spec's
steps are dilations of z, applied by Laurent.scale_var as `aw_eta` is, which
the literal transcriptions call.

Every carrier is a declared value too: POLY (polynomials in x), EVEN (even
polynomials in x, graded by x^2) and LAURENT (symmetric Laurent polynomials
in z, x = (z + 1/z)/2).  A Carrier holds what the engines ask of it, so no
other module tests which carrier it has.

Each Leibniz scheme is a factorization

    partial^n (f*g) = sum_k alpha(n,k) * eta^k(partial^(n-k) f) * (T_{k,n} g)

with T_{k,n} = tau^(n-k) o partial^k, so one ladder [g, partial g, ...,
partial^n g] serves every k.  In every scheme eta and tau are affine steps
x |-> a*x + b with a = 1 or b = 0 (a shift, a dilation or the identity;
z |-> a*z on the Laurent carrier), and a spec declares alpha and the two
steps as values: `Carrier.power` applies any power of a step.  The schemes
without a base are constants.  The backward-shift and q-derivative rules
admit two inequivalent factorizations each, so the catalog carries eight
entries over six underlying operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import (
    GR_HALF_I,
    DifferenceOperator,
    Laurent,
    LaurentOperator,
    Poly,
    _real_parts,
    binomial,
    chebyshev_lift,
    product,
    q_binomial,
    scalar,
    term_sum,
)

__all__ = [
    "Carrier",
    "POLY",
    "EVEN",
    "LAURENT",
    "translate",
    "backward_shift",
    "neg_forward_shift",
    "delta_x",
    "delta_x2",
    "q_derivative_operator",
    "aw_eta",
    "aw_Dq_operator",
    "OperatorSpec",
    "ladder",
    "leibniz_check",
    "operator_catalog",
    "DERIVATIVE_SPEC",
    "BACKWARD_ETA1_SPEC",
    "BACKWARD_ETAS_SPEC",
    "DELTA_X_SPEC",
    "DELTA_X2_SPEC",
    "qderiv_Tq_spec",
    "qderiv_I_spec",
    "aw_spec",
]


class Carrier(str):
    """The space a raising operator acts on, equal to its name.

    An element is a polynomial in x with only the powers that are multiples
    of `grade` (x^grade counts as degree 1), put through `lift`.  `one` and
    `variable` are the lifts of 1 and of x^grade, the recurrence variable.
    The lift takes x^d to `lead`^d z^d + ..., which `monic` divides out.
    `compose(f, a, b)` is f(a*x + b); on the Laurent carrier it is f(a*z)
    and b is 0.
    """

    def __new__(
        cls, name: str, grade: int = 1, lift: Callable = lambda f: f, lead=1,
        compose: Callable = lambda f, a, b: f.compose_affine(a, b),
    ):
        self = super().__new__(cls, name)
        self.grade, self.lift, self.lead, self.compose = grade, lift, scalar(lead), compose
        self.one = lift(Poly.one())
        self.variable = lift(Poly.monomial(grade))
        return self

    def element(self, coeffs):
        """The element with x^k coefficient coeffs[k]; those of the other powers are dropped."""
        return self.lift(Poly([c if k % self.grade == 0 else 0 for k, c in enumerate(coeffs)]))

    def degree(self, f) -> int:
        """Degree in the carrier's grading (x^2 has degree 1 on the even carrier); -1 for zero."""
        return f.degree // self.grade if f else -1

    def monic(self, f):
        """f scaled so that its x^degree coefficient is 1."""
        return f * (f.lead.inverse() * self.lead ** f.degree)

    def power(self, f, step, j: int):
        """f under the j-th power of the affine step (a, b), x |-> a^j*x + j*b
        for a = 1 or b = 0; f itself for j = 0 or the identity step (1, 0)."""
        a, b = step
        if not j or (a == 1 and not b):
            return f
        return self.compose(f, scalar(a) ** j, j * b)


POLY = Carrier("poly")
EVEN = Carrier("even", grade=2)
LAURENT = Carrier("laurent", lift=chebyshev_lift, lead=scalar(1, 2), compose=lambda f, a, b: f.scale_var(a))


def translate(f: Poly, c) -> Poly:
    """f(x + c)."""
    return f.compose_affine(1, c)


# The substitutions x |-> alpha*x + beta of the shifts, as parts (ar, ai, br, bi, e).
_UP = (1, 0, 1, 0, 1)  # x |-> x + 1
_DOWN = (1, 0, -1, 0, 1)  # x |-> x - 1
_HALF_UP = (2, 0, 0, 1, 2)  # x |-> x + i/2
_HALF_DOWN = (2, 0, 0, -1, 2)  # x |-> x - i/2

# The fixed difference operators, as taps (substitution, multiplier numerators, pair flag) over a denominator.
backward_shift = DifferenceOperator(((None, (1,), None, 0), (_DOWN, (-1,), None, 0)), 1)  # f(x) - f(x-1)
neg_forward_shift = DifferenceOperator(((_UP, (-1,), None, 0), (None, (1,), None, 0)), 1)  # f(x) - f(x+1)
# (f(x + i/2) - f(x - i/2)) / i = -i f(x + i/2) + i f(x - i/2), a folded pair
delta_x = DifferenceOperator(((_HALF_UP, (0,), (-1,), 1), (_HALF_DOWN, (0,), (1,), 2)), 1)
delta_x2 = DifferenceOperator(((_HALF_UP, (0,), (-1,), 1), (_HALF_DOWN, (0,), (1,), 2)), 2, True)  # the same over 2x


def q_derivative_operator(q) -> DifferenceOperator:
    """D_q: (f(x) - f(qx)) / ((1-q)x), which sends x^n to [n]_q x^(n-1), built from q = r/d."""
    r, d = _real_parts(q)
    return DifferenceOperator(((None, (d,), None, 0), ((r, 0, 0, 0, d), (-d,), None, 0)), d - r, True)


def aw_eta(f: Laurent, p, power: int = 1) -> Laurent:
    """z |-> p^power * z on the symmetric carrier; breaks symmetry on purpose."""
    return f.scale_var(scalar(p) ** power)


def aw_Dq_operator(p) -> LaurentOperator:
    """The Askey-Wilson D_q, q = p^2: (f(pz) - f(z/p)) / ((1/2)(p - 1/p)(z - 1/z)), built from p = r/d."""
    r, d = _real_parts(p)
    taps = ((r, d, (2 * r * d,), None), (d, r, (-2 * r * d,), None))
    return LaurentOperator(taps, 0, r * r - d * d, (-1, (-1, 0, 1)))  # over z - 1/z


@dataclass(frozen=True)
class OperatorSpec:
    """One Leibniz factorization: the operator, alpha and the affine steps (a, b) of eta and tau.

    eta^k is the k-th power of `eta_step` (k may be negative), and
    T_{k,n} = tau^(n-k) o partial^k is applied to h = partial^k g, so the g
    side needs no more than one ladder.  The identity step is (1, 0).
    """

    partial: Callable
    alpha: Callable[[int, int], object]  # alpha(n, k)
    eta_step: tuple = (1, 0)
    twist_step: tuple = (1, 0)
    carrier: Carrier = POLY

    def eta(self, f, k: int):
        """eta^k f."""
        return self.carrier.power(f, self.eta_step, k)

    def twist(self, h, k: int, n: int):
        """T_{k,n} g for h = partial^k g: tau^(n-k) h."""
        return self.carrier.power(h, self.twist_step, n - k)


def ladder(op: Callable, f, n: int) -> list:
    """[f, op f, ..., op^n f]; op is never applied to a zero, which is repeated to the end."""
    out = [f]
    for _ in range(n):
        out.append(op(out[-1]) if out[-1] else out[-1])
    return out


def leibniz_check(spec: OperatorSpec, f, g, n: int):
    """partial^n(fg) minus its Leibniz expansion; exactly zero when the rule holds.

    The expansion sums only its window, the k at which both partial^(n-k) f
    and partial^k g are nonzero; every other term vanishes.
    """
    lhs = ladder(spec.partial, f * g, n)[n]
    fs = ladder(spec.partial, f, n)
    gs = ladder(spec.partial, g, n)
    terms = [
        product(spec.alpha(n, k), spec.eta(fs[n - k], k), spec.twist(gs[k], k, n))
        for k in range(n + 1) if fs[n - k] and gs[k]
    ]
    return lhs - term_sum(terms) if terms else lhs


DERIVATIVE_SPEC = OperatorSpec(Poly.derivative, binomial)

# nabla^n(fg) = sum binom(n,k) (nabla^(n-k) f) (S^(n-k) nabla^k g), S f = f(x-1)
BACKWARD_ETA1_SPEC = OperatorSpec(backward_shift, binomial, twist_step=(1, -1))

# nabla^n(fg) = sum binom(n,k) (S^k nabla^(n-k) f) (nabla^k g)
BACKWARD_ETAS_SPEC = OperatorSpec(backward_shift, binomial, eta_step=(1, -1))

# (d/dx)-analogue on a vertical strip; eta shifts x down by i/2, tau up.
DELTA_X_SPEC = OperatorSpec(delta_x, binomial, eta_step=(1, -GR_HALF_I), twist_step=(1, GR_HALF_I))

# Same shape for the Wilson operator, on even polynomials.
DELTA_X2_SPEC = OperatorSpec(delta_x2, binomial, eta_step=(1, -GR_HALF_I), twist_step=(1, GR_HALF_I), carrier=EVEN)


# The q-based specs are built on each call; an operational expansion builds
# its variant's spec once, with the k-th pieces for every f it expands
# (burchnall._pieces).
def qderiv_Tq_spec(q) -> OperatorSpec:
    return OperatorSpec(q_derivative_operator(q), lambda n, k: q_binomial(n, k, q), eta_step=(q, 0))


def qderiv_I_spec(q) -> OperatorSpec:
    return OperatorSpec(q_derivative_operator(q), lambda n, k: q_binomial(n, k, q), twist_step=(q, 0))


def aw_spec(p) -> OperatorSpec:
    # alpha: the q-binomial at q = p^2 times q^(k(k-n)/2), an integer power of the base p
    p = scalar(p)
    return OperatorSpec(
        aw_Dq_operator(p), lambda n, k: q_binomial(n, k, p * p) * p ** (k * (k - n)),
        eta_step=(p, 0), twist_step=(1 / p, 0), carrier=LAURENT,
    )


def operator_catalog(q, p) -> dict:
    """All eight Leibniz factorizations, D_q's at base q and Askey-Wilson's at base p^2."""
    return {
        "derivative": DERIVATIVE_SPEC,
        "backward-eta1": BACKWARD_ETA1_SPEC,
        "backward-etaS": BACKWARD_ETAS_SPEC,
        "delta-x": DELTA_X_SPEC,
        "delta-x2": DELTA_X2_SPEC,
        "qderiv-Tq": qderiv_Tq_spec(q),
        "qderiv-I": qderiv_I_spec(q),
        "aw": aw_spec(p),
    }
