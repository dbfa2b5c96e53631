"""The mutation table: each row is one deliberate fault and the check that must see it.

A row names a module under src/askeykit/, an exact text that occurs once in
it, the text that replaces it, and its killer: REPORT (`askeykit verify
--seed 7 --max-n 3 --max-m 3` fails at least one case) or the id of one
tier-1 test, relative to the repository root, that fails on the mutated
copy.  A row that a refactor makes stale fails tests/test_mutants.py; a new
oracle adds a row that only it kills.
"""

from collections import namedtuple

Row = namedtuple("Row", "what file old new killer")

REPORT = "report"

ROWS = [
    Row(
        "_cmul: the sign of the i^2 term", "algebra.py",
        "    return _axpy(re, 1, _conv(ai, bi), -1), im",
        "    return _axpy(re, 1, _conv(ai, bi), 1), im",
        REPORT,
    ),
    Row(
        "_shift_real: the sign of the shift", "algebra.py",
        "            acc = g[j] + b * acc",
        "            acc = g[j] - b * acc",
        REPORT,
    ),
    Row(
        "_canon: the content gcd taken without im", "algebra.py",
        "    g = gcd(den, *re, *(im or ()))",
        "    g = gcd(den, *re)",
        REPORT,
    ),
    Row(
        "pochhammer: off by one for k > 3", "algebra.py",
        "        out = out * (a + j)",
        "        out = out * (a + j + (k > 3))",
        REPORT,
    ),
    Row(
        "horner_series: the offset step doubled", "algebra.py",
        "        pos -= o",
        "        pos -= 2 * o",
        REPORT,
    ),
    Row(
        "_pfq: the top parameters shifted for j > 4", "families.py",
        "        nums = [zp, *((r + j * e, i, e) for r, i, e in tops)]",
        "        nums = [zp, *((r + (j + (j > 4)) * e, i, e) for r, i, e in tops)]",
        REPORT,
    ),
    Row(
        "Poly.__bool__: false on nonzero constants", "algebra.py",
        "        return bool(self.re)",
        "        return len(self.re) > 1",
        REPORT,
    ),
    Row(
        "q_pochhammer: the sign of the imaginary part", "algebra.py",
        "        tr, ti = pd - pr, -pi",
        "        tr, ti = pd - pr, pi",
        "tests/test_algebra.py::test_q_products_match_pair_oracle",
    ),
    Row(
        "feldheim_watson_coefficient: r! read as (r + 1)!", "burchnall.py",
        "2 ** r * factorial(r)",
        "2 ** r * factorial(r + 1)",
        "tests/test_acceptance.py::test_criterion_7_oracles",
    ),
    Row(
        "Poly.__eq__: the imaginary parts ignored", "algebra.py",
        "            return self.re == other.re and self.im == other.im and self.den == other.den",
        "            return self.re == other.re and self.den == other.den",
        "tests/test_algebra.py::test_equality_reads_the_imaginary_parts",
    ),
    Row(
        "_std_big_q_jacobi: q^(n+1) read as q^(n+2)", "families.py",
        "a * b * q ** (n + 1)]",
        "a * b * q ** (n + 2)]",
        "tests/test_families.py::test_kls_equations_hold_on_the_standard_forms[big-q-jacobi]",
    ),
    Row(
        "big q-Laguerre: the shift leaves c unshifted", "families.py",
        'tag="big-q-laguerre", shift_rule=_sh_mul("q", ("a", "c"))',
        'tag="big-q-laguerre", shift_rule=_sh_mul("q", ("a",))',
        "tests/test_families.py::test_a_specialization_shifts_as_its_parent_does",
    ),
    Row(
        "_term_hermite_toda: the literal term read off the raising chain", "toda.py",
        "    coef = _Q(binomial(n, k)) * t ** k\n    return standard_poly(point, n - k) * coef",
        "    coef = _Q(binomial(n, k)) * t ** k\n    from .families import normalization, raise_chain\n\n"
        "    return raise_chain(point, n - k) * (coef * normalization(point, n - k))",
        "tests/test_imports.py::test_literal_transcriptions_never_reach_the_engine",
    ),
    Row(
        "sampling: a private helper left behind with no caller", "sampling.py",
        "def _sample(rng: Random, param: Param, values: dict):",
        "def _leftover(values):\n    return sorted(values)\n\n\ndef _sample(rng: Random, param: Param, values: dict):",
        "tests/test_imports.py::test_every_private_function_has_a_caller",
    ),
    Row(
        "_std_laguerre: the 1F1 argument read as -x", "families.py",
        "[nu + 1], arg=((0, 1), None, 1)",
        "[nu + 1], arg=((0, -1), None, 1)",
        "tests/test_families.py::test_classical_forms_match_sympy",
    ),
    Row(
        "_std_askey_wilson: the top a b c d q^(n-1) read as a b c d q^n", "families.py",
        "    tops = [q ** -n, a * b * c * d * q ** (n - 1)]",
        "    tops = [q ** -n, a * b * c * d * q ** n]",
        REPORT,
    ),
    Row(
        "DifferenceOperator: the fold rule flipped to the pairs whose sum is 2i Im", "algebra.py",
        "s == (-1 if ui else 1)",
        "s == (1 if ui else -1)",
        "tests/test_ops.py::test_declared_conjugate_pairs_fold",
    ),
    Row(
        "DifferenceOperator: a pair folded as 2 Re whatever its sign", "algebra.py",
        "s == (-1 if ui else 1)",
        "s in (1, -1)",
        "tests/test_ops.py::test_difference_operator_matches_its_taps",
    ),
]
