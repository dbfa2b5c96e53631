"""Pinned contracts: the report bytes of a small full suite, the output of
`askeykit toda` and `askeykit list`, and the admissibility verdicts at the
edges of every family's parameter domain."""

import hashlib
from random import Random

import pytest

from askeykit.algebra import rational_str, scalar
from askeykit.burchnall import EXPANSIONS
from askeykit.cli import SuiteConfig, _subseed, main, render_report, run_verify
from askeykit.families import FAMILIES, make_point
from askeykit.sampling import sample_deformation, sample_point
from askeykit.toda import MODIFIED_EXPANSIONS

Q = scalar
EPS = Q(1, 64)

GOLDEN_SHA256 = "3340cc8c1b7b2c53861ac7641638a96dce156f4687ab1f46019abbf2bc64d47b"
DEEP_SHA256 = "dc78c3c28256ea06edaee492f2c250bf9e9cfd2641e86b61a69aa525db222064"
HELD_OUT_DEEP_SHA256 = "daf8d4b912b681387823e82ef378a7fc7a063280d0a70c305244cc397fbd03d2"
SUITE_SHA256 = "720f68a2f5d22b50403589ed4534c983e48d07337a704ef732551c918af3f789"
AW_DEEP_SHA256 = "bc3e9a20c88ed31513869311e84e891ed816d7d51e6602bad99bca848339209c"
BIG_Q_DEEP_SHA256 = "b82e167f3f32d70c707b0a6c1268001dd47f901fa17529bf7d8042aff6b831a6"
HELD_OUT_SHA256 = "40865180fc205fe482a2fe824477341b21daa219e2ef0ff19ee746d238bbba2e"
# `verify --seed S --identities adjointness --max-n 7 --max-m 7`: at n = 7 the
# window of the adjointness expansion, k up to the top monomial degree
# PAIR_BUDGET = 6, is shorter than the chain
ADJOINTNESS_DEEP_SHA256 = {
    7: "693e06cf7cef51594c5a37cb053f4cf01094eb099626c3827e0da5de393e897c",
    2718: "7443c04db22b92229d23fb8a589e0b83c8ca88cef424e3d63e3005ec6ef37685",
}
# `askeykit toda --seed S`: each flow's b_n and c_n in lowest terms; seed 1
# samples krawtchouk(p=16/41, N=8), whose b_4 reduces to the constant 4
TODA_SHA256 = {
    1: "115b054562b9814b030241f4b3cfcd32a864d803a67fcad3fe6d67236f3e76df",
    2718: "a3bbeba6e7c1316e8956f5d8011bacd0ed5bf1f14ea743da176c8250cbf5c859",
}
# `askeykit list`: every family with its parameters and carrier, every identity
LIST_SHA256 = "1b6501f6708e4f052661b80d8601b594ba6c3b1f671a9b2ea660fcb0a9e37806"
# `askeykit expand ID --n 3 [--m 2]` for every identity of both registries, in
# sorted order, at a point (and deformation scalar) sampled per identity:
# every k-term of every literal expansion, 171 lines
EXPAND_ALL_SHA256 = "f241106ab997200c681ad429b507b8724ac1bc9899d737a944eb28a5dacacac9"


def test_golden_report_bytes():
    # 322 cases over all 13 families; any change in sampling, admissibility or
    # residual evaluation shows up here
    report = run_verify(SuiteConfig(seed=7, max_n=2, max_m=2))
    assert report["totals"] == {"cases": 322, "passed": 322, "failed": 0}
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


def test_deep_chain_report_bytes():
    # 405 cases of raising chains and operator iteration up to degree 10:
    # large dense polynomials, Laurent chains and complex i/2 shifts
    config = SuiteConfig(
        seed=7, identities=["chain-expansion", "operational", "leibniz"], max_n=8, max_m=2
    )
    report = run_verify(config)
    assert report["totals"] == {"cases": 405, "passed": 405, "failed": 0}
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == DEEP_SHA256


def test_held_out_deep_chain_report_bytes():
    # `verify --seed 2718 --identities chain-expansion operational leibniz
    # --max-n 8 --max-m 2`: the deep-chain report at a seed that no other pin samples
    config = SuiteConfig(
        seed=2718, identities=["chain-expansion", "operational", "leibniz"], max_n=8, max_m=2
    )
    report = run_verify(config)
    assert report["totals"] == {"cases": 405, "passed": 405, "failed": 0}
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == HELD_OUT_DEEP_SHA256


def test_suite_report_bytes():
    # 1096 cases at degree 5: the only pinned report that reaches the closed
    # hypergeometric forms and the adjointness functionals at that degree
    report = run_verify(SuiteConfig(seed=7, max_n=5, max_m=5))
    assert report["totals"]["cases"] == 1096
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_SHA256


def test_held_out_suite_report_bytes():
    # `verify --seed 2718 --max-n 5 --max-m 5`: the degree-5 suite at a seed
    # that no other pin samples
    report = run_verify(SuiteConfig(seed=2718, max_n=5, max_m=5))
    assert report["totals"] == {"cases": 1096, "passed": 1096, "failed": 0}
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == HELD_OUT_SHA256


def test_aw_deep_report_bytes():
    # `verify --seed 7 --max-n 7 --max-m 7 --families askey-wilson
    # continuous-q-hermite`: Askey-Wilson chains up to degree 14, beyond the
    # deep-chain report's degree 10
    config = SuiteConfig(seed=7, families=["askey-wilson", "continuous-q-hermite"], max_n=7, max_m=7)
    report = run_verify(config)
    assert report["totals"] == {"cases": 272, "passed": 272, "failed": 0}
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == AW_DEEP_SHA256


def test_big_q_deep_report_bytes():
    # `verify --seed 7 --max-n 7 --max-m 7 --families big-q-jacobi
    # big-q-laguerre`: big q-Laguerre chains up to degree 14, beyond every
    # other pin
    config = SuiteConfig(seed=7, families=["big-q-jacobi", "big-q-laguerre"], max_n=7, max_m=7)
    report = run_verify(config)
    assert report["totals"] == {"cases": 310, "passed": 310, "failed": 0}
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == BIG_Q_DEEP_SHA256


@pytest.mark.parametrize("seed", sorted(ADJOINTNESS_DEEP_SHA256))
def test_adjointness_deep_report_bytes(seed):
    config = SuiteConfig(seed=seed, identities=["adjointness"], max_n=7, max_m=7)
    report = run_verify(config)
    assert report["totals"] == {"cases": 56, "passed": 56, "failed": 0}
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == ADJOINTNESS_DEEP_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(TODA_SHA256))
def test_toda_output_bytes(seed, capsys):
    assert main(["toda", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TODA_SHA256[seed]


def test_list_output_bytes(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_SHA256


def test_expand_output_bytes(capsys):
    out = []
    for ident in sorted({**EXPANSIONS, **MODIFIED_EXPANSIONS}):
        classical = ident in EXPANSIONS
        e = EXPANSIONS.get(ident) or MODIFIED_EXPANSIONS[ident]
        rng = Random(_subseed(7, f"expand/{ident}"))
        point = sample_point(e.family, rng)
        values = point.as_dict()
        if not classical:
            s = sample_deformation(rng, point)
            if s is not None:
                values[FAMILIES[e.family].deformation.scalar.name] = s
        params = [a for name, v in values.items() for a in ("--param", f"{name}={rational_str(v)}")]
        m = ["--m", "2"] if classical else []
        assert main(["expand", ident, "--n", "3", *m, *params]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == EXPAND_ALL_SHA256


# An interior point of each family; each row below moves one parameter.
BASE = {
    "hermite": {},
    "laguerre": {"nu": Q(1, 2)},
    "jacobi": {"alpha": Q(1, 2), "beta": Q(1, 3)},
    "meixner": {"beta": Q(2), "c": Q(1, 2)},
    "charlier": {"a": Q(2)},
    "meixner-pollaczek": {"lam": Q(1), "phi": Q(1, 2)},
    "wilson": {"a": Q(1, 2), "b": Q(1, 3), "c": Q(1, 4), "d": Q(1, 5)},
    "big-q-jacobi": {"a": Q(1, 2), "b": Q(1, 3), "c": Q(-1), "q": Q(1, 2)},
    "big-q-laguerre": {"a": Q(1, 2), "c": Q(-1), "q": Q(1, 2)},
    "askey-wilson": {"a": Q(1, 2), "b": Q(1, 3), "c": Q(-1, 4), "d": Q(1, 5), "p": Q(1, 2)},
    "continuous-q-hermite": {"p": Q(1, 2)},
    "krawtchouk": {"p": Q(1, 2), "N": 4},
}

# (family, overrides, admissible): inside, on and just outside every bound
BOUNDARY_TABLE = [
    ("hermite", {}, True),
    ("laguerre", {"nu": Q(-1) + EPS}, True),
    ("laguerre", {"nu": Q(-1)}, False),
    ("laguerre", {"nu": Q(-1) - EPS}, False),
    ("laguerre", {"nu": Q(1000)}, True),
    ("jacobi", {"alpha": Q(-1) + EPS}, True),
    ("jacobi", {"alpha": Q(-1)}, False),
    ("jacobi", {"alpha": Q(-1) - EPS}, False),
    ("jacobi", {"beta": Q(-1) + EPS}, True),
    ("jacobi", {"beta": Q(-1)}, False),
    ("jacobi", {"beta": Q(-1) - EPS}, False),
    ("meixner", {"beta": EPS}, True),
    ("meixner", {"beta": Q(0)}, False),
    ("meixner", {"beta": -EPS}, False),
    ("meixner", {"c": EPS}, True),
    ("meixner", {"c": Q(0)}, False),
    ("meixner", {"c": -EPS}, False),
    ("meixner", {"c": 1 - EPS}, True),
    ("meixner", {"c": Q(1)}, False),
    ("meixner", {"c": 1 + EPS}, False),
    ("charlier", {"a": EPS}, True),
    ("charlier", {"a": Q(0)}, False),
    ("charlier", {"a": -EPS}, False),
    ("meixner-pollaczek", {"lam": EPS}, True),
    ("meixner-pollaczek", {"lam": Q(0)}, False),
    ("meixner-pollaczek", {"lam": -EPS}, False),
    ("meixner-pollaczek", {"phi": EPS}, True),
    ("meixner-pollaczek", {"phi": Q(0)}, False),
    ("meixner-pollaczek", {"phi": -EPS}, False),
    ("meixner-pollaczek", {"phi": Q(1000)}, True),
    ("wilson", {"a": EPS}, True),
    ("wilson", {"a": Q(0)}, False),
    ("wilson", {"b": Q(0)}, False),
    ("wilson", {"c": Q(0)}, False),
    ("wilson", {"d": Q(0)}, False),
    ("wilson", {"d": -EPS}, False),
    ("big-q-jacobi", {"q": EPS}, True),
    ("big-q-jacobi", {"q": Q(0)}, False),
    ("big-q-jacobi", {"q": 1 - EPS}, True),
    ("big-q-jacobi", {"q": Q(1)}, False),
    ("big-q-jacobi", {"q": 1 + EPS}, False),
    ("big-q-jacobi", {"a": Q(2) - EPS}, True),
    ("big-q-jacobi", {"a": Q(2)}, False),  # a = 1/q
    ("big-q-jacobi", {"a": Q(2) + EPS}, False),
    ("big-q-jacobi", {"a": Q(0)}, False),
    ("big-q-jacobi", {"a": EPS}, True),
    ("big-q-jacobi", {"b": Q(2) - EPS}, True),
    ("big-q-jacobi", {"b": Q(2)}, False),
    ("big-q-jacobi", {"b": Q(0)}, False),
    ("big-q-jacobi", {"q": Q(3, 4), "a": Q(4, 3)}, False),  # a = 1/q at another q
    ("big-q-jacobi", {"q": Q(3, 4), "a": Q(5, 4)}, True),
    ("big-q-jacobi", {"c": -EPS}, True),
    ("big-q-jacobi", {"c": Q(0)}, False),
    ("big-q-jacobi", {"c": EPS}, False),
    ("big-q-jacobi", {"c": Q(-1000)}, True),
    ("big-q-laguerre", {"q": Q(0)}, False),
    ("big-q-laguerre", {"q": Q(1)}, False),
    ("big-q-laguerre", {"a": Q(2) - EPS}, True),
    ("big-q-laguerre", {"a": Q(2)}, False),
    ("big-q-laguerre", {"a": Q(0)}, False),
    ("big-q-laguerre", {"c": -EPS}, True),
    ("big-q-laguerre", {"c": Q(0)}, False),
    ("askey-wilson", {"p": EPS}, True),
    ("askey-wilson", {"p": Q(0)}, False),
    ("askey-wilson", {"p": 1 - EPS}, True),
    ("askey-wilson", {"p": Q(1)}, False),
    ("askey-wilson", {"a": Q(0)}, False),
    ("askey-wilson", {"b": Q(0)}, True),
    ("askey-wilson", {"c": Q(0)}, True),
    ("askey-wilson", {"d": Q(0)}, True),
    ("askey-wilson", {"a": 1 - EPS}, True),
    ("askey-wilson", {"a": Q(1)}, False),
    ("askey-wilson", {"a": -1 + EPS}, True),
    ("askey-wilson", {"a": Q(-1)}, False),
    ("askey-wilson", {"b": Q(-1)}, False),
    ("askey-wilson", {"c": Q(1)}, False),
    ("askey-wilson", {"d": -1 - EPS}, False),
    ("continuous-q-hermite", {"p": EPS}, True),
    ("continuous-q-hermite", {"p": Q(0)}, False),
    ("continuous-q-hermite", {"p": Q(1)}, False),
    ("krawtchouk", {"p": EPS}, True),
    ("krawtchouk", {"p": Q(0)}, False),
    ("krawtchouk", {"p": Q(1)}, False),
    ("krawtchouk", {"N": 0}, False),
    ("krawtchouk", {"N": 1}, True),
    ("krawtchouk", {"N": -1}, False),
]


def test_boundary_table_covers_every_family():
    assert {row[0] for row in BOUNDARY_TABLE} == set(FAMILIES) == set(BASE)


@pytest.mark.parametrize("family,overrides,verdict", BOUNDARY_TABLE)
def test_admissibility_boundary(family, overrides, verdict):
    point = make_point(family, **{**BASE[family], **overrides})
    assert FAMILIES[family].admissible(point) is verdict
