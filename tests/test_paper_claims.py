"""A ledger from the claims of the source paper's abstract (PAPER.md) to the
identities `askeykit verify` certifies.

CLAIMS maps each claim to the identity ids of `cli.IDENTITIES` that certify
it, each with the families it certifies: the families it is sampled at, or
for a modified-weight expansion the family of its declared measure.  NAMED
lists the families the abstract names for each claim.  OPEN lists each
named family that no identity certifies yet, with the identity kind that
would certify it and the ROADMAP item that adds it.
"""

from random import Random

import pytest

from askeykit.cli import IDENTITIES, SuiteConfig, run_verify
from askeykit.sampling import sample_deformation, sample_point
from askeykit.toda import MODIFIED_EXPANSIONS

RAISING = (
    "hermite", "laguerre", "jacobi", "meixner", "charlier", "meixner-pollaczek", "wilson",
    "big-q-jacobi", "big-q-laguerre", "askey-wilson", "continuous-q-hermite",
)
TODA = ("hermite", "laguerre", "charlier", "meixner", "meixner-pollaczek", "krawtchouk")

CLAIMS = {
    # "Burchnall's method ... is extended to all polynomial families in the
    # Askey-scheme and its q-analogue"
    "every-family": {"chain-expansion": RAISING, "operational": RAISING},
    # "The resulting expansion formulas are made explicit for several
    # families corresponding to measures with infinite support, including
    # the Wilson and Askey-Wilson polynomials"
    "explicit-expansions": {
        "hermite-expansion": ("hermite",),
        "laguerre-expansion": ("laguerre",),
        "meixner-expansion-eta1": ("meixner",),
        "meixner-expansion-etaS": ("meixner",),
        "charlier-expansion-eta1": ("charlier",),
        "charlier-expansion-etaS": ("charlier",),
        "mp-expansion": ("meixner-pollaczek",),
        "wilson-expansion": ("wilson",),
        "aw-expansion": ("askey-wilson",),
    },
    # "An integrated version gives ... alternate expression for orthogonal
    # polynomials with respect to a modified weight ... Hermite, Laguerre,
    # Meixner, Charlier, Meixner-Pollaczek and big q-Jacobi polynomials and
    # big q-Laguerre polynomials"
    "modified-weight": {
        "hermite-toda": ("hermite",),
        "laguerre-toda": ("laguerre",),
        "meixner-toda-eta1": ("meixner",),
        "meixner-toda-etaS": ("meixner",),
        "charlier-toda-eta1": ("charlier",),
        "charlier-toda-etaS": ("charlier",),
        "mp-toda": ("meixner-pollaczek",),
        "bigqjacobi-to-bigqlaguerre": ("big-q-jacobi",),
        "bigqlaguerre-inverse": ("big-q-laguerre",),
        "bigqlaguerre-second": ("big-q-laguerre",),
    },
    # "expansions for the orthogonal polynomials corresponding to the
    # Toda-modification of the weight ... that correspond to known explicit
    # solutions for the Toda lattice, i.e., for Hermite, Laguerre, Charlier,
    # Meixner, Meixner-Pollaczek and Krawtchouk polynomials"
    "toda-modification": {
        "hermite-toda": ("hermite",),
        "laguerre-toda": ("laguerre",),
        "charlier-toda-eta1": ("charlier",),
        "meixner-toda-eta1": ("meixner",),
        "mp-toda": ("meixner-pollaczek",),
        "toda-flows": TODA,
        "toda-crosscheck": TODA,
    },
    # the opening: Burchnall's method inverts the Feldheim-Watson
    # linearization of a product of two Hermite polynomials
    "inverts-feldheim-watson": {"hermite-expansion": ("hermite",)},
}

NAMED = {
    "every-family": (
        "hermite", "laguerre", "meixner", "charlier", "meixner-pollaczek", "wilson",
        "askey-wilson", "big-q-jacobi", "big-q-laguerre", "krawtchouk",
    ),
    "explicit-expansions": ("wilson", "askey-wilson"),
    "modified-weight": (
        "hermite", "laguerre", "meixner", "charlier", "meixner-pollaczek", "big-q-jacobi",
        "big-q-laguerre",
    ),
    "toda-modification": TODA,
    "inverts-feldheim-watson": ("hermite",),
}

# (claim, family, identity kind that would certify it, ROADMAP item that adds it)
OPEN = [
    ("every-family", "krawtchouk", "chain-expansion", "item 2: Krawtchouk declares no raising chain"),
    ("toda-modification", "krawtchouk", "modified", "item 2: no krawtchouk-toda expansion"),
    ("inverts-feldheim-watson", "hermite", "linearization", "item 7: the linearization side is unchecked"),
]


def _certified_families(ident: str) -> set:
    """The families ident is sampled at, and the family of a modified expansion's measure."""
    families = set(IDENTITIES[ident][1])
    e = MODIFIED_EXPANSIONS.get(ident)
    if e is not None:
        rng = Random(0)
        point = sample_point(e.family, rng)
        families.add(e.measure(point, sample_deformation(rng, point))[0].family)
    return families


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_every_listed_identity_certifies_its_families(claim):
    for ident, families in CLAIMS[claim].items():
        assert ident in IDENTITIES, ident
        assert set(families) <= _certified_families(ident), ident


def test_every_listed_identity_passes_at_seed_7_max_3():
    idents = sorted(set().union(*CLAIMS.values()))
    report = run_verify(SuiteConfig(identities=idents, seed=7, max_n=3, max_m=3))
    assert {c["identity"] for c in report["cases"]} == set(idents)
    assert [c["id"] for c in report["cases"] if not c["pass"]] == []


@pytest.mark.parametrize("claim", sorted(NAMED))
def test_every_named_family_is_listed_or_open(claim):
    listed = set().union(*CLAIMS[claim].values())
    still_open = {family for c, family, *_ in OPEN if c == claim}
    assert set(NAMED[claim]) - listed - still_open == set()


@pytest.mark.parametrize("claim, family, kind, item", OPEN)
def test_every_open_entry_is_still_absent(claim, family, kind, item):
    # once an identity of that kind covers the family, move it into CLAIMS
    assert family in NAMED[claim]
    assert not [i for i, (k, fams) in IDENTITIES.items() if k == kind and family in fams], item
