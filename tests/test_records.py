"""Records gate: every CLI-scale suite at seed 1 emits the pinned records.

The hash is the sha256 of the suite's `mtk verify <suite> --seed 1
--report jsonl` output.  A change that alters a record must say why and
update the pin.  Every suite, list-bounds included, runs at its CLI
defaults.

Each decided record whose relation is ==, <=, >= or < and whose two
sides print as values (p/q, inf, 0+) must also have the verdict that
relation gives on those printed values.
"""

import hashlib
import operator
from fractions import Fraction

import pytest

from mtk import verify
from mtk.extval import EPS, INF

PINNED = {
    "abm": "be0ccef7f26b2ee9984bc912e2ee1341f098a64388b54218f4703e4b45134c9d",
    "appendix-c": "5f94048e574701bfdb94c03ea9e096e3ef4148fea163a96c6fcc7afc1ed42857",
    "duality-chain": "eae8d2931017f6007c63831fed4392581a19629e2066ce45503b00989866ca72",
    "edmonds-k2": "8d7f5aeee98a3239b2c971fc57cf65bca55bb9a324de13e19cf02af8f9a8b375",
    "furedi-fks": "f7f6c847d8040134aacb4973612c908a9657f19716c9532786d6b21bcef04d8f",
    "list-bounds": "579a0a3955869d18f8d76b585dce293dbe36b5e7c0fac2c49e521f7217669cbc",
    "matdim": "f7e6783320b829ca7c07d55a7d74cff0092614a6325fc299c28668c273b611fa",
    "meshulam": "848d00e0c4b3f8d9fdd52e5544e118cb622ba30035148b3d506ff26817ca6be8",
    "pq-witnesses": "9d1bc9305c3bcc75cb4aa4f63a78b87e125ddeae68ad6b13d7b2bd36b57d9e64",
    "ratio-rq": "419d5ffa9805399a3f6a7e93ab4e2493fdad8c7f88a989bf4b9a4ceff37d5ba7",
    "seymour": "60a9a135613f3ce85df25620aca18e5b6a06cfe2c3361ea628a7e168bc9879d8",
    "sharpness": "125903df2cfcb1d5320ad91880bc7b05eb107dc40cc2b646e7b682ecf91ce821",
    "topological-hall": "6858adcfd3a959b8d67896ad64c3f8f707b804a1ff9f4996e28cbf3b361c96ef",
    "whitney": "2a6515f090f43186e1118fdb4c90742b6e15972eeb4df5a21cf6430f6a2aaafb",
    "williams": "4a06b94e33e5f974154e4d3fed13d8963b9245f35a59f9f2364c022376bc0452",
}

RELATIONS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _value(text):
    """The value a record side prints, or None for a description."""
    if text in ("inf", "0+"):
        return INF if text == "inf" else EPS
    try:
        return Fraction(text)
    except ValueError:
        return None


def test_every_suite_is_pinned():
    assert set(PINNED) == set(verify.SUITES)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_records_match_pin(name):
    records = verify.run_suite(name, seed=1)
    for r in records:
        lhs, rhs = _value(r.lhs), _value(r.rhs)
        if r.verdict == "skipped(cap)" or r.relation not in RELATIONS or None in (lhs, rhs):
            continue
        decided = "holds" if RELATIONS[r.relation](lhs, rhs) else "violated"
        assert r.verdict == decided, r
    text = "".join(r.to_json() + "\n" for r in records)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]
