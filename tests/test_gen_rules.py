"""The rule catalog generator: it certifies every rule of the shipped
catalog, writes it byte for byte, and refuses broken rules."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "scripts") not in sys.path:
    sys.path.insert(0, str(ROOT / "scripts"))
import gen_rules  # noqa: E402  (importing it writes nothing)


def _rule(rid):
    return dict(next(r for r in gen_rules.R if r["id"] == rid))


def test_the_catalog_is_the_shipped_rules_file():
    shipped = ROOT / "src" / "ocbord" / "data" / "rules.json"
    text = json.dumps({"rules": gen_rules.R}, indent=1) + "\n"
    assert text == shipped.read_text(encoding="utf-8")


def test_every_rule_is_certified():
    assert len(gen_rules.R) == 54
    assert gen_rules.certify(gen_rules.R) == []


def test_mutated_rules_are_refused():
    # both right-hand windows coloured a: the colour b is lost, and with
    # it a window of the invariant profile
    swap = _rule("window_swap")
    swap["rhs"] = swap["rhs"].replace("zip[b]\ncozip[b]", "zip[a]\ncozip[a]")
    assert gen_rules.certify([swap]) == [
        ("window_swap", "lhs has colour vars missing from rhs"),
        ("window_swap", "invariant profiles differ")]
    # splitting to b instead of d changes the target
    frob = _rule("frobL_A")
    frob["rhs"] = frob["rhs"].replace("Delta_A[a,d,c]", "Delta_A[a,b,c]")
    assert gen_rules.certify([frob]) == [("frobL_A", "boundary mismatch")]
    assoc = _rule("assoc_A")
    assert gen_rules.certify([assoc, assoc]) == [
        ("assoc_A", "duplicate rule id")]
