"""The rule catalog certifier: it reads the shipped catalog, which is in
canonical form, certifies every rule and refuses broken ones."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_the_script_certifies_and_writes_nothing():
    shipped = ROOT / "src" / "ocbord" / "data" / "rules.json"
    before = hashlib.sha256(shipped.read_bytes()).hexdigest()
    script = ROOT / "scripts" / "gen_rules.py"
    done = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "54 rules\nall rules verified\n", "")
    assert hashlib.sha256(shipped.read_bytes()).hexdigest() == before


def test_the_script_exits_1_on_a_broken_rule(monkeypatch, capsys):
    swap = _rule("window_swap")
    swap["rhs"] = swap["rhs"].replace("zip[b]\ncozip[b]", "zip[a]\ncozip[a]")
    monkeypatch.setattr(gen_rules, "R", [swap])
    with pytest.raises(SystemExit) as stop:
        gen_rules.main()
    assert stop.value.code == 1
    assert capsys.readouterr().out == (
        "1 rules\n"
        "FAIL window_swap: lhs has colour vars missing from rhs\n"
        "FAIL window_swap: invariant profiles differ\n")
