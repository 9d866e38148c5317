"""Certify the relation catalog shipped in ``ocbord/data/rules.json``.

Every rule is checked:
  - both sides parse and have identical boundary objects,
  - both sides have equal invariant profiles (complete oracle for
    equality of the underlying cobordisms),
  - both sides evaluate to the same linear map under the matrix algebras
    n=2,3 (every colour variable sent to "*") and under a two-colour
    groupoid algebra for every assignment of colour variables.

Run ``python3 scripts/gen_rules.py``: it prints the rule count and either
``all rules verified`` or one ``FAIL <id>: <reason>`` line per failure,
exiting 1.  It writes nothing; ``certify(R)`` returns the failures of the
catalog ``R``.
"""

import itertools
import json
import os
import sys
from importlib import resources

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ocbord.dsl import _used_colors, parse
from ocbord.invariants import invariants, profile_key
from ocbord.tqft import (_recolored, builtin_groupoid_example,
                         builtin_matrix_example, evaluate)

R = json.loads(resources.files("ocbord").joinpath("data", "rules.json")
               .read_text("utf-8"))["rules"]


def certify(rules):
    """The failures of ``rules``: a list of (rule id, reason) pairs,
    empty when every rule holds."""
    mat = {n: builtin_matrix_example(n) for n in (2, 3)}
    grp = builtin_groupoid_example("pair_z2")
    ids = [r["id"] for r in rules]
    bad = [(rid, "duplicate rule id") for rid in sorted(set(ids))
           if ids.count(rid) > 1]
    for r in rules:
        lhs, rhs = parse(r["lhs"]), parse(r["rhs"])
        if lhs.source != rhs.source or lhs.target != rhs.target:
            bad.append((r["id"], "boundary mismatch"))
            continue
        lvs, rvs = _used_colors(lhs), _used_colors(rhs)
        if rvs - lvs:
            bad.append((r["id"], "rhs has colour vars missing from lhs"))
        if lvs - rvs:
            bad.append((r["id"], "lhs has colour vars missing from rhs"))
        if profile_key(invariants(lhs)) != profile_key(invariants(rhs)):
            bad.append((r["id"], "invariant profiles differ"))
            continue
        vs = sorted(lvs | rvs)
        star = dict.fromkeys(vs, "*")
        for n, alg in mat.items():
            if evaluate(_recolored(lhs, star), alg) != \
                    evaluate(_recolored(rhs, star), alg):
                bad.append((r["id"], f"matrix{n} evaluation differs"))
        for combo in itertools.product(grp.colors, repeat=len(vs)):
            env = dict(zip(vs, combo))
            if evaluate(_recolored(lhs, env), grp) != \
                    evaluate(_recolored(rhs, env), grp):
                bad.append((r["id"], f"groupoid evaluation differs at {env}"))
                break
    return bad


def main():
    bad = certify(R)
    print(f"{len(R)} rules")
    if bad:
        for rid, why in bad:
            print(f"FAIL {rid}: {why}")
        sys.exit(1)
    print("all rules verified")


if __name__ == "__main__":
    main()
