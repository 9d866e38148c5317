"""Build and verify the relation catalog, then write data/rules.json.

Every rule is checked before being written:
  - both sides parse and have identical boundary objects,
  - both sides have equal invariant profiles (complete oracle for
    equality of the underlying cobordisms),
  - both sides evaluate to the same linear map under the matrix algebras
    n=2,3 (every colour variable sent to "*") and under a two-colour
    groupoid algebra for every assignment of colour variables.

Importing the module writes nothing: ``certify(R)`` returns the failures
of the catalog ``R``.
"""

import itertools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ocbord.dsl import _used_colors, parse
from ocbord.invariants import invariants, profile_key
from ocbord.tqft import (_recolored, builtin_groupoid_example,
                         builtin_matrix_example, evaluate)

R = []


def rule(rid, group, law, lhs, rhs):
    R.append({"id": rid, "group": group, "law": law, "lhs": lhs, "rhs": rhs})


# --- open symmetric Frobenius family -----------------------------------
rule("assoc_A", "symmFrobA", "open multiplication is associative",
     "colors a, b, c, d\nsource I[a,b], I[b,c], I[c,d]\n"
     "mu_A[a,b,c] | id:I[c,d]\nmu_A[a,c,d]\n",
     "colors a, b, c, d\nsource I[a,b], I[b,c], I[c,d]\n"
     "id:I[a,b] | mu_A[b,c,d]\nmu_A[a,b,d]\n")
rule("unitL_A", "symmFrobA", "the open unit is a left unit",
     "colors a, b\nsource I[a,b]\neta_A[a] | id:I[a,b]\nmu_A[a,a,b]\n",
     "colors a, b\nsource I[a,b]\n")
rule("unitR_A", "symmFrobA", "the open unit is a right unit",
     "colors a, b\nsource I[a,b]\nid:I[a,b] | eta_A[b]\nmu_A[a,b,b]\n",
     "colors a, b\nsource I[a,b]\n")
rule("coassoc_A", "symmFrobA", "open comultiplication is coassociative",
     "colors a, b, c, d\nsource I[a,d]\nDelta_A[a,c,d]\n"
     "Delta_A[a,b,c] | id:I[c,d]\n",
     "colors a, b, c, d\nsource I[a,d]\nDelta_A[a,b,d]\n"
     "id:I[a,b] | Delta_A[b,c,d]\n")
rule("counitL_A", "symmFrobA", "the open counit is a left counit",
     "colors a, b\nsource I[a,b]\nDelta_A[a,a,b]\neps_A[a] | id:I[a,b]\n",
     "colors a, b\nsource I[a,b]\n")
rule("counitR_A", "symmFrobA", "the open counit is a right counit",
     "colors a, b\nsource I[a,b]\nDelta_A[a,b,b]\nid:I[a,b] | eps_A[b]\n",
     "colors a, b\nsource I[a,b]\n")
rule("frobL_A", "symmFrobA",
     "splitting the left factor then multiplying equals multiplying "
     "then splitting",
     "colors a, b, c, d\nsource I[a,b], I[b,c]\n"
     "Delta_A[a,d,b] | id:I[b,c]\nid:I[a,d] | mu_A[d,b,c]\n",
     "colors a, b, c, d\nsource I[a,b], I[b,c]\n"
     "mu_A[a,b,c]\nDelta_A[a,d,c]\n")
rule("frobR_A", "symmFrobA",
     "splitting the right factor then multiplying equals multiplying "
     "then splitting",
     "colors a, b, c, d\nsource I[a,b], I[b,c]\n"
     "id:I[a,b] | Delta_A[b,d,c]\nmu_A[a,b,d] | id:I[d,c]\n",
     "colors a, b, c, d\nsource I[a,b], I[b,c]\n"
     "mu_A[a,b,c]\nDelta_A[a,d,c]\n")
rule("symm_A", "symmFrobA",
     "the counit pairing of the open algebra is symmetric",
     "colors a, b\nsource I[a,b], I[b,a]\nmu_A[a,b,a]\neps_A[a]\n",
     "colors a, b\nsource I[a,b], I[b,a]\ncross(I[a,b], I[b,a])\n"
     "mu_A[b,a,b]\neps_A[b]\n")

# --- closed commutative Frobenius family --------------------------------
rule("assoc_C", "commFrobC", "closed multiplication is associative",
     "source O, O, O\nmu_C | id:O\nmu_C\n",
     "source O, O, O\nid:O | mu_C\nmu_C\n")
rule("unitL_C", "commFrobC", "the closed unit is a left unit",
     "source O\neta_C | id:O\nmu_C\n", "source O\n")
rule("unitR_C", "commFrobC", "the closed unit is a right unit",
     "source O\nid:O | eta_C\nmu_C\n", "source O\n")
rule("coassoc_C", "commFrobC", "closed comultiplication is coassociative",
     "source O\nDelta_C\nDelta_C | id:O\n",
     "source O\nDelta_C\nid:O | Delta_C\n")
rule("counitL_C", "commFrobC", "the closed counit is a left counit",
     "source O\nDelta_C\neps_C | id:O\n", "source O\n")
rule("counitR_C", "commFrobC", "the closed counit is a right counit",
     "source O\nDelta_C\nid:O | eps_C\n", "source O\n")
rule("frobL_C", "commFrobC",
     "closed: splitting the left factor then multiplying equals "
     "multiplying then splitting",
     "source O, O\nDelta_C | id:O\nid:O | mu_C\n",
     "source O, O\nmu_C\nDelta_C\n")
rule("frobR_C", "commFrobC",
     "closed: splitting the right factor then multiplying equals "
     "multiplying then splitting",
     "source O, O\nid:O | Delta_C\nmu_C | id:O\n",
     "source O, O\nmu_C\nDelta_C\n")
rule("comm_C", "commFrobC", "closed multiplication is commutative",
     "source O, O\ncross(O, O)\nmu_C\n", "source O, O\nmu_C\n")

# --- zipper is an algebra map -------------------------------------------
rule("ziphom_mul", "zipHom",
     "the zipper turns closed multiplication into open multiplication",
     "source O, O\nmu_C\nzip[a]\n",
     "source O, O\nzip[a] | zip[a]\nmu_A[a,a,a]\n")
rule("ziphom_unit", "zipHom",
     "the zipper sends the closed unit to the open unit",
     "source\neta_C\nzip[a]\n", "source\neta_A[a]\n")

# --- zipped elements are central ----------------------------------------
rule("zipcenter", "knowledge",
     "a zipped element multiplies the same from either side, switching "
     "its zipper colour across the strand",
     "colors a, b\nsource O, I[a,b]\nzip[a] | id:I[a,b]\nmu_A[a,a,b]\n",
     "colors a, b\nsource O, I[a,b]\ncross(O, I[a,b])\n"
     "id:I[a,b] | zip[b]\nmu_A[a,b,b]\n")

# --- cozipper is dual to the zipper -------------------------------------
rule("zipdual", "cozipDual",
     "pairing a cozipped element against a closed element equals "
     "pairing against the zipped element",
     "source I[a,a], O\ncozip[a] | id:O\nmu_C\neps_C\n",
     "source I[a,a], O\nid:I[a,a] | zip[a]\nmu_A[a,a,a]\neps_A[a]\n")

# --- cardy ---------------------------------------------------------------
rule("cardy", "cardy",
     "cozip then zip equals the double twist: split, swap, multiply",
     "colors a, b\nsource I[b,b]\ncozip[b]\nzip[a]\n",
     "colors a, b\nsource I[b,b]\nDelta_A[b,a,b]\n"
     "cross(I[b,a], I[a,b])\nmu_A[a,b,a]\n")

# --- derived consequences ------------------------------------------------
rule("zigzag_open_l", "derived",
     "the counit pairing and the unit copairing satisfy the left "
     "zigzag identity",
     "colors a, b\nsource I[a,b]\nid:I[a,b] | eta_A[b]\n"
     "id:I[a,b] | Delta_A[b,a,b]\nmu_A[a,b,a] | id:I[a,b]\n"
     "eps_A[a] | id:I[a,b]\n",
     "colors a, b\nsource I[a,b]\n")
rule("zigzag_open_r", "derived",
     "the counit pairing and the unit copairing satisfy the right "
     "zigzag identity",
     "colors a, b\nsource I[b,a]\neta_A[b] | id:I[b,a]\n"
     "Delta_A[b,a,b] | id:I[b,a]\nid:I[b,a] | mu_A[a,b,a]\n"
     "id:I[b,a] | eps_A[a]\n",
     "colors a, b\nsource I[b,a]\n")
rule("zigzag_closed_l", "derived",
     "closed left zigzag identity for the pairing and copairing",
     "source O\nid:O | eta_C\nid:O | Delta_C\nmu_C | id:O\neps_C | id:O\n",
     "source O\n")
rule("zigzag_closed_r", "derived",
     "closed right zigzag identity for the pairing and copairing",
     "source O\neta_C | id:O\nDelta_C | id:O\nid:O | mu_C\nid:O | eps_C\n",
     "source O\n")
rule("pairing_assoc", "derived",
     "the counit pairing slides across a multiplication",
     "colors a, b, c\nsource I[a,b], I[b,c], I[c,a]\n"
     "mu_A[a,b,c] | id:I[c,a]\nmu_A[a,c,a]\neps_A[a]\n",
     "colors a, b, c\nsource I[a,b], I[b,c], I[c,a]\n"
     "id:I[a,b] | mu_A[b,c,a]\nmu_A[a,b,a]\neps_A[a]\n")
rule("copair_symm_open", "derived", "the open copairing is symmetric",
     "colors a, b\nsource\neta_A[a]\nDelta_A[a,b,a]\n"
     "cross(I[a,b], I[b,a])\n",
     "colors a, b\nsource\neta_A[b]\nDelta_A[b,a,b]\n")
rule("copair_symm_closed", "derived", "the closed copairing is symmetric",
     "source\neta_C\nDelta_C\ncross(O, O)\n",
     "source\neta_C\nDelta_C\n")
rule("zipdual_r", "derived",
     "duality of zip and cozip, closed element on the left",
     "source O, I[a,a]\nid:O | cozip[a]\nmu_C\neps_C\n",
     "source O, I[a,a]\nzip[a] | id:I[a,a]\nmu_A[a,a,a]\neps_A[a]\n")
rule("zipcodual_l", "derived",
     "cozipping the left leg of the open copairing gives the closed "
     "copairing with a zipped right leg",
     "source\neta_A[a]\nDelta_A[a,a,a]\ncozip[a] | id:I[a,a]\n",
     "source\neta_C\nDelta_C\nid:O | zip[a]\n")
rule("zipcodual_r", "derived",
     "cozipping the right leg of the open copairing gives the closed "
     "copairing with a zipped left leg",
     "source\neta_A[a]\nDelta_A[a,a,a]\nid:I[a,a] | cozip[a]\n",
     "source\neta_C\nDelta_C\nzip[a] | id:O\n")
rule("comul_from_pairing_l_open", "derived",
     "open comultiplication from the copairing on the right",
     "colors a, b, c\nsource I[a,c]\nDelta_A[a,b,c]\n",
     "colors a, b, c\nsource I[a,c]\nid:I[a,c] | eta_A[c]\n"
     "id:I[a,c] | Delta_A[c,b,c]\nmu_A[a,c,b] | id:I[b,c]\n")
rule("comul_from_pairing_r_open", "derived",
     "open comultiplication from the copairing on the left",
     "colors a, b, c\nsource I[a,c]\nDelta_A[a,b,c]\n",
     "colors a, b, c\nsource I[a,c]\neta_A[a] | id:I[a,c]\n"
     "Delta_A[a,b,a] | id:I[a,c]\nid:I[a,b] | mu_A[b,a,c]\n")
rule("comul_from_pairing_l_closed", "derived",
     "closed comultiplication from the copairing on the right",
     "source O\nDelta_C\n",
     "source O\nid:O | eta_C\nid:O | Delta_C\nmu_C | id:O\n")
rule("comul_from_pairing_r_closed", "derived",
     "closed comultiplication from the copairing on the left",
     "source O\nDelta_C\n",
     "source O\neta_C | id:O\nDelta_C | id:O\nid:O | mu_C\n")
rule("counit_to_cozip", "derived",
     "the open counit factors as cozip then closed counit",
     "source I[a,a]\neps_A[a]\n",
     "source I[a,a]\ncozip[a]\neps_C\n")
rule("comul_to_cozips", "derived",
     "a comultiplication with both legs cozipped equals cozip then "
     "closed comultiplication",
     "source I[a,a]\nDelta_A[a,a,a]\ncozip[a] | cozip[a]\n",
     "source I[a,a]\ncozip[a]\nDelta_C\n")
rule("handle_slide_mul_l", "derived",
     "a handle on the left factor slides below the multiplication",
     "source O, O\nDelta_C | id:O\nmu_C | id:O\nmu_C\n",
     "source O, O\nmu_C\nDelta_C\nmu_C\n")
rule("handle_slide_mul_r", "derived",
     "a handle on the right factor slides below the multiplication",
     "source O, O\nid:O | Delta_C\nid:O | mu_C\nmu_C\n",
     "source O, O\nmu_C\nDelta_C\nmu_C\n")
rule("handle_slide_comul_l", "derived",
     "a handle above a comultiplication slides onto its left leg",
     "source O\nDelta_C\nmu_C\nDelta_C\n",
     "source O\nDelta_C\nDelta_C | id:O\nmu_C | id:O\n")
rule("handle_slide_comul_r", "derived",
     "a handle above a comultiplication slides onto its right leg",
     "source O\nDelta_C\nmu_C\nDelta_C\n",
     "source O\nDelta_C\nid:O | Delta_C\nid:O | mu_C\n")
rule("window_slide_mul_l", "derived",
     "a window on the left factor slides below the multiplication",
     "source O, O\nzip[a] | id:O\ncozip[a] | id:O\nmu_C\n",
     "source O, O\nmu_C\nzip[a]\ncozip[a]\n")
rule("window_slide_mul_r", "derived",
     "a window on the right factor slides below the multiplication",
     "source O, O\nid:O | zip[a]\nid:O | cozip[a]\nmu_C\n",
     "source O, O\nmu_C\nzip[a]\ncozip[a]\n")
rule("window_slide_comul_l", "derived",
     "a window above a comultiplication slides onto its left leg",
     "source O\nzip[a]\ncozip[a]\nDelta_C\n",
     "source O\nDelta_C\nzip[a] | id:O\ncozip[a] | id:O\n")
rule("window_slide_comul_r", "derived",
     "a window above a comultiplication slides onto its right leg",
     "source O\nzip[a]\ncozip[a]\nDelta_C\n",
     "source O\nDelta_C\nid:O | zip[a]\nid:O | cozip[a]\n")
rule("window_handle_swap", "derived",
     "a window passes a handle on the same line",
     "source O\nDelta_C\nmu_C\nzip[a]\ncozip[a]\n",
     "source O\nzip[a]\ncozip[a]\nDelta_C\nmu_C\n")
rule("window_swap", "derived",
     "two windows on the same line commute",
     "colors a, b\nsource O\nzip[a]\ncozip[a]\nzip[b]\ncozip[b]\n",
     "colors a, b\nsource O\nzip[b]\ncozip[b]\nzip[a]\ncozip[a]\n")
rule("cocomm_C", "derived", "closed comultiplication is cocommutative",
     "source O\nDelta_C\ncross(O, O)\n", "source O\nDelta_C\n")
rule("cozip_mul_rot", "derived",
     "under a cozipper a product may be rotated, switching the "
     "cozipper colour",
     "colors a, b\nsource I[a,b], I[b,a]\nmu_A[a,b,a]\ncozip[a]\n",
     "colors a, b\nsource I[a,b], I[b,a]\ncross(I[a,b], I[b,a])\n"
     "mu_A[b,a,b]\ncozip[b]\n")
rule("cozip_absorb_zip", "derived",
     "a zipped right factor under a cozipper moves to the closed side",
     "source I[a,a], O\nid:I[a,a] | zip[a]\nmu_A[a,a,a]\ncozip[a]\n",
     "source I[a,a], O\ncozip[a] | id:O\nmu_C\n")
rule("window_counit", "derived",
     "a window capped by the closed counit equals the open counit "
     "after the zipper",
     "source O\nzip[a]\ncozip[a]\neps_C\n",
     "source O\nzip[a]\neps_A[a]\n")
rule("window_unit", "derived",
     "a window fed by the closed unit equals the cozipped open unit",
     "source\neta_C\nzip[a]\ncozip[a]\n",
     "source\neta_A[a]\ncozip[a]\n")


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
    out = os.path.join(os.path.dirname(__file__), "..", "src", "ocbord",
                       "data", "rules.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"rules": R}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
