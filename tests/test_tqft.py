"""Exact-rational evaluation and the algebra axiom checker."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import ocbord.tqft as tqft
from ocbord.diagram import (Cross, DiagramTerm, Gen, OcbordError, Seg,
                            canonical_key, identity_term, tensor,
                            to_port_graph)
from ocbord.dsl import parse, parse_file
from ocbord.normalform import normal_form
from ocbord.rewrite import rules
from ocbord.tqft import (
    BUILTIN_ALGEBRAS,
    EVAL_DIM_CAP,
    Groupoid,
    KFA,
    LinearMap,
    builtin_algebra,
    builtin_groupoid_example,
    builtin_matrix_example,
    check_axioms,
    evaluate,
    groupoid_algebra,
    load_kfa,
    save_kfa,
)

from helpers import (axiom_terms_reference, component_count, join_reference,
                     kron, matmul, mutate_algebra, random_term, recolor,
                     scan_contraction_plan, window_strip)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the ladder workload's walk generator)


# ---------------------------------------------------------------------------
# LinearMap


def test_linear_map_basics():
    m = LinearMap(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): Fraction(1, 3)})
    assert m.entry(1, 1) == Fraction(1, 3)
    assert m.to_rows() == [[1, 2], [0, Fraction(1, 3)]]
    i2 = LinearMap.identity(2)
    assert matmul(i2, m) == m == matmul(m, i2)
    with pytest.raises(ValueError):
        LinearMap(1, 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        matmul(i2, LinearMap.identity(3))


def test_linear_map_tensor_is_left_factor_major():
    a = LinearMap(1, 1, {(0, 0): 2})
    b = LinearMap(2, 2, {(0, 0): 1, (1, 1): 3})
    ab = kron(a, b)
    assert ab.rows == 2 and ab.cols == 2
    assert ab.to_rows() == [[2, 0], [0, 6]]
    e01 = LinearMap(2, 1, {(1, 0): 1})
    assert kron(e01, e01).entry(3, 0) == 1


# ---------------------------------------------------------------------------
# Evaluation


def test_identity_and_cross_evaluate_to_permutations():
    alg = builtin_matrix_example(2)
    seg = Seg.I("*", "*")
    assert evaluate(identity_term((seg,)), alg) == LinearMap.identity(4)
    swap = DiagramTerm((seg, Seg.O()), ((Cross(seg, Seg.O()),),))
    m = evaluate(swap, alg)
    assert m.rows == m.cols == 4
    assert matmul(m, evaluate(DiagramTerm((Seg.O(), seg),
                                          ((Cross(Seg.O(), seg),),)), alg)) \
        == LinearMap.identity(4)


def test_functorial_in_slicing():
    alg = builtin_matrix_example(2)
    rng = random.Random(51)
    for _ in range(20):
        t = random_term(rng, max_gens=12, max_width=5, connected=False)
        if len(t.slices) < 2:
            continue
        cut = rng.randrange(1, len(t.slices))
        top = DiagramTerm(t.source, t.slices[:cut])
        bot = DiagramTerm(top.target, t.slices[cut:])
        assert evaluate(t, alg) == matmul(evaluate(bot, alg),
                                          evaluate(top, alg))


def test_monoidal_in_tensor():
    alg = builtin_matrix_example(2)
    rng = random.Random(52)
    for _ in range(12):
        a = random_term(rng, max_gens=6, max_width=3, connected=False)
        b = random_term(rng, max_gens=6, max_width=3, connected=False)
        assert evaluate(tensor(a, b), alg) \
            == kron(evaluate(a, alg), evaluate(b, alg))


def test_open_zigzag_is_identity():
    t = parse_file(CORPUS / "zigzag.ocd")
    alg = builtin_groupoid_example("pair_z2")
    d = alg.dims[("A", "a", "b")]
    assert evaluate(t, alg) == LinearMap.identity(d)
    mono = recolor(t)
    assert evaluate(mono, builtin_matrix_example(3)) == LinearMap.identity(9)


def test_closed_zigzag_is_identity():
    text = ("source O\n"
            "id:O | eta_C\n"
            "id:O | Delta_C\n"
            "mu_C | id:O\n"
            "eps_C | id:O\n")
    t = parse(text)
    for name in ("matrix2", "groupoid-pair_z2", "groupoid-s3"):
        alg = builtin_algebra(name)
        assert evaluate(t, alg) == LinearMap.identity(alg.dims["C"]), name


def test_zip_lands_in_the_centre():
    # zip;mu = crossed zip;mu for every builtin (the knowledge axiom,
    # exercised through the evaluator rather than the checker)
    lhs = parse("source O, I\nzip | id:I\nmu_A\n")
    rhs = parse("source O, I\ncross(O, I)\nid:I | zip\nmu_A\n")
    for name in BUILTIN_ALGEBRAS:
        alg = builtin_algebra(name)
        if alg.colors != ("*",):
            continue
        assert evaluate(lhs, alg) == evaluate(rhs, alg), name


def test_join_equals_the_product_reference():
    # random sparse tensors on disjoint legs, leg-less ones among them,
    # with empty data (a zero scalar when leg-less) and leg-less-only
    # lists; each leg is a row wire, a column wire or both, in a random
    # port order
    rng = random.Random(46)
    cases = [([], {}), ([([], {})], {}), ([([], {(): Fraction(2)})], {}),
             ([([], {(): Fraction(2)}), ([], {(): Fraction(-1, 3)})], {}),
             ([([0], {(1,): Fraction(1)}), ([], {})], {0: 2})]
    for _ in range(400):
        tensors, dims = [], {}
        for _ in range(rng.randint(1, 5)):
            k = rng.choice((0, 0, 1, 2, 3))
            legs = list(range(len(dims), len(dims) + k))
            dims.update((l, rng.randint(1, 3)) for l in legs)
            data = {tuple(rng.randrange(dims[l]) for l in legs):
                    Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
                    for _ in range(rng.randint(0, 4))}
            tensors.append((legs, data))
        cases.append((tensors, dims))
    ports = random.Random(47)
    for tensors, dims in cases:
        place = {l: [0, 0] for l in dims}
        sides = {l: ports.choice(((0,), (1,), (0, 1))) for l in dims}
        for side in (0, 1):
            wires = [l for l in dims if side in sides[l]]
            ports.shuffle(wires)
            p = 1
            for l in reversed(wires):
                place[l][side] = p
                p *= dims[l]
        data = tqft._join(tensors, place)
        ref = join_reference(tensors, place)
        assert list(data.items()) == list(ref.items()), tensors


def test_evaluate_with_the_product_join(monkeypatch):
    # the corpus under every builtin, with _join and with its reference
    results = []
    for use_reference in (False, True):
        if use_reference:
            monkeypatch.setattr(tqft, "_join", join_reference)
        got = []
        for f in sorted(CORPUS.glob("*.ocd")):
            t = parse_file(f)
            for name in BUILTIN_ALGEBRAS:
                alg = builtin_algebra(name)
                try:
                    got.append(evaluate(recolor(t) if alg.colors == ("*",)
                                        else t, alg))
                except OcbordError as e:
                    got.append(str(e))
        results.append(got)
    assert results[0] == results[1]
    assert sum(isinstance(r, LinearMap) for r in results[0]) >= 60


def test_dimension_cap_is_enforced():
    alg = builtin_matrix_example(3)
    t = parse_file(CORPUS / "figure1.ocd")
    # four interval factors of dimension nine each exceed the cap
    assert 9 ** 4 > EVAL_DIM_CAP
    with pytest.raises(OcbordError):
        evaluate(t, alg)


def test_colour_mismatch_is_an_error():
    t = parse("colors a, b\nsource I[a,b]\nid:I[a,b]\n")
    with pytest.raises(OcbordError):
        evaluate(t, builtin_matrix_example(2))


def _network(t, alg):
    tensors, wire_dim = tqft._tensor_network(to_port_graph(t), alg)
    return [legs for legs, _ in tensors], wire_dim


def test_contraction_drops_entries_that_cancel():
    # x0 - x1 against x0 + x1: the partial sums 1 then 0 leave no entry
    assert tqft._contract((["x"], {(0,): 1, (1,): -1}),
                          (["x"], {(0,): 1, (1,): 1})) == ([], {})


def test_heap_plan_equals_the_scan():
    # the acceptance criterion-3 sample and its normal forms, long walks,
    # a deep strip, and diagrams with wires straight from source to target
    rng = random.Random(314159)
    terms = []
    for _ in range(500):
        t = random_term(rng, max_gens=25, max_width=6)
        terms += [t, normal_form(t)]
    terms += [parse(gen.ladder_walk(n, str(k)).text()) for k, n in
              enumerate((60, 80, 100, 100, 100, 100, 100, 100, 100, 100,
                         120, 141))]
    seg = Seg.I()
    delta = parse("source O\nDelta_C\n")
    bare = [identity_term((seg, Seg.O(), seg)),
            tensor(identity_term((seg,)), delta, identity_term((Seg.O(),)))]
    terms += bare
    m1, m2 = builtin_matrix_example(1), builtin_matrix_example(2)
    # every leg space is 1 under matrix1, so each step is decided by ties;
    # the strip's scan is the slow part and runs under matrix1 only
    cases = [(m1, window_strip(300))] + [
        (alg, t) for alg in (m1, m2) for t in terms]
    for k, (alg, t) in enumerate(cases):
        legs, wire_dim = _network(t, alg)
        assert tqft._contraction_plan(legs, wire_dim) \
            == scan_contraction_plan(legs, wire_dim), (alg.name, k)
    # the one-leg diagonal tensors of bare wires are in no pair; the
    # join still carries them to both boundaries
    for t, wires in zip(bare, (3, 2)):
        legs, wire_dim = _network(t, m2)
        plan = tqft._contraction_plan(legs, wire_dim)
        diag = [i for i, ls in enumerate(legs)
                if len(ls) == 1 and ls[0][0] == "src"]
        assert len(diag) == wires
        assert not {i for pair in plan for i in pair} & set(diag)
    c = LinearMap.identity(m2.dims["C"])
    assert evaluate(bare[0], m2) == kron(kron(LinearMap.identity(4), c),
                                         LinearMap.identity(4))
    assert evaluate(bare[1], m2) \
        == kron(kron(LinearMap.identity(4), evaluate(delta, m2)), c)


def test_planner_prices_few_pairs_per_tensor(monkeypatch):
    # a strip of 1000 windows is a chain of 2000 tensors and a ladder walk
    # of 800 generators is 800 tensors of at most three legs; a scan
    # prices every live pair before every step, about T^3/6 pairs in all
    calls = []
    size = tqft._pair_size

    def counting(*args):
        calls.append(args)
        return size(*args)

    monkeypatch.setattr(tqft, "_pair_size", counting)
    for t, alg in ((window_strip(1000), builtin_matrix_example(1)),
                   (parse(gen.ladder_walk(800, "effort").text()),
                    builtin_matrix_example(2))):
        legs, wire_dim = _network(t, alg)
        calls.clear()
        plan = tqft._contraction_plan(legs, wire_dim)
        assert len(plan) == len(legs) - component_count(t)
        assert len(calls) <= 4 * len(legs)


# ---------------------------------------------------------------------------
# Axioms


def test_builtin_algebras_pass_axioms():
    for name in BUILTIN_ALGEBRAS:
        rep = check_axioms(builtin_algebra(name))
        assert rep.ok and rep.checked > 0, name


def test_single_entry_mutations_are_killed():
    rng = random.Random(53)
    for base in (builtin_matrix_example(2),
                 builtin_groupoid_example("pair_z2")):
        for _ in range(10):
            mut, key, rc = mutate_algebra(rng, base)
            rep = check_axioms(mut)
            assert not rep.ok, (key, rc)
            w = rep.failures[0]
            assert w.lhs_column != w.rhs_column
            assert w.basis_label


def test_axiom_report_renders():
    rep = check_axioms(builtin_matrix_example(1))
    assert "hold" in str(rep)
    rng = random.Random(54)
    mut, _, _ = mutate_algebra(rng, builtin_matrix_example(2))
    bad = check_axioms(mut)
    assert "fail" in str(bad) and str(bad.failures[0])


def test_structure_failures_name_the_problem():
    alg = builtin_matrix_example(2)
    maps = {k: m for k, m in alg.maps.items() if k != ("mu_C", ())}
    with pytest.raises(OcbordError, match="missing map mu_C"):
        check_axioms(KFA(colors=alg.colors, dims=alg.dims,
                         basis=alg.basis, maps=maps))


def test_evaluate_names_a_missing_structure_map():
    alg = builtin_matrix_example(1)
    maps = {k: m for k, m in alg.maps.items() if k != ("mu_C", ())}
    bad = KFA(colors=alg.colors, dims=alg.dims, basis=alg.basis, maps=maps)
    with pytest.raises(OcbordError,
                       match="^algebra has no structure map for mu_C$"):
        evaluate(parse("source O, O\nmu_C\n"), bad)


def test_axiom_instances_are_the_catalog_relations():
    # the recoloured catalog rules, in checking order, against the terms
    # the checker used to build by hand
    for colors in (("*",), ("a", "b"), ("x", "y", "z")):
        got = list(tqft._axiom_instances(colors))
        want = list(axiom_terms_reference(colors))
        assert len(got) == len(want)
        for (name, cols, lhs, rhs), (wname, wcols, wlhs, wrhs) in zip(got, want):
            assert (name, cols, lhs.source) == (wname, wcols, wlhs.source)
            assert canonical_key(lhs) == canonical_key(to_port_graph(wlhs))
            assert canonical_key(rhs) == canonical_key(to_port_graph(wrhs))
    used = [rule_id for table in tqft._AXIOMS.values()
            for _, rule_id, _ in table]
    defining = [r.id for r in rules().values() if r.group != "derived"]
    assert sorted(used) == sorted(defining + ["cocomm_C"])


# ---------------------------------------------------------------------------
# Groupoids


def test_custom_groupoid_round_trip():
    # the pair groupoid on two objects: all homs are singletons
    objs = ("x", "y")
    ms = {"ix": ("x", "x"), "iy": ("y", "y"),
          "f": ("x", "y"), "g": ("y", "x")}
    comp = {}
    for a, (asrc, atgt) in ms.items():
        for b, (bsrc, btgt) in ms.items():
            if btgt == asrc:
                comp[(a, b)] = next(c for c, (cs, ct) in ms.items()
                                    if (cs, ct) == (bsrc, atgt))
    gpd = Groupoid(objs, ms, comp)
    alg = groupoid_algebra(gpd)
    assert check_axioms(alg).ok
    assert alg.dims[("A", "x", "y")] == 1


def _s3_pair():
    """S3 on objects x and y; a morphism's name spells its permutation
    backwards, so hom(x, y) starts with (2, 1, 0), not the identity."""
    return tqft._group_groupoid(
        list(permutations(range(3))), lambda p, q: tuple(p[i] for i in q),
        lambda p, s, t: f"{s}{t}{''.join(map(str, p[::-1]))}", ("x", "y"))


def test_two_object_s3_passes_the_axioms():
    gpd = _s3_pair()
    assert gpd.hom("x", "y")[0] == "xy012" != gpd.comp[("xy210", "xx210")]
    rep = check_axioms(groupoid_algebra(gpd))
    assert rep.ok and rep.checked == 108


def test_zipper_is_the_same_under_every_transport():
    # zip[y] sends e_cls to the sum of t h t^-1 over h in cls for each of
    # the six t: x -> y, and cozip[y] is its transpose, row e_cls scaled
    # by |G|/|cls|
    gpd = _s3_pair()
    comp, inv, group = gpd.comp, gpd.inverse, gpd.hom("x", "x")
    alg = groupoid_algebra(gpd)
    z, cz = alg.maps[("zip", ("y",))], alg.maps[("cozip", ("y",))]
    homs = alg.basis[("A", "y", "y")]
    assert (cz.rows, cz.cols) == (z.cols, z.rows) == (3, 6)
    for ci, label in enumerate(alg.basis["C"]):
        h0 = label[:-1].split(":")[1]
        cls = {comp[(comp[(g, h0)], inv[g])] for g in group}
        for t in gpd.hom("x", "y"):
            image = {comp[(comp[(t, h)], inv[t])] for h in cls}
            assert z.col(ci) == tuple(Fraction(f in image) for f in homs)
        for fi in range(len(homs)):
            assert cz.entry(ci, fi) == z.entry(fi, ci) * Fraction(
                len(group), len(cls))


def test_invalid_groupoid_rejected():
    with pytest.raises(OcbordError):
        Groupoid(("x",), {"e": ("x", "x"), "f": ("x", "x")},
                 {("e", "e"): "e", ("e", "f"): "f",
                  ("f", "e"): "f", ("f", "f"): "f"})


def test_non_associative_table_rejected():
    # a Latin square of order 5 with identity e in which every element is
    # its own inverse: it passes every check but associativity, since
    # (a a) b = e b = b but a (a b) = a c = d
    names = "eabcd"
    rows = ("eabcd", "aecdb", "bdeac", "cbdea", "dcabe")
    ms = {m: ("x", "x") for m in names}
    comp = {(f, g): rows[i][j] for i, f in enumerate(names)
            for j, g in enumerate(names)}
    with pytest.raises(OcbordError, match="not associative"):
        Groupoid(("x",), ms, comp)


@pytest.mark.parametrize("objects, morphisms, comp, why", [
    (("x",), {"e": ("x", "y")}, {}, "e has unknown ends"),
    (("x",), {"e": ("x", "x")}, {}, "missing composite e,e"),
    (("x",), {"e": ("x", "x")}, {("e", "e"): "f"}, "bad composite e,e"),
    (("x", "y"), {"e": ("x", "x"), "i": ("y", "y")},
     {("e", "e"): "e", ("i", "i"): "i", ("e", "i"): "e"},
     "e,i not composable"),
    (("x",), {"e": ("x", "x"), "f": ("x", "x")},
     {(f, g): "e" for f in "ef" for g in "ef"}, "object x lacks an identity"),
], ids=["unknown-ends", "missing-composite", "bad-composite",
        "not-composable", "no-identity"])
def test_groupoid_data_checks(objects, morphisms, comp, why):
    with pytest.raises(OcbordError, match=f"^invalid groupoid data: {why}$"):
        Groupoid(objects, morphisms, comp)


# ---------------------------------------------------------------------------
# File format


def test_kfa_round_trip(tmp_path):
    algs = [builtin_algebra(name) for name in BUILTIN_ALGEBRAS]
    algs += map(load_kfa, sorted((ROOT / "algebras").glob("*.kfa")))
    for i, alg in enumerate(algs):
        p = tmp_path / f"{i}.kfa"
        save_kfa(alg, p)
        assert load_kfa(p) == alg, alg.name


def test_kfa_round_trip_keeps_entries_past_the_digit_limit(tmp_path):
    # str and int refuse more than 4300 digits by default; save_kfa writes
    # every digit, so load_kfa must read them back
    alg = builtin_matrix_example(2)     # a fresh copy: its maps change
    big = 10 ** 4400 + 1
    for v in (Fraction(big), Fraction(-big, 3), Fraction(7, big)):
        alg.maps[("eps_C", ())] = LinearMap(1, 1, {(0, 0): v})
        p = tmp_path / "big.kfa"
        save_kfa(alg, p)
        back = load_kfa(p)
        assert back.maps == alg.maps
        assert back.maps[("eps_C", ())].data[(0, 0)] == v


def test_shipped_algebra_files_are_the_builtins(tmp_path):
    for name, file in (("matrix2", "matrix2"), ("matrix3", "matrix3"),
                       ("groupoid-pair_z2", "pair_z2")):
        p = tmp_path / f"{file}.kfa"
        save_kfa(builtin_algebra(name), p)
        assert p.read_bytes() == (ROOT / "algebras" / f"{file}.kfa").read_bytes()


# The bytes save_kfa writes for each builtin and for matrix5.
SAVED_SHA256 = {
    "matrix1":
        "67a9b50de97db12748222973d48e75871e908cd56d480ae9bb15ffbb7c3e3920",
    "matrix2":
        "8d94797673199f07bb0454ac957fbe4a444bed5082b7fea36b880a1e9fde6891",
    "matrix3":
        "bd72030febb6fa751a315551d68c8d2319c56bebbf47d84c00cbc2eb19e0c6a3",
    "groupoid-trivial_pair":
        "1f1ebea1f80db6cc9ff2358fe508c7e016191019e147f41f9934e08246333a85",
    "groupoid-z2":
        "8df511d08f9b679bc459dd7a3e3f7d0ed02d7b8a4d4d765a25df53751e28b9e8",
    "groupoid-pair_z2":
        "959183ec3d492d1318b43ce4c6b85adbad1dbd937f46b195f81e64cf6fd4ff10",
    "groupoid-s3":
        "d9409edfd172b4e605e3f5d29cc42081576dcc90cf14aa5ea860a05d41227dff",
    "groupoid-two_comps":
        "e66e6c0c6e2fcd668403063412cfded445e200d69c181e8416d97d0f7e8625c3",
    "matrix5":
        "9e95bdab1db8d87977e2a664a8277cba5eac7c8cd5f8fd1821d1000ed2658b9c",
}


def test_saved_builtins_match_their_pinned_digests(tmp_path):
    assert list(SAVED_SHA256) == [*BUILTIN_ALGEBRAS, "matrix5"]
    for name, want in SAVED_SHA256.items():
        p = tmp_path / f"{name}.kfa"
        save_kfa(builtin_algebra(name), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == want, name


@pytest.mark.parametrize("name", [
    "mu_A[*,*]", "mu_C[]", "mu_A[*,*,*]]", "mu_A[*,*,*", "nu_A[*,*,*]",
    "mu_A[*,*,q]", "mu_A", "[*]", "mu_A[*,,*]"])
def test_kfa_map_names_are_read_as_kind_and_colours(tmp_path, name):
    p = tmp_path / "m1.kfa"
    save_kfa(builtin_matrix_example(1), p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    doc["maps"]["mu_A [ * , *,* ] "] = doc["maps"].pop("mu_A[*,*,*]")
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert load_kfa(p) == builtin_matrix_example(1)
    doc["maps"][name] = doc["maps"]["mu_C"]
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(OcbordError) as e:
        load_kfa(p)
    assert str(e.value) == f"{p}: bad map name {name!r}"


def test_kfa_load_errors(tmp_path):
    p = tmp_path / "bad.kfa"
    p.write_text("not json at all {", encoding="utf-8")
    with pytest.raises(OcbordError):
        load_kfa(p)
    p.write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(OcbordError):
        load_kfa(p)
    alg = builtin_matrix_example(1)
    save_kfa(alg, p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    del doc["maps"]["mu_C"]
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(OcbordError):
        load_kfa(p)


def test_kfa_with_many_colours_and_no_maps_is_refused_cheaply(
        tmp_path, monkeypatch):
    # 60 colours need 2 * 60**3 + 4 * 60 + 4 maps; the refusal names five
    # and builds a generator for those alone
    cols = [f"c{i}" for i in range(60)]
    p = tmp_path / "wide.kfa"
    p.write_text(json.dumps({
        "format": "kfa", "colors": cols, "basis": {}, "maps": {},
        "dims": {"C": 1, **{f"A[{a},{b}]": 1 for a in cols for b in cols}},
    }), encoding="utf-8")
    built, named = [], []
    monkeypatch.setattr(tqft, "Gen", lambda *a: built.append(a) or Gen(*a))
    map_name = tqft._map_name
    monkeypatch.setattr(tqft, "_map_name",
                        lambda k: named.append(k) or map_name(k))
    with pytest.raises(OcbordError) as e:
        load_kfa(p)
    assert str(e.value) == f"{p}: " + "; ".join(
        f"missing map mu_A[c0,c0,c{i}]" for i in range(5))
    assert len(built) == 5
    # each map name of the file is read, none of the 432244 it might hold
    assert named == []


def test_unknown_builtin_rejected():
    with pytest.raises(OcbordError):
        builtin_algebra("matrixx")
    with pytest.raises(OcbordError,
                       match="^unknown builtin algebra 'matrix0'$"):
        builtin_algebra("matrix0")
    with pytest.raises(OcbordError, match="^matrix example needs n >= 1$"):
        builtin_matrix_example(0)
    with pytest.raises(OcbordError, match="^unknown groupoid example 'nope'$"):
        builtin_groupoid_example("nope")


@pytest.mark.parametrize("name", [
    "matrix65", "matrix1000", "matrix" + "9" * 5000, "matrix1_0",
    "matrix 2", "matrix+2", "matrix02", "matrix\u0662", "matrix2\n",
    "matrix-1"])
def test_matrix_names_are_read_strictly(name):
    with pytest.raises(OcbordError) as e:
        builtin_algebra(name)
    assert str(e.value) == f"unknown builtin algebra {name!r}"


def test_matrix_names_run_from_1_to_64(monkeypatch):
    # N**2 up to EVAL_DIM_CAP; the stand-in builds nothing
    monkeypatch.setattr(tqft, "builtin_matrix_example", lambda n: n)
    names = ("matrix1", "matrix9", "matrix10", "matrix64")
    assert [builtin_algebra.__wrapped__(n) for n in names] == [1, 9, 10, 64]


def test_builtin_algebras_are_built_once():
    for name in BUILTIN_ALGEBRAS:
        assert builtin_algebra(name) is builtin_algebra(name), name
