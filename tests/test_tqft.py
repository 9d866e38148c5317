"""Exact-rational evaluation and the algebra axiom checker."""

import json
import random
import sys
from fractions import Fraction
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
    built = []
    monkeypatch.setattr(tqft, "Gen", lambda *a: built.append(a) or Gen(*a))
    with pytest.raises(OcbordError) as e:
        load_kfa(p)
    assert str(e.value) == f"{p}: " + "; ".join(
        f"missing map mu_A[c0,c0,c{i}]" for i in range(5))
    assert len(built) == 5


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


def test_builtin_algebras_are_built_once():
    for name in BUILTIN_ALGEBRAS:
        assert builtin_algebra(name) is builtin_algebra(name), name
