"""Topological invariants: objects, sigma, gamma, genus, windows, chi."""

import importlib
import random
import sys
from collections import Counter
from pathlib import Path

from ocbord.diagram import (GEN_ARITY, Gen, PortGraph, Seg, as_graph,
                            identity_term, tensor, to_port_graph,
                            from_port_graph)
from ocbord.invariants import (_ARC_AT, _CORNERS, _SHAPE, _STEP, CHI, STRIDE,
                               _assemble, _free_boundary, _unordered,
                               equivalent, invariants, profile_key)
from ocbord.dsl import parse, parse_file
from ocbord.normalform import normal_form

from cw_oracle import cw_profile
from helpers import (ARCS, CHI as DRAWN_CHI, closed_surface, crown_text,
                     perturb, random_mutant, random_term, read_path_samples,
                     union_find_assemble, union_find_free_boundary,
                     wide_text, window_strip)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the ladder workload's walk generator)


def _load(name):
    return parse_file(CORPUS / f"{name}.ocd")


def _objects(inv):
    enc = lambda segs: tuple(1 if s.is_interval else 0 for s in segs)
    return enc(inv.source), enc(inv.target)


def test_sheets_read_off_the_signatures_match_the_drawn_ones():
    assert CHI == DRAWN_CHI
    assert _ARC_AT == {kind: {**dict(arcs), **{b: a for a, b in arcs}}
                       for kind, arcs in ARCS.items()}


def test_the_walk_tables_number_the_arc_table():
    for kind, arc_at in _ARC_AT.items():
        step, corners = _STEP[kind], _CORNERS[kind]
        assert len(corners) == len(arc_at) // 2 < STRIDE, kind
        assert [a for a, *_ in corners] == list(range(len(corners))), kind
        # read back without its numbers, the step table is the arc table
        assert {((s, k), c): ((fs, fk), fc)
                for (s, k, c), (fs, fk, fc, _) in step.items()} == arc_at
        # an arc's two corners and its listed corner carry its number
        for (fs, fk, fc, a) in step.values():
            assert step[fs, fk, fc][3] == a, kind
        for a, s, k, c in corners:
            assert step[s, k, c][3] == a, kind
        # a sheet's shape does not depend on its colours
        for colour in ("*", "a"):
            gen = Gen(kind, (colour,) * GEN_ARITY[kind])
            assert _SHAPE[kind] == (
                CHI[kind], range(len(gen.source)),
                tuple(enumerate(s.is_interval for s in gen.target))), kind


def test_figure1():
    inv = invariants(_load("figure1"))
    assert _objects(inv) == ((1, 0, 1, 1, 1), (0, 1, 1, 0, 0))
    assert inv.sigma_str() == "(2 5 6)(3 4)"
    assert set(inv.cycles) == {(1,), (2, 5, 6), (3, 4)}
    assert dict(inv.gamma) == {j: "*" for j in range(1, 7)}
    assert len(inv.components) == 1
    c = inv.components[0]
    assert c.genus == 2 and c.windows == () and c.euler == -9


def test_closed_corpus_surfaces():
    for name, euler, genus, windows, circles in (
            ("sphere", 2, 0, (), 0),
            ("torus", 0, 1, (), 0),
            ("window_sphere", 1, 0, ("*",), 1),
            ("annulus_windows", -2, 0, ("a", "b"), 4)):
        inv = invariants(_load(name))
        (c,) = inv.components
        assert (c.euler, c.genus, c.windows, c.boundary_circles) \
            == (euler, genus, windows, circles), name


def test_open_corpus_surfaces():
    inv = invariants(_load("strip_hole"))
    (c,) = inv.components
    assert (c.euler, c.genus, c.windows) == (0, 0, ("s",))
    assert inv.sigma_str() == "(1 2)"
    assert dict(inv.gamma) == {1: "a", 2: "b"}

    inv = invariants(_load("mixed_genus"))
    (c,) = inv.components
    assert (c.euler, c.genus, c.windows) == (-7, 1, ("a", "a", "b"))
    assert dict(inv.gamma) == {1: "a", 2: "b"}


def test_disconnected_components():
    inv = invariants(_load("two_components"))
    assert sorted((c.euler, c.genus, c.windows) for c in inv.components) \
        == [(-2, 1, ()), (0, 0, ("a",))]


def test_zigzag_is_the_identity_strip():
    strip = identity_term((Seg.I("a", "b"),))
    assert equivalent(_load("zigzag"), strip)


def test_sigma_is_a_permutation_with_colours():
    rng = random.Random(21)
    for _ in range(60):
        t = random_term(rng, max_gens=18, colors=("*", "a", "b"),
                        connected=False)
        inv = invariants(t)
        ports = sorted(j for cyc in inv.cycles for j in cyc)
        assert sorted(dict(inv.sigma)) == ports
        assert sorted(dict(inv.sigma).values()) == ports
        assert sorted(inv.gamma_map) == ports
        n_src = sum(1 for s in inv.source if s.is_interval)
        n_tgt = sum(1 for s in inv.target if s.is_interval)
        assert len(ports) == n_src + n_tgt


def test_chi_matches_cw_oracle_on_corpus():
    for f in sorted(CORPUS.glob("*.ocd")):
        t = parse_file(f)
        mine = sorted((c.euler, c.boundary_circles)
                      for c in invariants(t).components)
        assert mine == cw_profile(t), f.name


def test_chi_matches_cw_oracle_on_random():
    rng = random.Random(22)
    for _ in range(150):
        t = random_term(rng, max_gens=20, colors=("*", "a"),
                        connected=False)
        mine = sorted((c.euler, c.boundary_circles)
                      for c in invariants(t).components)
        assert mine == cw_profile(t)


def test_equivalence_reflexive_and_layout_blind():
    rng = random.Random(23)
    for _ in range(30):
        t = random_term(rng, max_gens=15, colors=("*", "a"))
        assert equivalent(t, t)
        assert equivalent(t, from_port_graph(to_port_graph(t)))


def test_equivalence_respects_rewrites():
    rng = random.Random(24)
    for _ in range(12):
        t = random_term(rng, max_gens=12)
        assert equivalent(t, random_mutant(rng, t, rng.randint(1, 6)))


def test_equivalence_rejects_perturbations():
    rng = random.Random(25)
    for _ in range(20):
        t = random_term(rng, max_gens=12, colors=("*", "a"))
        assert not equivalent(t, perturb(rng, t))


def test_equivalence_rejects_boundary_mismatch():
    assert not equivalent(identity_term((Seg.O(),)),
                          identity_term((Seg.I("*", "*"),)))
    assert not equivalent(identity_term((Seg.I("a", "a"),)),
                          identity_term((Seg.I("a", "b"),)))


def test_profile_key_is_hashable_and_stable():
    t = _load("figure1")
    k1 = profile_key(invariants(t))
    k2 = profile_key(invariants(from_port_graph(to_port_graph(t))))
    assert hash(k1) == hash(k2) and k1 == k2


def _walk_matches_union_find(x):
    g = as_graph(x)
    sigma, gamma, windows = union_find_free_boundary(g)
    inv = invariants(g)
    assert dict(inv.sigma) == sigma and dict(inv.gamma) == gamma
    # the same windows, colour by colour, in the same components
    assert inv == _assemble(g, sigma, gamma, windows)


def test_boundary_walk_matches_union_find_on_samples():
    for f in sorted(CORPUS.glob("*.ocd")):
        _walk_matches_union_find(parse_file(f))
    rng = random.Random(314159)         # the criterion-3 sample
    for _ in range(500):
        t = random_term(rng, max_gens=25, max_width=6)
        _walk_matches_union_find(t)
        _walk_matches_union_find(normal_form(t))
    rng = random.Random(26)
    for colors in (("*",), ("a", "b"), ("a", "b", "c")):
        for connected in (True, False):
            for _ in range(100):
                _walk_matches_union_find(random_term(
                    rng, max_gens=20, colors=colors, connected=connected))


def test_boundary_walk_matches_union_find_at_scale():
    for n in (200, 400, 800, 1600, 3200):
        _walk_matches_union_find(parse(gen.ladder_walk(n, str(n)).text()))
    _walk_matches_union_find(window_strip(600))
    _walk_matches_union_find(parse(closed_surface(200)))
    _walk_matches_union_find(parse(wide_text(300)))


def _sparse_ids(g, rng):
    """``g`` with its nodes added in a shuffled order under large, sparse
    ids."""
    ids = list(g.nodes)
    rng.shuffle(ids)
    new = {nid: 10**9 + 7919 * k for k, nid in enumerate(ids)}
    h = PortGraph(g.source, g.target)
    for nid in ids:
        h.add_node(g.nodes[nid], nid=new[nid])
    for prod, cons in g.wires():
        h.wire(*(ep if len(ep) == 2 else (ep[0], new[ep[1]], ep[2])
                 for ep in (prod, cons)))
    return h


def test_boundary_walk_matches_union_find_on_sparse_ids_and_the_strip():
    rng = random.Random(31)
    for n in (100, 400):
        g = to_port_graph(parse(gen.ladder_walk(n, f"sparse/{n}").text()))
        _walk_matches_union_find(_sparse_ids(g, rng))
    for text in (closed_surface(50), wide_text(60)):
        _walk_matches_union_find(_sparse_ids(to_port_graph(parse(text)), rng))
    _walk_matches_union_find(parse(gen.strip(500).text()))


def test_assemble_equals_the_union_find_reference():
    for k, t in enumerate(read_path_samples()):
        g = to_port_graph(t)
        assert invariants(t) == union_find_assemble(g, *_free_boundary(g)), k


def test_least_walk_runs_once_per_closed_component_when_two_or_more(
        monkeypatch):
    # the package's ``invariants`` attribute is the function; fetch the module
    invariants_module = importlib.import_module("ocbord.invariants")
    calls = []
    least_walk = invariants_module._least_walk

    def counting(g, comp):
        calls.append(len(comp))
        return least_walk(g, comp)

    monkeypatch.setattr(invariants_module, "_least_walk", counting)
    crown, torus = parse(crown_text(50)), parse(closed_surface(1))
    strip = parse("source I ; window_o")
    for t, want in ((strip, []), (crown, []), (tensor(strip, crown), []),
                    (tensor(crown, crown), [200, 200]),
                    (tensor(torus, strip, crown, torus), [4, 200, 4])):
        calls.clear()
        invariants(t)
        assert calls == want


def test_equivalent_and_normal_form_never_order_closed_components(
        monkeypatch):
    invariants_module = importlib.import_module("ocbord.invariants")
    calls = []
    least_walk = invariants_module._least_walk

    def counting(g, comp):
        calls.append(len(comp))
        return least_walk(g, comp)

    monkeypatch.setattr(invariants_module, "_least_walk", counting)
    crown, torus = parse(crown_text(50)), parse(closed_surface(1))
    strip = parse("source I ; window_o")
    for t in (tensor(crown, crown), tensor(torus, strip, crown, torus)):
        assert equivalent(t, t)
        normal_form(t)
    assert calls == []


def test_unordered_record_has_the_same_profile_and_components():
    for k, t in enumerate(read_path_samples()):
        ordered, unordered = invariants(t), _unordered(as_graph(t))
        assert profile_key(unordered) == profile_key(ordered), k
        assert Counter(unordered.components) == Counter(ordered.components), k
