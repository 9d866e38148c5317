"""Generator signatures, term typing, and the port graph layer."""

import copy
import random
from pathlib import Path

import pytest

from ocbord import diagram
from ocbord.diagram import (
    GEN_ARITY,
    _SIGS,
    Cross,
    DiagramTerm,
    Gen,
    Id,
    OcbordError,
    PortGraph,
    Seg,
    TypingError,
    canonical_key,
    canonical_order,
    compose,
    from_port_graph,
    gen_term,
    graph_eq,
    identity_term,
    syntactic_eq,
    tensor,
    to_port_graph,
)

from ocbord.dsl import parse, parse_file
from ocbord.invariants import equivalent, invariants
from ocbord.normalform import normal_form, unwrap, wrap
from ocbord.rewrite import check_trace, normalize_with_trace
from ocbord.tqft import builtin_matrix_example, evaluate

from helpers import (closed_surface, random_term, read_path_samples,
                     seedwise_canonical_order, wide_text, wire_by_wire_graph)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def I(a="*", b="*"):
    return Seg.I(a, b)


O = Seg.O()


def test_generator_signatures():
    assert Gen("mu_A", ("a", "b", "c")).source == (I("a", "b"), I("b", "c"))
    assert Gen("mu_A", ("a", "b", "c")).target == (I("a", "c"),)
    assert Gen("Delta_A", ("a", "b", "c")).source == (I("a", "c"),)
    assert Gen("Delta_A", ("a", "b", "c")).target == (I("a", "b"), I("b", "c"))
    assert Gen("eta_A", ("a",)).source == ()
    assert Gen("eta_A", ("a",)).target == (I("a", "a"),)
    assert Gen("eps_A", ("a",)).source == (I("a", "a"),)
    assert Gen("mu_C").source == (O, O) and Gen("mu_C").target == (O,)
    assert Gen("Delta_C").target == (O, O)
    # zip turns a circle state into an interval state, cozip the reverse
    assert Gen("zip", ("a",)).source == (O,)
    assert Gen("zip", ("a",)).target == (I("a", "a"),)
    assert Gen("cozip", ("a",)).source == (I("a", "a"),)
    assert Gen("cozip", ("a",)).target == (O,)


def test_signatures_are_cached_under_the_segment_cap():
    # one cache entry per (kind, colours): a process that reads many files
    # of fresh colours keeps no more signatures than shared segments
    for i in range(diagram.SEG_TABLE_CAP + 100):
        Gen("zip", (f"c{i}",))
    assert diagram._sig.cache_info().currsize <= diagram.SEG_TABLE_CAP


def test_generator_identity_is_kind_and_colours():
    # source and target are stored at construction but stay out of
    # equality, hashing and the repr
    for kind, arity in sorted(GEN_ARITY.items()):
        cols = ("a", "b", "c")[:arity]
        g = Gen(kind, cols)
        assert repr(g) == f"Gen(kind={kind!r}, colors={cols!r})"
        assert g == Gen(kind, cols) and hash(g) == hash((kind, cols))
        assert (g.source, g.target) == _SIGS[kind][1](*cols)
        if arity:
            assert g != Gen(kind, ("d",) * arity)
        for name in ("source", "kind", "colors"):
            with pytest.raises(AttributeError):
                setattr(g, name, ())
        # a copy with other stored ends still equals, hashes and prints
        # as the original
        h = copy.copy(g)
        object.__setattr__(h, "source", ())
        object.__setattr__(h, "target", ())
        assert (h, hash(h), repr(h)) == (g, hash(g), repr(g))


def test_values_keep_their_repr_hash_and_immutability():
    # the repr and hash of each value are those of its field tuple, so
    # set and dict orders do not depend on how the class is written
    a, o = Seg.I("a", "b"), Seg.O()
    t = parse("source I[a,b], O\nid:I[a,b] | id:O\n")
    cases = [(a, "Seg(kind='I', left='a', right='b')", ("I", "a", "b")),
             (Id(o), "Id(seg=Seg(kind='O', left='', right=''))", (o,)),
             (Cross(a, o), f"Cross(a={a!r}, b={o!r})", (a, o)),
             (t, f"DiagramTerm(source={t.source!r}, slices={t.slices!r})",
              (t.source, t.slices))]
    for v, text, fields in cases:
        assert repr(v) == text and hash(v) == hash(fields)
        assert copy.copy(v) == v and copy.copy(v) is not v
        assert v != fields and v != Seg("x")
        with pytest.raises(AttributeError):
            v.source = ()
    assert (Id(o).source, Id(o).target) == ((o,), (o,))
    assert (Cross(a, o).source, Cross(a, o).target) == ((a, o), (o, a))


def test_a_layout_past_the_cap_is_refused(monkeypatch):
    # 50 genus-one circles side by side lay out as about 318,000 factors,
    # almost all of them identities beside the crossings
    t = parse(wide_text(50))
    monkeypatch.setattr(diagram, "LAYOUT_ATOM_CAP", 10 ** 5)
    with pytest.raises(OcbordError, match="more than 100000 factors"):
        normal_form(t)


def test_generator_arity_checked():
    with pytest.raises(ValueError):
        Gen("mu_A", ("a", "b"))
    with pytest.raises(ValueError):
        Gen("frobnicate")
    with pytest.raises(ValueError):
        Gen("zip")


def test_cross_and_id():
    c = Cross(I("a", "b"), O)
    assert c.source == (I("a", "b"), O)
    assert c.target == (O, I("a", "b"))
    assert Id(O).source == (O,) == Id(O).target


def test_compose_typing():
    eta = gen_term(Gen("eta_A", ("a",)))
    eps_a = gen_term(Gen("eps_A", ("a",)))
    eps_b = gen_term(Gen("eps_A", ("b",)))
    disc = compose(eta, eps_a)
    assert disc.source == () and disc.target == ()
    with pytest.raises(TypingError):
        compose(eta, eps_b)
    with pytest.raises(TypingError):
        compose(eta, gen_term(Gen("eps_C")))


def test_tensor_concatenates():
    t = tensor(gen_term(Gen("mu_C")), identity_term((I("a", "b"),)))
    assert t.source == (O, O, I("a", "b"))
    assert t.target == (O, I("a", "b"))


def test_validate_reports_bad_slice():
    bad = DiagramTerm((O,), ((Gen("mu_C"),),))
    with pytest.raises(TypingError):
        bad.validate()


def _relabelled(g, rng):
    ids = sorted(g.nodes)
    perm = ids[:]
    rng.shuffle(perm)
    pi = dict(zip(ids, perm))

    def ep(e):
        if e[0] in ("out", "in"):
            return (e[0], pi[e[1]], e[2])
        return e

    h = PortGraph(g.source, g.target)
    for nid in perm:
        inv = {v: k for k, v in pi.items()}
        h.add_node(g.nodes[inv[nid]], nid=nid)
    for prod, cons in g.wires():
        h.wire(ep(prod), ep(cons))
    h.validate()
    return h


def test_graph_eq_ignores_node_ids():
    rng = random.Random(3)
    for _ in range(40):
        t = random_term(rng, max_gens=12, colors=("*", "a"), connected=False)
        g = to_port_graph(t)
        h = _relabelled(g, rng)
        assert graph_eq(g, h)
        assert canonical_key(g) == canonical_key(h)
        assert syntactic_eq(from_port_graph(g), from_port_graph(h))


def test_round_trip_term_graph():
    rng = random.Random(4)
    for _ in range(60):
        t = random_term(rng, max_gens=14, colors=("*", "a", "b"),
                        connected=False)
        g = to_port_graph(t)
        back = from_port_graph(g)
        assert graph_eq(g, to_port_graph(back))
        assert back.source == t.source and back.target == t.target


def test_from_port_graph_is_canonical():
    # the layout only depends on the graph, not the id assignment
    rng = random.Random(5)
    t = random_term(rng, max_gens=18)
    g = to_port_graph(t)
    assert syntactic_eq(from_port_graph(g),
                        from_port_graph(_relabelled(g, rng)))


def test_graph_eq_detects_difference():
    zipzip = compose(gen_term(Gen("zip", ("a",))),
                     gen_term(Gen("cozip", ("a",))))
    plain = identity_term((O,))
    assert not graph_eq(to_port_graph(zipzip), to_port_graph(plain))


def test_validate_rejects_dangling_port():
    g = PortGraph((O,), (O,))
    g.add_node(Gen("Delta_C"))
    g.wire(("src", 0), ("in", 0, 0))
    g.wire(("out", 0, 0), ("tgt", 0))
    # out port 1 left dangling
    with pytest.raises(OcbordError):
        g.validate()


def test_add_node_refuses_a_used_id():
    g = PortGraph()
    g.add_node(Gen("eta_C"))
    with pytest.raises(ValueError, match="^node id 0 already used$"):
        g.add_node(Gen("eps_C"), 0)


def test_validate_rejects_wire_maps_that_disagree():
    # both maps hold every port, but the consumer side swaps the wires
    g = PortGraph((O, O), (O, O))
    g.wire(("src", 0), ("tgt", 0))
    g.wire(("src", 1), ("tgt", 1))
    g.in_to_out[("tgt", 0)], g.in_to_out[("tgt", 1)] = ("src", 1), ("src", 0)
    with pytest.raises(TypingError, match=r"^wire maps disagree at "
                       r"\('src', 0\) -> \('tgt', 0\)$"):
        g.validate()


def test_from_port_graph_refuses_a_cyclic_graph():
    cyclic = _ill_typed_graphs()[2]
    with pytest.raises(OcbordError,
                       match="^port graph is cyclic; cannot lay out$"):
        from_port_graph(cyclic)


def _ill_typed_graphs():
    dangling = PortGraph((O,), (O,))
    dangling.add_node(Gen("mu_C"))
    dangling.wire(("src", 0), ("in", 0, 0))
    dangling.wire(("out", 0, 0), ("tgt", 0))
    # input 1 of the mu_C is left dangling
    bare = PortGraph((I(),), (O,))
    bare.wire(("src", 0), ("tgt", 0))
    # a mu_C feeding a Delta_C that feeds it back: a torus read as a loop
    cyclic = PortGraph()
    mu, de = cyclic.add_node(Gen("mu_C")), cyclic.add_node(Gen("Delta_C"))
    et, ep = cyclic.add_node(Gen("eta_C")), cyclic.add_node(Gen("eps_C"))
    cyclic.wire(("out", mu, 0), ("in", de, 0))
    cyclic.wire(("out", de, 0), ("in", mu, 0))
    cyclic.wire(("out", et, 0), ("in", mu, 1))
    cyclic.wire(("out", de, 1), ("in", ep, 0))
    return dangling, bare, cyclic


@pytest.mark.parametrize("entry", [
    invariants,
    lambda g: equivalent(g, g),
    normal_form,
    normalize_with_trace,
    lambda g: evaluate(g, builtin_matrix_example(1)),
], ids=["invariants", "equivalent", "normal_form", "normalize_with_trace",
        "evaluate"])
def test_entry_points_reject_ill_typed_graphs(entry):
    for g in _ill_typed_graphs():
        with pytest.raises(TypingError):
            entry(g)


def test_unwrap_refuses_another_terms_boundary():
    w, _ = wrap(parse_file(CORPUS / "figure1.ocd"))
    _, other = wrap(parse_file(CORPUS / "strip_hole.ocd"))
    with pytest.raises(OcbordError, match="wrap data does not match"):
        unwrap(w, other)


def test_a_diagram_is_type_checked_once_where_it_enters(monkeypatch):
    t = parse_file(CORPUS / "figure1.ocd")
    m2 = builtin_matrix_example(2)
    _, trace = normalize_with_trace(t)
    calls = []
    validate = PortGraph.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(PortGraph, "validate", counting)
    for name, entry in (("invariants", invariants),
                        ("equivalent", lambda x: equivalent(x, t)),
                        ("normal_form", normal_form),
                        ("normalize_with_trace", normalize_with_trace),
                        ("evaluate", lambda x: evaluate(x, m2))):
        # a term's typing makes its graph; a caller's graph is validated
        for x, want in ((t, 0), (to_port_graph(t), 1)):
            calls.clear()
            entry(x)
            assert len(calls) == want, (name, type(x).__name__)
    calls.clear()
    assert check_trace(trace)
    assert calls == []


def test_syntactic_eq_is_strict_on_slicing():
    a = tensor(gen_term(Gen("eta_C")), gen_term(Gen("eta_C")))
    b = compose(gen_term(Gen("eta_C")),
                tensor(identity_term((O,)), gen_term(Gen("eta_C"))))
    assert a.source == b.source and a.target == b.target
    assert graph_eq(to_port_graph(a), to_port_graph(b))
    assert not syntactic_eq(a, b)
    assert syntactic_eq(from_port_graph(to_port_graph(a)),
                        from_port_graph(to_port_graph(b)))


def test_lockstep_order_equals_the_seedwise_order():
    # the corpus and its normal forms, the acceptance criterion-3 sample
    # (a quarter of it beside two closed surfaces) and a genus-100 surface
    terms = []
    for path in sorted(CORPUS.glob("*.ocd")):
        t = parse_file(path)
        terms += [t, normal_form(t)]
    assert len(terms) == 26
    rng = random.Random(314159)
    s1, s3 = parse(closed_surface(1)), parse(closed_surface(3))
    for i in range(500):
        t = random_term(rng, max_gens=25, max_width=6)
        terms.append(tensor(s3, t, s1) if i % 4 == 0 else t)
    terms.append(parse(closed_surface(100)))
    for k, t in enumerate(terms):
        g = to_port_graph(t)
        assert canonical_order(g) == seedwise_canonical_order(g), k


class _CountingNodes(dict):
    reads = 0

    def __getitem__(self, nid):
        self.reads += 1
        return dict.__getitem__(self, nid)


def test_canonical_order_reads_each_node_a_few_times():
    # a genus-400 surface is one closed component of 802 nodes; trying
    # every seed walks and serialises it 802 times, about 1.3M node reads
    g = to_port_graph(parse(closed_surface(400)))
    g.nodes = _CountingNodes(g.nodes)
    canonical_order(g)
    assert g.nodes.reads <= 4 * len(g.nodes)


def test_port_graph_equals_the_wire_by_wire_reference():
    for k, t in enumerate(read_path_samples()):
        g, ref = to_port_graph(t), wire_by_wire_graph(t)
        assert (g.source, g.target) == (ref.source, ref.target), k
        assert list(g.nodes.items()) == list(ref.nodes.items()), k
        assert list(g.out_to_in.items()) == list(ref.out_to_in.items()), k
        assert list(g.in_to_out.items()) == list(ref.in_to_out.items()), k
        assert g._next == ref._next, k


def test_laid_out_terms_type_check_to_their_cached_target():
    # from_port_graph fills the target cache from the graph, so reading
    # ``target`` no longer checks the layout; validate() walks the id:
    # and cross segments it wrote and must reach the same boundary
    for k, t in enumerate(read_path_samples()):
        g = to_port_graph(t)
        assert from_port_graph(g).validate() == g.target, k
    for f in sorted(CORPUS.glob("*.ocd")):
        nf, trace = normalize_with_trace(parse_file(f))
        for t in (nf, trace.initial, trace.final):
            assert t.validate() == t.target, f.name
