"""Normal form built from invariants alone, and the wrap/unwrap bridge."""

import hashlib
import random
from pathlib import Path

from ocbord.diagram import (Gen, Seg, from_port_graph, graph_eq,
                            syntactic_eq, tensor, to_port_graph)
from ocbord.dsl import parse, parse_file, render
from ocbord.invariants import equivalent, invariants
from ocbord.normalform import (nf_wrapped_graph, normal_form, unwrap,
                               unwrap_graph, wrap, wrap_graph,
                               wrapped_normal_form)

from helpers import (closed_surface, crown_text, ladder_gen, perturb,
                     random_mutant, random_term, read_normal_form,
                     window_strip)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_wrap_moves_everything_to_one_side():
    rng = random.Random(31)
    for _ in range(40):
        t = random_term(rng, max_gens=15, colors=("*", "a"),
                        connected=False)
        w, _ = wrap(t)
        assert all(s.is_interval for s in w.source)
        assert all(not s.is_interval for s in w.target)


def test_unwrap_undoes_wrap_up_to_equivalence():
    rng = random.Random(32)
    for _ in range(40):
        t = random_term(rng, max_gens=15, colors=("*", "a", "b"),
                        connected=False)
        w, wd = wrap(t)
        back = unwrap(w, wd)
        assert back.source == t.source and back.target == t.target
        assert equivalent(back, t)
        # the zig-zag bends introduced by the round trip are invisible
        # to the normal form
        assert syntactic_eq(normal_form(back), normal_form(t))


def test_wrapped_and_normal_form_graphs_are_well_formed():
    rng = random.Random(35)
    terms = [parse_file(f) for f in sorted(CORPUS.glob("*.ocd"))]
    terms += [random_term(rng, max_gens=15, colors=("*", "a", "b"),
                          connected=False) for _ in range(60)]
    for t in terms:
        h, w = wrap_graph(to_port_graph(t))
        target = nf_wrapped_graph(invariants(h))
        for g in (h, target, unwrap_graph(h, w), unwrap_graph(target, w)):
            g.validate()


def test_normal_form_preserves_class():
    rng = random.Random(33)
    for _ in range(60):
        t = random_term(rng, max_gens=18, colors=("*", "a"),
                        connected=False)
        nf = normal_form(t)
        assert nf.source == t.source and nf.target == t.target
        assert equivalent(t, nf)


def test_normal_form_idempotent_and_layout_blind():
    rng = random.Random(34)
    for _ in range(40):
        t = random_term(rng, max_gens=16, colors=("*", "a"))
        nf = normal_form(t)
        assert syntactic_eq(normal_form(nf), nf)
        assert syntactic_eq(normal_form(from_port_graph(to_port_graph(t))),
                            nf)


def test_normal_form_complete_for_equivalence():
    # same class -> same term; different profile -> different term
    rng = random.Random(35)
    for _ in range(15):
        t = random_term(rng, max_gens=12, colors=("*", "a"))
        m = random_mutant(rng, t, rng.randint(1, 8))
        assert syntactic_eq(normal_form(t), normal_form(m))
        p = perturb(rng, t)
        assert not syntactic_eq(normal_form(t), normal_form(p))


def test_closed_corpus_files_already_normal():
    for name in ("sphere", "torus", "window_sphere"):
        t = parse_file(CORPUS / f"{name}.ocd")
        assert syntactic_eq(normal_form(t), t), name


def test_normal_form_of_corpus_stays_equivalent():
    for f in sorted(CORPUS.glob("*.ocd")):
        t = parse_file(f)
        assert equivalent(t, normal_form(t)), f.name


def test_deep_strip_stays_within_the_recursion_limit():
    # 1200 generators in one chain: every walk over it must be iterative
    strip = window_strip(600)
    inv = invariants(strip)
    assert inv.window_count == 600 and inv.total_genus == 0
    assert equivalent(strip, strip)
    assert not equivalent(strip, window_strip(599))
    assert equivalent(normal_form(strip), strip)


def test_normal_form_is_blind_to_the_order_of_closed_components():
    closed = [parse_file(CORPUS / f"{name}.ocd")
              for name in ("sphere", "torus", "window_sphere")]
    closed += [parse(crown_text(7)), parse(closed_surface(3)),
               parse("colors a, b\nsource\neta_C\nwindow_w[a]\n"
                     "window_w[b]\neps_C\n")]
    for i, a in enumerate(closed):
        for b in closed[i:]:
            assert render(normal_form(tensor(a, b))) \
                == render(normal_form(tensor(b, a))), (i, render(b))


# Edge rows of the pin below: a bare circle whose source end is bent up
# beside a bare interval whose target end is bent down; an empty source;
# an empty target; and two diagrams A and B that share a wrapped
# boundary.
EDGE_ROWS = (
    "colors a, b\nsource O, I[a,b]\nid:O | id:I[a,b]\n",
    "colors a\nsource\neta_A[a]\n",
    "colors a\nsource I[a,a]\neps_A[a]\n",
    "source I, O\nid:I | eps_C\n",
    "source I\nid:I | eta_C\n",
)


def _pinned_inputs():
    terms = [parse_file(f) for f in sorted(CORPUS.glob("*.ocd"))]
    rng = random.Random(2005)
    for colors in (("*",), ("*", "a"), ("*", "a", "b")):
        terms += [random_term(rng, max_gens=20, colors=colors,
                              connected=False) for _ in range(100)]
    return terms + [parse(text) for text in EDGE_ROWS]


# One SHA-256 over render(normal_form(t)), render(wrap(t)[0]) and
# render(unwrap(*wrap(t))) of each pinned input, in order.
NORMALFORM_SHA256 = \
    "843e082cd0e618f397617cc72205b7f12de34ae1a4767e7a12dc1af654efd0c5"


def test_normalform_outputs_match_their_pinned_digest():
    digest = hashlib.sha256()
    for t in _pinned_inputs():
        w, boundary = wrap(t)
        for term in (normal_form(t), w, unwrap(w, boundary)):
            digest.update(render(term).encode())
    assert digest.hexdigest() == NORMALFORM_SHA256


# O, I[a,b], O, I[b,c] -> I[a,c], O, I[a,a], O: the first interval crosses
# past the circle, mu_A[a,b,c] joins it to the second, eta_A[a] adds a
# third, then crossings put every segment in place.  Both circles run
# straight from the source to the target.
CROSSED = """colors a, b, c
source O, I[a,b], O, I[b,c]
id:O | cross(I[a,b],O) | id:I[b,c]
id:O | id:O | mu_A[a,b,c]
id:O | id:O | id:I[a,c] | eta_A[a]
id:O | cross(O,I[a,c]) | id:I[a,a]
cross(O,I[a,c]) | cross(O,I[a,a])
"""

# Where wrap_graph sends each boundary port of CROSSED: target intervals
# to the front of the source, source circles to the back of the target.
CROSSED_MOVES = {
    ("tgt", 0): ("src", 0), ("tgt", 2): ("src", 1),
    ("src", 1): ("src", 2), ("src", 3): ("src", 3),
    ("tgt", 1): ("tgt", 0), ("tgt", 3): ("tgt", 1),
    ("src", 0): ("tgt", 2), ("src", 2): ("tgt", 3),
}


def _assert_bent(g, h, moves):
    """Follow the wires of ``h``, a bend of ``g``, from each bend: every
    port of ``g`` lands on ``moves[port]``, a target port bent down is
    closed by the pairing and a source port bent up is opened by the
    copairing, and every wire of ``g`` survives, joined through them."""
    end = {}        # a boundary port of g -> its endpoint in h
    for (side, i), (to, k) in moves.items():
        seg = (g.source if side == "src" else g.target)[i]
        a, b = seg.left, seg.right
        turned = Seg.I(b, a) if seg.is_interval else seg
        if side == to:
            end[side, i] = (to, k)
        elif side == "tgt":
            _, mu, port = h.out_to_in["src", k]
            assert port == 0 and h.source[k] == turned
            assert h.nodes[mu] == (Gen("mu_A", (b, a, b)) if seg.is_interval
                                   else Gen("mu_C"))
            eps = h.out_to_in["out", mu, 0][1]
            assert h.nodes[eps] == (Gen("eps_A", (b,)) if seg.is_interval
                                    else Gen("eps_C"))
            end[side, i] = ("in", mu, 1)
        else:
            _, delta, port = h.in_to_out["tgt", k]
            assert port == 1 and h.target[k] == turned
            assert h.nodes[delta] == (Gen("Delta_A", (a, b, a))
                                      if seg.is_interval else Gen("Delta_C"))
            eta = h.in_to_out["in", delta, 0][1]
            assert h.nodes[eta] == (Gen("eta_A", (a,)) if seg.is_interval
                                    else Gen("eta_C"))
            end[side, i] = ("out", delta, 0)
    bends = sum(side != to for (side, _), (to, _) in moves.items())
    assert len(h.nodes) == len(g.nodes) + 2 * bends
    assert all(h.nodes[nid] == gen for nid, gen in g.nodes.items())
    for p, c in g.wires():
        assert h.out_to_in[end.get(p, p)] == end.get(c, c), (p, c)
    h.validate()


def test_wrap_and_unwrap_bend_each_port_where_the_map_says():
    g = to_port_graph(parse(CROSSED))
    h, boundary = wrap_graph(g)
    assert boundary == (g.source, g.target)
    assert (h.source, h.target) == (
        (Seg.I("c", "a"), Seg.I("a", "a"), Seg.I("a", "b"), Seg.I("b", "c")),
        (Seg.O(),) * 4)
    _assert_bent(g, h, CROSSED_MOVES)
    back = unwrap_graph(h, boundary)
    assert (back.source, back.target) == (g.source, g.target)
    _assert_bent(h, back, {q: p for p, q in CROSSED_MOVES.items()})


def test_unwrap_checks_only_the_wrapped_boundary():
    # A and B differ but wrap to the same boundary (I, I) -> (O), so B's
    # boundary is accepted for A's wrapped diagram
    a, b = parse(EDGE_ROWS[3]), parse(EDGE_ROWS[4])
    w, _ = wrap(a)
    wb, boundary = wrap(b)
    assert (w.source, w.target) == (wb.source, wb.target)
    back = unwrap(w, boundary)
    back.validate()
    assert (back.source, back.target) == (b.source, b.target)
    assert render(back) == (
        "source I\nid:I | eta_A\nid:I | Delta_A\ncross(I,I) | id:I\n"
        "mu_A | id:I\neps_A | id:I\nid:I | eta_C\nid:I | Delta_C\n"
        "id:I | eps_C | id:O\n")


def _open_and_closed(comps):
    """Components as ``(cycles, windows, genus, target positions)``: the
    ones with boundary in order, the boundary-free ones as a multiset."""
    return ([c for c in comps if c[0] or c[3]],
            sorted(c for c in comps if not (c[0] or c[3])))


def test_wrapped_normal_form_reads_back_as_the_invariants():
    rng, gen = random.Random(314159), ladder_gen()
    terms = [parse_file(f) for f in sorted(CORPUS.glob("*.ocd"))]
    terms += [random_term(rng, max_gens=25, max_width=6) for _ in range(500)]
    terms += [parse(gen.ladder_walk(n, str(n)).text()) for n in (200, 400)]
    normal = 0
    for i, t in enumerate(terms):
        _, h, nf = wrapped_normal_form(t)
        want = [(c.cycles, c.windows, c.genus, c.tgt_positions)
                for c in invariants(h).components]
        read = read_normal_form(nf)
        assert read is not None, i
        assert _open_and_closed(read) == _open_and_closed(want), i
        if read_normal_form(h) is not None:
            assert graph_eq(h, nf), i
            normal += 1
    assert normal >= 3      # the closed corpus files are read as they are
