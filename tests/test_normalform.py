"""Normal form built from invariants alone, and the wrap/unwrap bridge."""

import random
from pathlib import Path

from ocbord.diagram import (from_port_graph, syntactic_eq, tensor,
                            to_port_graph)
from ocbord.dsl import parse, parse_file, render
from ocbord.invariants import equivalent, invariants
from ocbord.normalform import (nf_wrapped_graph, normal_form, unwrap,
                               unwrap_graph, wrap, wrap_graph)

from helpers import (closed_surface, crown_text, perturb, random_mutant,
                     random_term, window_strip)

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
