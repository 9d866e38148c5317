"""Text format: parsing, rendering, macros, and error positions."""

import random
from pathlib import Path

import pytest

from ocbord.diagram import (DiagramTerm, Gen, Seg, compose, gen_term, graph_eq,
                            identity_term, syntactic_eq, tensor,
                            to_port_graph)
from ocbord.dsl import ParseError, TypeMismatch, parse, parse_file, render

from helpers import random_term, wide_text, window_strip

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_corpus_parses():
    files = sorted(CORPUS.glob("*.ocd"))
    assert len(files) >= 10
    for f in files:
        t = parse_file(f)
        t.validate()


def test_render_parse_round_trip_corpus():
    for f in sorted(CORPUS.glob("*.ocd")):
        t = parse_file(f)
        text = render(t)
        assert syntactic_eq(parse(text), t)
        assert render(parse(text)) == text


def test_render_parse_round_trip_random():
    rng = random.Random(9)
    for _ in range(80):
        t = random_term(rng, max_gens=15, colors=("*", "a", "b"),
                        connected=False)
        assert syntactic_eq(parse(render(t)), t)


def test_source_line_and_padding():
    t = parse("source I[a,b], O\nid:I[a,b] | Delta_C\n")
    assert t.source == (Seg.I("a", "b"), Seg.O())
    assert t.target == (Seg.I("a", "b"), Seg.O(), Seg.O())


def test_empty_source():
    t = parse("source\neta_C\neps_C\n")
    assert t.source == () and t.target == ()


def test_comments_and_semicolons():
    t = parse("# leading comment\nsource O # trailing\nDelta_C; mu_C\n")
    u = parse("source O\nDelta_C\nmu_C\n")
    assert syntactic_eq(t, u)


def test_plain_interval_shorthand():
    t = parse("source I\ncozip\n")
    assert t.source == (Seg.I("*", "*"),)
    assert t.target == (Seg.O(),)


def test_cross_atom():
    t = parse("source I[a,b], O\ncross(I[a,b], O)\n")
    assert t.target == (Seg.O(), Seg.I("a", "b"))
    with pytest.raises(ParseError):
        parse("source I, I\ncross\n")
    with pytest.raises(ParseError):
        parse("source I\ncross(I)\n")


def test_window_macros():
    w = parse("source O\nwindow_w[a]\n")
    built = compose(gen_term(Gen("zip", ("a",))),
                    gen_term(Gen("cozip", ("a",))))
    assert graph_eq(to_port_graph(w), to_port_graph(built))

    o = parse("colors a, s, b\nsource I[a,b]\nwindow_o[a,s,b]\n")
    built = compose(gen_term(Gen("Delta_A", ("a", "s", "b"))),
                    gen_term(Gen("mu_A", ("a", "s", "b"))))
    assert graph_eq(to_port_graph(o), to_port_graph(built))

    c = parse("source O\nwindow_c\n")
    built = compose(gen_term(Gen("Delta_C")), gen_term(Gen("mu_C")))
    assert graph_eq(to_port_graph(c), to_port_graph(built))


def test_saddle_macros_type():
    t = parse("colors a, b\nsource I[a,b]\nsaddle_cozip_l[a,b]\n")
    assert t.target == (Seg.O(), Seg.I("a", "b"))
    t = parse("colors a, b\nsource O, I[a,b]\nsaddle_zip_l[a,b]\n")
    assert t.target == (Seg.I("a", "b"),)


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as e:
        parse("source I\nbogus\n", filename="f.ocd")
    assert e.value.span.file == "f.ocd" and e.value.span.line == 2
    with pytest.raises(ParseError):
        parse("source I\nmu_A[a]\n")          # wrong colour count
    with pytest.raises(ParseError):
        parse("source I\nsource I\n")          # duplicate source
    with pytest.raises(ParseError):
        parse("id:I\n")                        # rows before source
    with pytest.raises(ParseError):
        parse("source O\nwindow_c[a]\n")       # macro takes no colours
    with pytest.raises(ParseError):
        parse("colors a\nsource I[a,zz]\nid:I[a,zz]\n")  # undeclared colour


def test_colors_header_must_come_first():
    with pytest.raises(ParseError):
        parse("source I\ncolors a\n")


def test_type_mismatch_is_its_own_error():
    with pytest.raises(TypeMismatch) as e:
        parse("source I\nmu_A\n", filename="g.ocd")
    assert isinstance(e.value, ParseError)
    assert e.value.span.line == 2
    assert str(e.value) == ("g.ocd:2:1: cannot compose: top part ends in (I) "
                            "but bottom part starts at (I, I)")
    with pytest.raises(TypeMismatch) as e:
        parse("source I, O\nDelta_A | id:O ;  mu_C\n", filename="g.ocd")
    assert (e.value.span.line, e.value.span.col) == (2, 19)
    assert str(e.value) == ("g.ocd:2:19: cannot compose: top part ends in "
                            "(I, I, O) but bottom part starts at (O, O)")


def test_parse_validates_each_row_once(monkeypatch):
    # 5000 one-generator rows; re-validating the term read so far on each
    # row would walk about 12.5 million slices
    text = render(window_strip(2500))
    rows = len(text.splitlines()) - 1
    walked = []
    validate = DiagramTerm.validate

    def counting(self):
        walked.append(len(self.slices))
        return validate(self)

    monkeypatch.setattr(DiagramTerm, "validate", counting)
    t = parse(text)
    monkeypatch.undo()
    assert syntactic_eq(t, window_strip(2500))
    assert sum(walked) <= 3 * rows


def test_parse_validates_each_atom_once(monkeypatch):
    # three rows of 1500 atoms; folding each row atom by atom would
    # re-validate the growing row, about 3.4 million factors
    text = wide_text(1500)
    walked = []
    validate = DiagramTerm.validate

    def counting(self):
        walked.append(sum(len(sl) for sl in self.slices))
        return validate(self)

    monkeypatch.setattr(DiagramTerm, "validate", counting)
    t = parse(text)
    monkeypatch.undo()
    assert [len(sl) for sl in t.slices] == [1500] * 3
    assert sum(walked) <= 3 * 4500
