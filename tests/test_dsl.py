"""Text format: parsing, rendering, macros, and error positions."""

import itertools
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from ocbord import diagram, dsl
from ocbord.diagram import (DiagramTerm, Gen, Seg, TypingError, compose,
                            fmt_obj, gen_term, graph_eq, identity_term,
                            syntactic_eq, tensor, to_port_graph)
from ocbord.dsl import ParseError, TypeMismatch, parse, parse_file, render
from ocbord.invariants import invariants

from helpers import (_scan_split, macro_reference, random_term, statements,
                     tensor_parse, wide_text, window_strip)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the ladder workload's walk generator)


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


def test_each_macro_expands_as_its_hand_built_reference():
    # every colour list of length 0-4 over a, b, * and c1, the bare atom
    # and malformed brackets: the same term and target, or the same error
    args = [None, *(",".join(c) for n in range(5)
                    for c in itertools.product(("a", "b", "*", "c1"),
                                               repeat=n)),
            "a b", "1x", "a,,b", "", "a,b,*,c1,a"]
    span = dsl.SourceSpan("m.ocd", 3, 7)
    assert set(dsl._MACROS) == {
        "window_o", "window_c", "window_w", "saddle_cross_l",
        "saddle_cross_r", "saddle_zip_l", "saddle_zip_r", "saddle_cozip_l",
        "saddle_cozip_r"}
    cases = 0
    for name in dsl._MACROS:
        for arg in args:
            try:
                got = dsl._macro(name, arg, span)
            except ParseError as e:
                got = str(e)
            try:
                want = macro_reference(name, arg, span)
            except ParseError as e:
                want = str(e)
            assert got == want, (name, arg)
            if isinstance(want, DiagramTerm):
                assert got.target == want.validate(), (name, arg)
            cases += 1
    assert cases == 9 * 347


def test_the_readme_lists_each_macro_text():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name, (names, text) in dsl._MACROS.items():
        atom = f"{name}[{','.join(names)}]" if names else name
        text = text.format(**{v: v for v in names})
        assert f"- `{atom}`: `{text}`" in readme, name


def test_window_o_colour_names_are_checked():
    # a name parse accepted would reach render, whose text parse rejects
    for bad in ("b b", "1x"):
        with pytest.raises(ParseError) as e:
            parse(f"source O, I[a,c]\nid:O | window_o[a,{bad},c]\n",
                  filename="w.ocd")
        assert str(e.value) == f"w.ocd:2:1: bad colour name {bad!r}"
    for text in ("source I\nwindow_o\n",
                 "colors a, b\nsource I[a,b]\nwindow_o[a,b]\n",
                 "colors a, s, b\nsource I[a,b]\nwindow_o[a,s,b]\n"):
        t = parse(text)
        assert syntactic_eq(parse(render(t)), t), text


def test_saddle_macros_type():
    # each saddle is one disc: a single genus-0 component
    saddles = {
        "saddle_cross_l[a,b,c,d]": ("I[a,c], I[b,d]", "I[a,d], I[b,c]"),
        "saddle_cross_r[a,b,c,d]": ("I[d,b], I[a,c]", "I[a,b], I[d,c]"),
        "saddle_zip_l[a,b]": ("O, I[a,b]", "I[a,b]"),
        "saddle_zip_r[a,b]": ("I[a,b], O", "I[a,b]"),
        "saddle_cozip_l[a,b]": ("I[a,b]", "O, I[a,b]"),
        "saddle_cozip_r[a,b]": ("I[a,b]", "I[a,b], O"),
    }
    for atom, (src, tgt) in saddles.items():
        t = parse(f"colors a, b, c, d\nsource {src}\n{atom}\n")
        assert fmt_obj(t.target) == tgt, atom
        assert [c.genus for c in invariants(t).components] == [0], atom
        assert parse(render(t)) == t, atom


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
    with pytest.raises(ParseError, match=r"window_o takes 2 or 3 colours "
                       r"in brackets, got 0"):
        parse("source I\nwindow_o[]\n")        # empty brackets are not bare
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


def test_render_type_checks_a_term_once(monkeypatch):
    from ocbord.rewrite import normalize_with_trace
    terms = []
    for f in sorted(CORPUS.glob("*.ocd")):
        nf, trace = normalize_with_trace(parse_file(f))
        terms += [nf, trace.initial, trace.final]
    walked = []
    validate = DiagramTerm.validate

    def counting(self):
        walked.append(self)
        return validate(self)

    monkeypatch.setattr(DiagramTerm, "validate", counting)
    for t in terms:
        render(t)
    assert walked == []
    bad = DiagramTerm((Seg.O(),), ((Gen("mu_C"),),))
    with pytest.raises(TypingError):
        render(bad)
    assert walked == [bad]


def test_colour_header_is_checked_against_the_atom_colours():
    # rendered coloured terms, with the header intact, thinned by one
    # colour, or naming one more; and colours met only on the source
    rng = random.Random(4242)
    texts = []
    for _ in range(300):
        text = render(random_term(rng, max_gens=15, colors=("a", "b", "c"),
                                  connected=False))
        head, _, rest = text.partition("\n")
        if not head.startswith("colors "):
            continue
        names = head[len("colors "):].split(", ")
        texts.append(text)
        texts.append("colors " + ", ".join(names[1:]) + "\n" + rest)
        texts.append("colors " + ", ".join(names + ["z"]) + "\n" + rest)
    assert len(texts) > 600
    texts += ["colors a\nsource I[a,b]\n", "colors a\nsource I[a,b]\n"
              "id:I[a,b]\n",
              "colors b\nsource I[a,b], O\nid:I[a,b] | window_w[b]\n",
              "colors a, b\nsource I[a,b]\nid:I[a,b]\n",
              "colors a\nsource O\nwindow_w[a] ; window_w[c]\n"
              "window_w[b] ; window_w[d]\n"]
    failed = 0
    for text in texts:
        new, old = _outcome(text)
        assert new == old, text
        failed += not isinstance(new, str)
    assert failed > 200


# rows on the boundary I, O that parse and keep it
_GOOD_ROWS = ["id:I | id:O", "window_o | id:O", "id:I | window_c",
              "Delta_A | id:O ; mu_A | id:O", "cross(I, O) ; cross(O,I)",
              "id:I|Delta_C;id:I|mu_C",
              "  id:I |   id:O  ", "id:I|id:O", "window_o|id:O",
              "id:I  |  id:O", "\tid:I\t|\tid:O\t", "id:I[*,*]|id:O",
              "id:I[*, *]  |  window_c", "Delta_A|id:O\nmu_A\t| id:O"]
# rows that fail to parse or to compose there
_BAD_ROWS = [
    "mu_A[a|b,c] | id:O", "mu_A[a | b,c] | id:O",  # | inside brackets
    "mu_A[a |b,c]|id:O", "id:I | cross(I|O)",
    "id:I | id:O | eps_Q", "id:I|frob_x|id:O",  # new bad atom among hits
    "id:I||id:O", "id:I\t|\tid:O\t|",  # empty atoms, bare or tabbed
    "id:I|id:O|mu_C", "id:I  |  mu_A", "window_o|id:O|id:I",  # no compose
    "\t id:I | frob",               # an error past the indent
    "id:I] | id:O", "id:I | id:O]",  # stray ]
    "cross(I,O)) | id:O", ")id:I | id:O",  # stray )
    "id:I |  | id:O", "| id:I | id:O", "id:I | id:O |",  # empty atoms
    "frob | id:O", "id:I | window_x[a]",  # unknown atoms
    "mu_A[a,b] | id:O",             # wrong colour count
    "eta_A[1a] | id:I | id:O", "zip[a b] | id:I",  # bad colours
    "id:I | id:O | mu_C", "mu_A | id:O",  # do not compose
    "cross(I) | id:O", "cross(I,O | id:O",
]
_BAD_HEADS = ["colors a, b]", "colors a, (b", "source I, I[a,b", "source I],O"]


def _outcome(text):
    got = []
    for read in (parse, tensor_parse):
        try:
            t = read(text, "m.ocd")
        except Exception as e:  # any kind: type and text must agree
            got.append((type(e), str(e)))
        else:
            got.append(render(t))
    return got


def test_row_table_parse_equals_the_tensor_parse():
    texts = [f.read_text(encoding="utf-8")
             for f in sorted(CORPUS.glob("*.ocd"))]
    assert len(texts) == 13
    rng = random.Random(314159)
    texts += [render(random_term(rng, max_gens=25, max_width=6))
              for _ in range(500)]
    texts += [gen.ladder_walk(n, str(n)).text() for n in (200, 400, 800, 1600)]
    texts.append(render(window_strip(500)))
    for k, text in enumerate(texts):
        t, ref = parse(text), tensor_parse(text)
        assert syntactic_eq(t, ref), k
        assert t.target == ref.target == t.validate(), k

    # rows joined by newlines, CRLF or ;, with or without a closing
    # comment, so that both line readers run
    rng = random.Random(8)
    failed = 0
    for k in range(600):
        rows = rng.choices(_GOOD_ROWS, k=rng.randrange(3))
        if k < 400:
            bad = rng.choice(_BAD_ROWS)
            rows.append(bad)
            rows += rng.choices(_GOOD_ROWS, k=rng.randrange(2))
            if rng.random() < 0.5:
                rows.append(bad)        # the first of the two must win
        head = "source I, O"
        if k < 400 and rng.random() < 0.1:
            head = rng.choice(_BAD_HEADS) + "\n" + head
        text = head + "\n" + rng.choice(["\n", " ; "]).join(rows) + "\n"
        if rng.random() < 0.5:
            text = text.replace("\n", "\r\n")
        if rng.random() < 0.5:
            text += "# comment\n"
        new, old = _outcome(text)
        assert new == old, text
        failed += not isinstance(new, str)
    assert failed == 400


def test_the_first_bad_atom_wins():
    with pytest.raises(ParseError) as e:
        parse("source I\nid:I\nbogus\nid:I | bogus\n", filename="f.ocd")
    assert str(e.value) == "f.ocd:3:1: unknown atom 'bogus'"


def test_parse_reads_each_distinct_atom_once(monkeypatch):
    # the 500-window_o strip has 1000 rows of two distinct atoms; parsing
    # each atom afresh, validating every row and then the whole term in
    # to_port_graph would take 1000 atom reads and 2001 validations
    text = render(window_strip(500))
    distinct = {a.strip() for row in text.splitlines()[1:]
                for a in row.split("|")}
    read, walked = [], []
    parse_atom, validate = dsl._parse_atom, DiagramTerm.validate
    dsl._ATOMS.clear()      # the table is shared with every earlier parse

    def counting_atom(a, span):
        read.append(a)
        return parse_atom(a, span)

    def counting_validate(self):
        walked.append(len(self.slices))
        return validate(self)

    monkeypatch.setattr(dsl, "_parse_atom", counting_atom)
    monkeypatch.setattr(DiagramTerm, "validate", counting_validate)
    t = parse(text)
    g = to_port_graph(t)
    monkeypatch.undo()
    assert len(g.nodes) == len(t.slices) == 1000
    assert sorted(read) == sorted(distinct)
    assert len(walked) <= len(distinct)
    assert len(t.slices) not in walked


def test_the_atom_table_is_emptied_at_its_cap(monkeypatch):
    texts = ["source\n" + "".join(f"eta_A[c{i}{j}]\neps_A[c{i}{j}]\n"
                                   for j in range(4)) for i in range(3)]
    sizes = []

    class Table(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    monkeypatch.setattr(dsl, "ATOM_TABLE_CAP", 5)
    monkeypatch.setattr(dsl, "_ATOMS", Table())
    small = [parse(text) for text in texts]
    monkeypatch.undo()
    assert len(sizes) == 24 and max(sizes) == 5
    assert small == [parse(text) for text in texts]


def _counting(monkeypatch, name):
    """Replace ``dsl.<name>`` by a wrapper that lists its first argument."""
    calls, real = [], getattr(dsl, name)

    def counting(first, *rest):
        calls.append(first)
        return real(first, *rest)

    monkeypatch.setattr(dsl, name, counting)
    return calls


def test_each_atom_is_read_once_however_the_rows_are_spaced(monkeypatch):
    # one file rendered, with bare | and with doubled spaces: the raw
    # pieces differ, the stripped atoms do not
    text = render(parse(gen.ladder_walk(400, "400").text()))
    texts = [text, text.replace(" | ", "|"), text.replace(" | ", "  |  ")]
    distinct = {a.strip() for row in text.splitlines()[1:]
                for a in row.split("|")}
    dsl._ATOMS.clear()
    read = _counting(monkeypatch, "_parse_atom")
    terms = [parse(t) for t in texts]
    monkeypatch.undo()
    assert sorted(read) == sorted(distinct)
    assert terms[0] == terms[1] == terms[2]


def test_only_a_row_with_a_first_seen_piece_is_read_the_long_way(
        monkeypatch):
    # a row goes to _read_row only when one of its raw | pieces is in no
    # earlier row, as raw or stripped text; every other row is read from
    # the table
    strip = render(window_strip(500))
    ladder = gen.ladder_walk(400, "400").text()
    for text, most in ((strip, 2), (ladder, None),
                       (ladder.replace(" | ", "|"), None)):
        rows = text.splitlines()[1:]
        seen, fresh = set(), 0
        for row in rows:
            pieces = set(row.split("|"))
            fresh += not pieces <= seen
            seen |= pieces | {p.strip() for p in pieces}
        dsl._ATOMS.clear()
        long_way = _counting(monkeypatch, "_read_row")
        parse(text)
        parse(text)
        monkeypatch.undo()
        assert len(long_way) == fresh <= (most or len(rows) // 10)


def test_a_segment_is_shared_per_value():
    assert Seg.I("a", "b") is Seg.I("a", "b") is parse(
        "source I[a,b]\nid:I[a,b]\n").target[0]
    assert Seg.O() is Seg.O() and Seg.I() is Seg.I("*", "*")
    assert Seg.I("a", "b") is not Seg.I("b", "a")
    t = parse("source O, I\nid:O | id:I\n")
    assert all(a is b for a, b in zip(t.source, t.target))


def test_segments_and_aliases_are_held_under_the_caps(monkeypatch):
    # rendered rows are spaced, so their pieces are stored as aliases
    rng = random.Random(99)
    colors = tuple(f"c{i}" for i in range(8))
    texts = [render(random_term(rng, max_gens=15, colors=colors,
                                connected=False)) for _ in range(40)]
    sizes = []

    class Table(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    segs = lru_cache(maxsize=5)(Seg)
    monkeypatch.setattr(diagram, "_shared_seg", segs)
    monkeypatch.setattr(dsl, "ATOM_TABLE_CAP", 6)
    monkeypatch.setattr(dsl, "_ATOMS", Table())
    small = [parse(text) for text in texts]
    monkeypatch.undo()
    info = segs.cache_info()
    assert info.currsize == 5 and info.misses - info.currsize > 20
    assert len(sizes) > 20 and max(sizes) == 6
    assert small == [parse(text) for text in texts]


def test_a_shared_atom_is_checked_against_each_colors_header():
    atom = "mu_A[a,b,a]"
    t = parse(f"colors a, b\nsource I[a,b], I[b,a]\n{atom}\n", "f.ocd")
    assert t.target == (Seg.I("a", "a"),)
    assert atom in dsl._ATOMS
    with pytest.raises(ParseError) as e:
        parse(f"colors a\nsource I[a,b], I[b,a]\n{atom}\n", "g.ocd")
    assert str(e.value) == ("g.ocd:1:1: colour(s) ['b'] not declared in "
                            "the colors header")


def test_a_malformed_atom_is_reported_where_each_file_has_it():
    bad = "mu_A[a,b]"
    for text, where in (("source I\n" + bad + "\n", "f.ocd:2:1"),
                        ("source I\nid:I\n  id:I ; " + bad + "\n",
                         "g.ocd:3:10")):
        with pytest.raises(ParseError) as e:
            parse(text, where.split(":")[0])
        assert str(e.value) == f"{where}: mu_A takes 3 colour(s), got 2"
    assert bad not in dsl._ATOMS


def test_split_top_equals_the_character_scan():
    # stray and unbalanced brackets included: each closer lowers the depth
    rng = random.Random(2718)
    for _ in range(20000):
        text = "".join(rng.choice("ab,|[]() I*")
                       for _ in range(rng.randint(0, 16)))
        for sep in ",|":
            assert dsl._split_top(text, sep) == _scan_split(text, sep), \
                (text, sep)


def test_a_batch_reads_each_distinct_atom_once(monkeypatch, capsys):
    from ocbord.cli import run
    paths = sorted(CORPUS.glob("*.ocd"))
    assert len(paths) == 13

    def atoms(texts):
        return {a for text in texts for stmt, _, _ in statements(text)
                if stmt.split()[0] not in ("colors", "source")
                for a in dsl._split_top(stmt, "|")}

    def macro_text(atom):
        # the .ocd text a macro atom is read as; window_o[a,b] is
        # window_o[a,a,b] and a bare macro takes * for every colour
        name, _, arg = atom.partition("[")
        names, text = dsl._MACROS[name]
        cols = dsl._split_top(arg[:-1]) if arg else ["*"] * len(names)
        if name == "window_o" and len(cols) == 2:
            cols.insert(0, cols[0])
        return text.format(**dict(zip(names, cols)))

    distinct = atoms(p.read_text(encoding="utf-8") for p in paths)
    macros = {a for a in distinct if a.partition("[")[0] in dsl._MACROS}
    assert len(macros) == 9
    distinct |= atoms(map(macro_text, macros))
    read = []
    parse_atom = dsl._parse_atom

    def counting_atom(a, span):
        read.append(a)
        return parse_atom(a, span)

    dsl._ATOMS.clear()
    monkeypatch.setattr(dsl, "_parse_atom", counting_atom)
    assert run(["check", *map(str, paths)]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().err == ""
    assert sorted(read) == sorted(distinct)
