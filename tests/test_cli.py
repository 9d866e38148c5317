"""Command line behaviour: reports, exit codes, determinism."""

import copy
import errno
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ocbord
from ocbord.cli import _build_parser, run
from ocbord.diagram import Gen
from ocbord.dsl import parse, parse_file, render
from ocbord.invariants import equivalent
from ocbord.normalform import normal_form
from ocbord.rewrite import check_trace, read_trace
from ocbord.tqft import builtin_matrix_example, evaluate, load_kfa, save_kfa

from helpers import (mu_c_comb_text, mutate_algebra, mutate_kfa_doc,
                     reversed_merge_text, wide_text, window_strip)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FIG = str(CORPUS / "figure1.ocd")


def _ocd(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_check_ok(capsys):
    assert run(["check", FIG]) == 0
    out = capsys.readouterr().out
    assert "figure1.ocd: ok:" in out
    assert "I, O, I, I, I -> O, I, I, O, O" in out


def test_check_syntax_error_exits_2(tmp_path, capsys):
    bad = _ocd(tmp_path, "bad.ocd", "source I\nwobble\n")
    assert run(["check", bad]) == 2
    err = capsys.readouterr().err
    assert "bad.ocd:2:1" in err
    blank = _ocd(tmp_path, "blank.ocd", "# only a comment\n")
    assert run(["check", blank]) == 2
    assert f"error: {blank}:1:1: no source line" in capsys.readouterr().err


@pytest.mark.parametrize("atom, why", [
    ("window_o[a]", "window_o takes 0, 2 or 3 colours"),
    ("window_o[]", "window_o takes 2 or 3 colours in brackets, got 0"),
    ("mu_A(a,b,c)", "mu_A takes [..] colour brackets, not (..)"),
])
def test_check_a_malformed_atom_exits_2(tmp_path, capsys, atom, why):
    bad = _ocd(tmp_path, "bad.ocd", f"source I\n{atom}\n")
    assert run(["check", bad]) == 2
    assert f"error: {bad}:2:1: {why}\n" == capsys.readouterr().err


def test_eval_with_a_missing_algebra_file_exits_2(capsys):
    missing = os.path.join("nothere", "x.kfa")
    assert run(["eval", FIG, "--algebra", missing]) == 2
    assert (capsys.readouterr().err
            == f"error: {missing}: no such algebra file\n")


def test_an_unreadable_algebra_file_is_named_and_exits_2(tmp_path, capsys):
    # a directory exists but does not open as a file, as with a diagram
    d = str(tmp_path)
    for argv in (["axioms", d], ["eval", FIG, "--algebra", d]):
        assert run(argv) == 2
        assert capsys.readouterr().err \
            == f"error: {d}: {os.strerror(errno.EISDIR)}\n"
    assert run(["check", d]) == 2
    assert f"error: {d}: {os.strerror(errno.EISDIR)}\n" \
        == capsys.readouterr().err


def test_check_type_error_exits_1(tmp_path, capsys):
    bad = _ocd(tmp_path, "badtype.ocd", "source I\nmu_A\n")
    assert run(["check", bad]) == 1
    assert "badtype.ocd:2:1" in capsys.readouterr().err


def test_invariants_prints_sigma(capsys):
    assert run(["invariants", FIG]) == 0
    out = capsys.readouterr().out
    assert "sigma = (2 5 6)(3 4)" in out
    assert "genus = 2" in out and "windows = 0" in out


def test_invariants_json_mirror(capsys):
    assert run(["invariants", "--json", FIG]) == 0
    (rep,) = json.loads(capsys.readouterr().out)
    assert rep["sigma_cycles"] == "(2 5 6)(3 4)"
    assert rep["genus"] == 2 and rep["ok"]


def test_normalize_output_revalidates_and_is_equivalent(tmp_path, capsys):
    out = tmp_path / "nf.ocd"
    log = tmp_path / "nf.trace"
    assert run(["normalize", FIG, "-o", str(out), "--trace", str(log)]) == 0
    assert run(["check", str(out)]) == 0
    assert run(["equiv", FIG, str(out)]) == 0
    assert check_trace(read_trace(log))
    capsys.readouterr()


def test_normalize_stdout_is_the_ocd_text(tmp_path, capsys):
    src = _ocd(tmp_path, "h.ocd", "source O\nwindow_c\n")
    assert run(["normalize", src]) == 0
    text = capsys.readouterr().out
    nf = parse(text)
    assert equivalent(nf, parse_file(src))


def test_normalize_a_101_circle_merge(tmp_path, capsys):
    # the split that fans the one circle back out to 101 leaves starts in
    # the reverse of its sorted order: 5050 adjacent swaps
    src = _ocd(tmp_path, "comb.ocd", mu_c_comb_text(101))
    assert run(["normalize", src]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert equivalent(parse(got.out), parse_file(src))


def test_normalize_a_reversed_101_block_merge(tmp_path, capsys):
    # the closed merge of the 101 blocks starts in the reverse of its
    # sorted order: 5050 adjacent swaps
    src = _ocd(tmp_path, "merge.ocd", reversed_merge_text(101))
    assert run(["normalize", src]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert equivalent(parse(got.out), parse_file(src))


def test_normalize_json_report(tmp_path, capsys):
    nf = render(normal_form(parse_file(FIG)))
    out, log = str(tmp_path / "nf.ocd"), str(tmp_path / "nf.trace")
    for argv, files in ((["normalize", "--json", FIG], (None, None)),
                        (["normalize", "--json", FIG, "-o", out,
                          "--trace", log], (out, log))):
        assert run(argv) == 0
        got = capsys.readouterr()
        assert got.err == ""
        assert json.loads(got.out) == {
            "file": FIG, "ok": True, "moves": 43, "normal_form": nf,
            "output": files[0], "trace": files[1]}
    assert len(read_trace(log).moves) == 43
    with open(out, encoding="utf-8") as fh:
        assert fh.read() == nf


def test_equiv_json_report(capsys):
    other = str(CORPUS / "torus.ocd")
    for right, eq in ((FIG, True), (other, False)):
        assert run(["equiv", "--json", FIG, right]) == (0 if eq else 1)
        got = capsys.readouterr()
        assert got.err == ""
        assert json.loads(got.out) == {"left": FIG, "right": right,
                                       "equivalent": eq}


def test_equiv_exit_codes(tmp_path, capsys):
    a = _ocd(tmp_path, "a.ocd", "source O\nwindow_c\n")
    b = _ocd(tmp_path, "b.ocd", "source O\nid:O\n")
    assert run(["equiv", a, a]) == 0
    assert run(["equiv", a, b]) == 1
    out = capsys.readouterr().out
    assert "not equivalent" in out


def test_eval_matches_library(tmp_path, capsys):
    src = _ocd(tmp_path, "w.ocd", "source O\nwindow_w[*]\n")
    assert run(["eval", src, "--algebra", "matrix2"]) == 0
    out = capsys.readouterr().out
    m = evaluate(parse_file(src), builtin_matrix_example(2))
    assert f"matrix {m.rows} x {m.cols}:" in out
    last = [l for l in out.splitlines() if l.strip()][-1]
    assert last.split() == [str(m.entry(0, c)) for c in range(m.cols)]


def test_eval_kfa_file_and_unknown_algebra(tmp_path, capsys):
    src = _ocd(tmp_path, "w.ocd", "source O\nwindow_w[*]\n")
    kfa = tmp_path / "m2.kfa"
    save_kfa(builtin_matrix_example(2), kfa)
    assert run(["eval", src, "--algebra", str(kfa)]) == 0
    assert run(["eval", src, "--algebra", "nonsense"]) == 2
    capsys.readouterr()


def test_eval_colour_mismatch_exits_1(tmp_path, capsys):
    src = _ocd(tmp_path, "c.ocd", "colors a\nsource I[a,a]\nid:I[a,a]\n")
    assert run(["eval", src, "--algebra", "matrix2"]) == 1
    capsys.readouterr()


def test_axioms_pass_and_fail(tmp_path, capsys):
    import random
    assert run(["axioms", "matrix2"]) == 0
    assert "axiom instances hold" in capsys.readouterr().out
    mut, _, _ = mutate_algebra(random.Random(61), builtin_matrix_example(2))
    bad = tmp_path / "mut.kfa"
    save_kfa(mut, bad)
    assert run(["axioms", str(bad)]) == 1
    assert "fail" in capsys.readouterr().out


def test_axioms_json(capsys):
    assert run(["axioms", "--json", "groupoid-pair_z2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["checked"] == 108 and rep["failures"] == []


def test_examples_lists_builtins_and_corpus(capsys):
    assert run(["examples", "--corpus", str(CORPUS)]) == 0
    out = capsys.readouterr().out
    assert "matrix2" in out and "groupoid-s3" in out
    assert "figure1.ocd" in out


def test_examples_reports_unreadable_files_and_a_missing_corpus(tmp_path,
                                                                capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "notes.txt").write_text("not a diagram\n", encoding="utf-8")
    (corpus / "bad.ocd").write_text("source O\nfrobnicate\n",
                                    encoding="utf-8")
    assert run(["examples", "--json", "--corpus", str(corpus)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["corpus_dir"] == str(corpus)
    [bad] = rep["corpus"]
    assert bad["file"] == "bad.ocd" and "frobnicate" in bad["error"]
    assert run(["examples", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"corpus ({corpus}):\n"
                        f"  {'bad.ocd':<22} unreadable: {bad['error']}\n")
    missing = str(tmp_path / "nowhere")
    assert run(["examples", "--json", "--corpus", missing]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["corpus_dir"] is None and rep["corpus"] == []
    assert run(["examples", "--corpus", missing]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"corpus: no directory {missing!r} here\n")


def test_jobs_keeps_input_order(tmp_path, capsys):
    files = [_ocd(tmp_path, f"f{i}.ocd", "source O\nwindow_c\n")
             for i in range(6)]
    assert run(["check"] + files) == 0
    out = [l.split(":")[0] for l in capsys.readouterr().out.splitlines()]
    assert out == [str(Path(f)) for f in files]


def test_invariants_on_a_deep_strip(tmp_path):
    path = _ocd(tmp_path, "strip.ocd", "source I\n" + "window_o\n" * 600)
    assert parse_file(path) == window_strip(600)
    src = str(Path(ocbord.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "ocbord.cli", "invariants",
                           path], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "windows = 600" in proc.stdout


def test_check_and_invariants_on_5000_generators(tmp_path, capsys):
    path = _ocd(tmp_path, "strip.ocd", render(window_strip(2500)))
    assert run(["check", path]) == 0
    assert run(["invariants", path]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert "windows = 2500" in got.out


def test_check_and_invariants_on_a_1500_wide_diagram(tmp_path, capsys):
    path = _ocd(tmp_path, "wide.ocd", wide_text(1500))
    assert run(["check", path]) == 0
    assert run(["invariants", path]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert "components = 1500" in got.out


def test_normalize_refuses_a_layout_past_the_cap(tmp_path):
    # 200 genus-one circles side by side: the normal form would lay out
    # about 19 million factors; under a 1.5 GB address space that ended in
    # a MemoryError traceback
    import resource
    path = _ocd(tmp_path, "wide.ocd", wide_text(200))
    src = str(Path(ocbord.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    limit = 1500 * 2 ** 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "ocbord.cli", "normalize",
                           path], capture_output=True, text=True, env=env,
                          preexec_fn=cap_memory, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "factors" in lines[0]


def test_eval_on_a_1500_wide_diagram(tmp_path, capsys):
    # 1500 components, each one tensor after its own contractions, joined
    # in one pass by _join
    path = _ocd(tmp_path, "wide.ocd", wide_text(1500))
    assert run(["eval", path, "--algebra", "matrix2"]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out.endswith("matrix 1 x 1:\n1\n\n")


def test_numbers_past_the_digit_limit_print_in_full(tmp_path, capsys):
    # str() refuses an integer of more than 4300 digits; a 2200-digit entry
    # in mu_C, Delta_C and eps_C squares past that in eval, in the axioms
    # report (counitL_C) and in a saved algebra
    big = 10 ** 2199 + 7
    square = "1" + "0" * 2197 + "14" + "0" * 2197 + "49"
    path = tmp_path / "big.kfa"
    save_kfa(builtin_matrix_example(1), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    for name in ("mu_C", "Delta_C", "eps_C"):
        doc["maps"][name]["entries"] = [[0, 0, str(big)]]
    path.write_text(json.dumps(doc), encoding="utf-8")
    ocd = _ocd(tmp_path, "merges.ocd",
               "source O, O, O\nmu_C | id:O\nmu_C\n")
    assert run(["eval", "--algebra", str(path), ocd]) == 0
    assert capsys.readouterr().out.endswith(f"matrix 1 x 1:\n{square}\n\n")
    assert run(["eval", "--json", "--algebra", str(path), ocd]) == 0
    rep, = json.loads(capsys.readouterr().out)
    assert rep["entries"] == [[0, 0, square]] and rep["dense"] == [[square]]
    assert run(["axioms", str(path)]) == 1
    assert f"counitL_C fails on basis vector 1: lhs [{square}] != rhs [1]" \
        in capsys.readouterr().out
    assert run(["axioms", "--json", str(path)]) == 1
    fail, = (f for f in json.loads(capsys.readouterr().out)["failures"]
             if f["axiom"] == "counitL_C")
    assert (fail["lhs_column"], fail["rhs_column"]) == ([square], ["1"])
    alg = load_kfa(path)
    alg.maps[("eps_C", ())] = evaluate(parse_file(ocd), alg)
    save_kfa(alg, tmp_path / "square.kfa")
    assert f'"{square}"' in (tmp_path / "square.kfa").read_text("utf-8")


@pytest.mark.parametrize("mangle, why", [
    (lambda doc: [], "missing 'format': 'kfa' marker"),
    (lambda doc: {**doc, "dims": [1]}, "malformed algebra file"),
    (lambda doc: {**doc, "dims": {**doc["dims"], "C": -1}},
     "negative dimension -1"),
    (lambda doc: {**doc, "maps": {**doc["maps"], "mu_C": {
        **doc["maps"]["mu_C"], "entries": [[0, 0, "1/0"]]}}},
     "malformed algebra file"),
    (lambda doc: {**doc, "dims": {k: v for k, v in doc["dims"].items()
                                  if k != "C"}}, "missing space C"),
    (lambda doc: {**doc, "maps": {**doc["maps"], "mu_C": {
        **doc["maps"]["mu_C"], "rows": 2}}},
     "map mu_C has shape 2x1, want 1x1"),
    (lambda doc: {**doc, "dims": {**doc["dims"], "B[x]": 1}},
     "bad space name 'B[x]'"),
    (lambda doc: {**doc, "dims": {"C": doc["dims"]["C"]}},
     "missing space A[*,*]"),
    (lambda doc: {**doc, "basis": {**doc["basis"], "A[*,*]": ["x"]}},
     "basis of A[*,*] has 1 label(s), want 4"),
    (lambda doc: {**doc, "basis": {**doc["basis"], "A[q,q]": ["x"]}},
     "basis for undeclared space A[q,q]"),
    (lambda doc: {**doc, "dims": {**doc["dims"], "C": float("inf")}},
     "malformed algebra file"),
    (lambda doc: {**doc, "maps": {**doc["maps"], "mu_C": {
        **doc["maps"]["mu_C"], "entries": [[0, 0, float("inf")]]}}},
     "malformed algebra file"),
    (lambda doc: {**doc, "dims": {**doc["dims"], "C": 1.9}},
     "malformed algebra file"),
    (lambda doc: {**doc, "dims": {**doc["dims"], "C": True}},
     "malformed algebra file"),
    (lambda doc: {**doc, "maps": {**doc["maps"], "mu_C": {
        **doc["maps"]["mu_C"], "entries": [[0, 0, 0.1]]}}},
     "malformed algebra file"),
    (lambda doc: {**doc, "colors": [["*"]]},
     "colour or basis label ['*'] is not a string"),
    # eps_A[*] doubled on e22 fails an axiom, whose report would name a
    # basis vector by its label
    (lambda doc: {**doc, "basis": {**doc["basis"], "A[*,*]": [1, 2, 3, 4]},
                  "maps": {**doc["maps"], "eps_A[*]": {
                      **doc["maps"]["eps_A[*]"],
                      "entries": [[0, 0, "1"], [0, 3, "2"]]}}},
     "colour or basis label 1 is not a string"),
    (lambda doc: {**doc, "name": ["x"]}, "name ['x'] is not a string"),
    # a string where an array belongs is not split into characters
    (lambda doc: {**doc, "colors": "*"}, "'*' is not an array"),
    (lambda doc: {**doc, "colors": "ab"}, "'ab' is not an array"),
    (lambda doc: {**doc, "basis": {**doc["basis"], "A[*,*]": "abcd"}},
     "'abcd' is not an array"),
    # json.load and a dict keep the last of two values for one place
    (lambda doc: {**doc, "maps": {**doc["maps"], "eps_C": {
        **doc["maps"]["eps_C"], "entries": [[0, 0, "1"], [0, 0, "7"]]}}},
     "entry (0, 0) given twice"),
    # names that save_kfa writes for no colour of the file
    (lambda doc: {**doc, "maps": {**doc["maps"], "bogus": {
        "rows": 1, "cols": 1, "entries": []}}}, "bad map name 'bogus'"),
    (lambda doc: {**doc, "maps": {**doc["maps"],
                                  "mu_C[x]": doc["maps"]["mu_C"]}},
     "bad map name 'mu_C[x]'"),
    (lambda doc: {**doc, "dims": {**doc["dims"], "A[q,q]": 1}},
     "bad space name 'A[q,q]'"),
    # a zero entry is range-checked before it is dropped
    (lambda doc: {**doc, "maps": {**doc["maps"], "eps_C": {
        **doc["maps"]["eps_C"], "entries": [[0, 0, "1"], [7, 3, "0"]]}}},
     "entry (7,3) out of range"),
    (lambda doc: {**doc, "maps": {**doc["maps"], "eps_C": {
        **doc["maps"]["eps_C"], "entries": [[0, 0, "1"], [-1, 0, "0"]]}}},
     "entry (-1,0) out of range"),
    (lambda doc: {**doc, "colors": ["*", "*"]},
     "colour '*' is listed 2 times"),
    (lambda doc: {**doc, "dims": {**doc["dims"], "A[ *,*]": 4}},
     "'A[*,*]' given twice"),
    (lambda doc: {**doc, "maps": {**doc["maps"], "eps_C": {
        **doc["maps"]["eps_C"], "entries": ""}}}, "'' is not an array"),
], ids=["not-an-object", "dims-not-an-object", "negative-dimension",
        "zero-denominator", "no-space-C", "mu_C-misshapen", "bad-space-name",
        "no-space-A", "one-label", "undeclared-basis", "inf-dimension",
        "inf-entry", "float-dimension", "bool-dimension", "float-entry",
        "list-colour", "int-labels", "list-name", "string-colour",
        "string-colours", "string-labels", "entry-twice", "bogus-map",
        "map-of-another-colour", "space-of-another-colour",
        "zero-past-the-rows", "zero-at-row-minus-1", "colour-twice",
        "space-named-twice", "string-entries"])
def test_axioms_on_a_malformed_kfa_exits_2(tmp_path, capsys, mangle, why):
    path = tmp_path / "bad.kfa"
    save_kfa(builtin_matrix_example(2), path)
    doc = mangle(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["axioms", str(path)],
                 ["eval", "--algebra", str(path), FIG]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert why in err, argv


@pytest.mark.parametrize("text, why", [
    ("[" * 200000 + "]" * 200000, "not valid JSON"),
    ('{"format": "kfa", "colors": ["*"], "dims": {"C": 1e999}, '
     '"basis": {}, "maps": {}}', "malformed algebra file"),
    ('{"format": "kfa", "dims": {"C": 1' + "0" * 5000 + '}}',
     "not valid JSON"),
    ('{"format": "kfa", "colors": [], "dims": {"C": 1}, "basis": {}, '
     '"maps": {"eps_C": {"rows": 1, "cols": 1, "entries": [[0, 0, "1'
     + "0" * 5000 + '/0"]]}}}', "malformed algebra file: zero denominator"),
], ids=["nested-200000-deep", "dimension-1e999", "dimension-5001-digits",
        "over-5001-digits-by-0"])
def test_a_kfa_that_json_cannot_hold_exits_2(tmp_path, capsys, text, why):
    # json.load recurses once per nesting level, reads 1e999 as inf and
    # refuses to convert an integer of more than 4300 digits; Fraction(p, 0)
    # spells p out in its error text
    path = tmp_path / "bad.kfa"
    path.write_text(text, encoding="utf-8")
    for argv in (["axioms", str(path)],
                 ["eval", "--algebra", str(path), FIG]):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") \
            and err.count("\n") == 1 and why in err, argv


def _as_saved(doc):
    """The part of a ``.kfa`` JSON value that a load and a save give
    back: not key order, blanks in names, a missing name, zero entries in
    range, the text of each number or a key that save_kfa never writes."""
    def name(k):
        return "".join(k.split())

    def entries(m):
        rows, cols, got = m["rows"], m["cols"], m["entries"]
        return sorted((r, c, Fraction(v)) for r, c, v in got
                      if Fraction(v) or not (0 <= r < rows and 0 <= c < cols)
                      ) if type(got) is list else got

    return (doc.get("name", ""), doc["colors"],
            {name(k): v for k, v in doc["dims"].items()},
            {name(k): v for k, v in doc["basis"].items()},
            {name(k): (m["rows"], m["cols"], entries(m))
             for k, m in doc["maps"].items()})


def test_a_mangled_kfa_is_refused_or_saved_back_as_read(tmp_path, capsys):
    # the save-load fixpoint: a mangled shipped algebra is refused with one
    # error line, or loads into one that save_kfa writes back as the same
    # JSON value, up to what the format leaves free
    rng = random.Random(28)
    shipped = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((CORPUS.parent / "algebras").glob("*.kfa"))]
    path, back = tmp_path / "mangled.kfa", tmp_path / "back.kfa"
    refused = 0
    for _ in range(60):
        doc = copy.deepcopy(rng.choice(shipped))
        how = mutate_kfa_doc(rng, doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["axioms", str(path)])
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and err.startswith("error: ") \
                and err.count("\n") == 1, how
            refused += 1
            continue
        save_kfa(load_kfa(path), back)
        assert _as_saved(json.loads(back.read_text(encoding="utf-8"))) \
            == _as_saved(doc), how
    assert 0 < refused < 60


def test_axioms_on_a_huge_kfa_exits_1(tmp_path, capsys):
    # every space has dimension 10^6 and every map the matching shape, so
    # the file loads; evaluation must refuse it before allocating
    path = tmp_path / "huge.kfa"
    save_kfa(builtin_matrix_example(2), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    big = 10 ** 6
    doc["dims"] = {k: big for k in doc["dims"]}
    doc["basis"] = {}
    for name, m in doc["maps"].items():
        kind, _, rest = name.partition("[")
        gen = Gen(kind, tuple(c for c in rest.rstrip("]").split(",") if c))
        m.update(rows=big ** len(gen.target), cols=big ** len(gen.source),
                 entries=[])
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["axioms", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the cap" in err


@pytest.mark.parametrize("labels", [None], ids=["no-labels"])
def test_axioms_name_an_unlabelled_basis_vector_by_its_index(
        tmp_path, capsys, labels):
    # eps_A[*] doubled on e22 breaks the counit laws; the file labels no
    # basis vector of A[*,*]
    path = tmp_path / "unlabelled.kfa"
    save_kfa(builtin_matrix_example(2), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["maps"]["eps_A[*]"]["entries"] = [[0, 0, "1"], [0, 3, "2"]]
    del doc["basis"]["A[*,*]"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["axioms", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1:] == [
        "4 of 24 axiom instances fail:",
        "  counitL_A[*,*] fails on basis vector 2: "
        "lhs [0, 0, 2, 0] != rhs [0, 0, 1, 0]",
        "  counitR_A[*,*] fails on basis vector 1: "
        "lhs [0, 2, 0, 0] != rhs [0, 1, 0, 0]",
        "  symm_A[*,*] fails on basis vector 1 (x) 2: lhs [1] != rhs [2]",
        "  duality[*] fails on basis vector 3 (x) 1: lhs [1] != rhs [2]"]


def test_non_utf8_files_exit_2(tmp_path, capsys):
    ocd, kfa = tmp_path / "junk.ocd", tmp_path / "junk.kfa"
    for p in (ocd, kfa):
        p.write_bytes(b"\xff\xfe\x00bad")
    for argv in (["check", str(ocd)],
                 ["eval", str(ocd), "--algebra", "matrix2"],
                 ["eval", FIG, "--algebra", str(kfa)],
                 ["axioms", str(kfa)]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "can't decode byte 0xff" in err, argv


def test_library_readers_raise_their_own_errors_on_non_utf8(tmp_path):
    junk = tmp_path / "junk"
    junk.write_bytes(b"\xff\xfe\x00bad")
    for read, error in ((parse_file, ocbord.ParseError),
                        (read_trace, ocbord.TraceError)):
        with pytest.raises(error) as e:
            read(junk)
        assert str(e.value).startswith(f"{junk}: not UTF-8 text: ")
        assert "can't decode byte 0xff" in str(e.value)


def test_batch_keeps_going_after_errors(tmp_path, capsys):
    good = _ocd(tmp_path, "good.ocd", "source O\nid:O\n")
    bad = _ocd(tmp_path, "bad.ocd", "source O\nnope\n")
    assert run(["check", bad, good]) == 2
    got = capsys.readouterr()
    assert "good.ocd: ok:" in got.out
    assert "bad.ocd: error" in got.out
    assert "nope" in got.err


def test_reports_are_byte_identical(capsys):
    assert run(["invariants", FIG]) == 0
    first = capsys.readouterr().out
    assert run(["invariants", FIG]) == 0
    assert capsys.readouterr().out == first


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["eval", FIG]) == 2          # --algebra is required
    assert run(["equiv", FIG]) == 2
    assert run(["check", "no_such_file.ocd"]) == 2
    capsys.readouterr()


def test_a_reused_parser_keeps_no_state(capsys):
    # the parser is built once per process; a usage error, a valid run and
    # the same usage error again must not see each other
    _build_parser.cache_clear()
    seen = []
    for argv in (["eval", FIG], ["check", FIG], ["eval", FIG],
                 ["check", FIG]):
        code = run(argv)
        seen.append((code, *capsys.readouterr()))
    assert _build_parser.cache_info().misses == 1
    assert seen[0] == seen[2] and seen[1] == seen[3]
    assert seen[0][0] == 2 and "--algebra" in seen[0][2]
    assert seen[1][0] == 0 and "figure1.ocd: ok:" in seen[1][1]


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert run(["normalize", "--help"]) == 0
    capsys.readouterr()


def test_cli_outputs_match_the_pinned_digest():
    # every CLI output on the corpus, byte for byte: a change that means
    # to alter outputs updates this total and says so
    proc = subprocess.run(
        [sys.executable, str(CORPUS.parent / "scripts" / "cli_digest.py")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "f99a0443c6723e7ec05d2df589874bfa8cd0821926b9c64cf1bdbb8e2d304e3e"
        "  total over 310 outputs")


def test_a_fresh_cli_process_imports_no_heavy_stdlib_module():
    # each subcommand runs in a fresh interpreter, where these imports
    # would cost more than the work on a corpus file
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import ocbord.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code,
         str(Path(ocbord.__file__).parent.parent)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "ocbord.cli" in added
    assert added & {"dataclasses", "inspect", "importlib.resources"} == set()
    # decimal is imported only to write or read numbers past the digit
    # limit, unless fractions imports it anyway (it does on 3.11 to 3.13)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c",
         "import sys, fractions; print('decimal' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.stdout == "True\n" or "decimal" not in added
