"""Command line front end over the library.

One subcommand per invocation:

    check       type-check .ocd files and report their boundaries
    invariants  print the invariant report (sigma, gamma, genus, windows)
    normalize   rewrite a diagram to normal form, optionally logging a trace
    equiv       decide diffeomorphism equivalence of two diagrams
    eval        evaluate a diagram under an algebra (.kfa file or builtin)
    axioms      verify the axioms of an algebra
    examples    list builtin algebras and corpus diagrams

Exit status: 0 success, 1 domain failure (type mismatch, axiom failure,
non-equivalence), 2 usage or unparseable input.  Reports go to stdout,
errors to stderr with file:line:col positions where available.  Every
report has a ``--json`` mirror; batch subcommands accept several files,
with the report order following the input order.
"""

import argparse
import functools
import json
import os
import sys

from .diagram import Gen, OcbordError, fmt_obj
# unused ``parse`` stays bound for tracers that wrap it in each namespace
from .dsl import ParseError, TypeMismatch, parse, parse_file, render  # noqa: F401
from .invariants import invariants, equivalent
from .rewrite import normalize_with_trace, write_trace
from .tqft import (
    BUILTIN_ALGEBRAS,
    _space_name,
    builtin_algebra,
    check_axioms,
    evaluate,
    exact_str,
    load_kfa,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """Bad invocation or unreadable input file (exit code 2)."""


# ---------------------------------------------------------------------------
# Input loading


def _load_term(path):
    try:
        return parse_file(path)
    except OSError as e:
        raise _UsageError(f"{path}: {e.strerror or e}") from None


def _load_algebra(name):
    """`name` is a .kfa path or the name of a builtin algebra."""
    if os.path.exists(name):
        try:
            return load_kfa(name)
        except OcbordError as e:
            raise _UsageError(str(e)) from None
    if os.sep in name or name.endswith(".kfa"):
        raise _UsageError(f"{name}: no such algebra file")
    try:
        return builtin_algebra(name)
    except OcbordError:
        raise _UsageError(
            f"{name!r} is neither an algebra file nor one of the builtins "
            f"({', '.join(BUILTIN_ALGEBRAS)})") from None


# ---------------------------------------------------------------------------
# Report plumbing


def _emit_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _summary(term):
    return {"source": [str(s) for s in term.source],
            "target": [str(s) for s in term.target],
            "generators": sum(1 for sl in term.slices for f in sl
                              if isinstance(f, Gen))}


def _exit_code(e: Exception) -> int:
    """Exit status for an error: 2 for bad usage or unparseable input, 1
    for a domain failure, which includes rows that do not compose."""
    if isinstance(e, TypeMismatch):
        return EXIT_DOMAIN
    if isinstance(e, (_UsageError, ParseError, OSError)):
        return EXIT_USAGE
    return EXIT_DOMAIN


def _batch(ns, work, human):
    """Shared driver for check / invariants / eval.

    ``work(path)`` builds one file's report; a failure becomes an ok=False
    report so the batch keeps going, and the exit code is the worst seen.
    Reports follow the input order.  ``human(rep)`` renders a report
    that succeeded; one that failed reads ``FILE: error``.
    """
    reports = []
    code = EXIT_OK
    for path in ns.files:
        try:
            rep = work(path)
        except (_UsageError, OcbordError) as e:
            rep = {"file": path, "ok": False, "error": str(e)}
            code = max(code, _exit_code(e))
            print(f"error: {e}", file=sys.stderr)
        reports.append(rep)
        if not ns.json:
            for line in human(rep) if rep["ok"] else [f"{path}: error"]:
                print(line)
    if ns.json:
        _emit_json(reports)
    return code


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(ns):
    def work(path):
        return {"file": path, "ok": True, **_summary(_load_term(path))}

    def human(rep):
        yield (f"{rep['file']}: ok: {fmt_obj(rep['source'])} -> "
               f"{fmt_obj(rep['target'])} ({rep['generators']} generators)")

    return _batch(ns, work, human)


def _cmd_invariants(ns):
    def work(path):
        inv = invariants(_load_term(path))
        rep = {"file": path, "ok": True}
        rep.update(inv.to_dict())
        rep["euler"] = sum(c.euler for c in inv.components)
        return rep

    def human(rep):
        yield f"file = {rep['file']}"
        yield f"source = {fmt_obj(rep['source'])}"
        yield f"target = {fmt_obj(rep['target'])}"
        yield f"components = {len(rep['components'])}"
        yield f"sigma = {rep['sigma_cycles']}"
        gam = rep["gamma"]
        pairs = ", ".join(f"{j}:{gam[j]}" for j in sorted(gam, key=int))
        yield f"gamma = {pairs or '(none)'}"
        yield f"genus = {rep['genus']}"
        yield f"windows = {rep['windows']}"
        yield f"euler = {rep['euler']}"
        for i, c in enumerate(rep["components"], start=1):
            win = ",".join(c["windows"])
            yield (f"component {i}: genus {c['genus']}, windows [{win}], "
                   f"euler {c['euler']}")
        yield ""

    return _batch(ns, work, human)


def _cmd_normalize(ns):
    t = _load_term(ns.file)
    nf, tr = normalize_with_trace(t)
    text = render(nf)
    if ns.trace:
        write_trace(tr, ns.trace)
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if ns.json:
        _emit_json({
            "file": ns.file,
            "ok": True,
            "moves": len(tr.moves),
            "normal_form": text,
            "output": ns.output,
            "trace": ns.trace,
        })
    elif ns.output:
        print(f"wrote {ns.output} ({len(tr.moves)} moves)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_equiv(ns):
    a = _load_term(ns.left)
    b = _load_term(ns.right)
    eq = equivalent(a, b)
    if ns.json:
        _emit_json({"left": ns.left, "right": ns.right, "equivalent": eq})
    else:
        print("equivalent" if eq else "not equivalent")
    return EXIT_OK if eq else EXIT_DOMAIN


def _cmd_eval(ns):
    alg = _load_algebra(ns.algebra)

    def work(path):
        t = _load_term(path)
        m = evaluate(t, alg)
        entries = [[r, c, exact_str(v)]
                   for (r, c), v in sorted(m.data.items())]
        dense = [["0"] * m.cols for _ in range(m.rows)]
        for r, c, v in entries:
            dense[r][c] = v
        return {
            "file": path,
            "ok": True,
            "algebra": alg.name or ns.algebra,
            "domain": [str(s) for s in t.source],
            "codomain": [str(s) for s in t.target],
            "rows": m.rows,
            "cols": m.cols,
            "entries": entries,
            "dense": dense,
        }

    def human(rep):
        yield f"file = {rep['file']}"
        yield f"algebra = {rep['algebra']}"
        yield f"domain = {fmt_obj(rep['domain'])} (dim {rep['cols']})"
        yield f"codomain = {fmt_obj(rep['codomain'])} (dim {rep['rows']})"
        yield f"matrix {rep['rows']} x {rep['cols']}:"
        for row in rep["dense"]:
            yield " ".join(row)
        yield ""

    return _batch(ns, work, human)


def _cmd_axioms(ns):
    alg = _load_algebra(ns.algebra)
    rep = check_axioms(alg)
    if ns.json:
        _emit_json({
            "algebra": alg.name or ns.algebra,
            "ok": rep.ok,
            "checked": rep.checked,
            "failures": [{
                **f._asdict(),
                "lhs_column": [exact_str(v) for v in f.lhs_column],
                "rhs_column": [exact_str(v) for v in f.rhs_column],
            } for f in rep.failures],
        })
    else:
        print(f"algebra = {alg.name or ns.algebra}")
        print(rep)
    return EXIT_OK if rep.ok else EXIT_DOMAIN


def _cmd_examples(ns):
    algebras = []
    for name in BUILTIN_ALGEBRAS:
        alg = builtin_algebra(name)
        algebras.append({
            "name": name,
            "colors": list(alg.colors),
            "dims": {_space_name(k): v for k, v in alg.dims.items()},
        })
    corpus = []
    missing = not os.path.isdir(ns.corpus)
    if not missing:
        for fn in sorted(os.listdir(ns.corpus)):
            if not fn.endswith(".ocd"):
                continue
            path = os.path.join(ns.corpus, fn)
            try:
                corpus.append({"file": fn, **_summary(_load_term(path))})
            except (_UsageError, OcbordError) as e:
                corpus.append({"file": fn, "error": str(e)})
    if ns.json:
        _emit_json({"algebras": algebras, "corpus": corpus,
                    "corpus_dir": None if missing else ns.corpus})
        return EXIT_OK
    print("builtin algebras:")
    for a in algebras:
        dims = ", ".join(f"{k} {v}" for k, v in sorted(a["dims"].items()))
        print(f"  {a['name']:<22} colours [{','.join(a['colors'])}]: {dims}")
    print()
    if missing:
        print(f"corpus: no directory {ns.corpus!r} here")
    else:
        print(f"corpus ({ns.corpus}):")
        for c in corpus:
            if "error" in c:
                print(f"  {c['file']:<22} unreadable: {c['error']}")
            else:
                print(f"  {c['file']:<22} {fmt_obj(c['source'])} -> "
                      f"{fmt_obj(c['target'])} ({c['generators']} generators)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on the first :func:`run` and then reused.

    ``parse_args`` keeps no state between calls, and building the seven
    subparsers costs about a millisecond, which every in-process
    :func:`run` call after the first now saves.  A fresh ``ocbord``
    process builds the parser once either way and gains nothing.
    """
    parser = argparse.ArgumentParser(
        prog="ocbord",
        description="open-closed cobordism toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.set_defaults(func=fn)
        return p

    p = add("check", _cmd_check, "type-check diagram files")
    p.add_argument("files", nargs="+", metavar="FILE.ocd")

    p = add("invariants", _cmd_invariants, "report topological invariants")
    p.add_argument("files", nargs="+", metavar="FILE.ocd")

    p = add("normalize", _cmd_normalize, "rewrite a diagram to normal form")
    p.add_argument("file", metavar="FILE.ocd")
    p.add_argument("-o", "--output", metavar="OUT.ocd",
                   help="write the normal form here instead of stdout")
    p.add_argument("--trace", metavar="OUT.log",
                   help="write the checkable move trace here")

    p = add("equiv", _cmd_equiv, "decide equivalence of two diagrams")
    p.add_argument("left", metavar="LEFT.ocd")
    p.add_argument("right", metavar="RIGHT.ocd")

    p = add("eval", _cmd_eval, "evaluate diagrams under an algebra")
    p.add_argument("files", nargs="+", metavar="FILE.ocd")
    p.add_argument("--algebra", required=True, metavar="ALG",
                   help="a .kfa file or a builtin algebra name")

    p = add("axioms", _cmd_axioms, "verify the axioms of an algebra")
    p.add_argument("algebra", metavar="ALG",
                   help="a .kfa file or a builtin algebra name")

    p = add("examples", _cmd_examples,
            "list builtin algebras and corpus diagrams")
    p.add_argument("--corpus", default="corpus", metavar="DIR",
                   help="directory scanned for .ocd files")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if not e.code else EXIT_USAGE
    try:
        return ns.func(ns)
    except (_UsageError, OcbordError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
