"""Text format for cobordism diagrams (``.ocd`` files).

Grammar, informally::

    file  ::= [ "colors" name ("," name)* ]  "source" seglist  row*
    row   ::= atom ("|" atom)*
    seg   ::= "O" | "I" | "I[" name "," name "]"

Statements are separated by newlines or ``;``.  ``#`` starts a line
comment.  Atoms are the ten generators (``mu_A[a,b,c]``, ``eta_A[a]``,
``Delta_A[a,b,c]``, ``eps_A[a]``, ``mu_C``, ``eta_C``, ``Delta_C``,
``eps_C``, ``zip[a]``, ``cozip[a]``), identities ``id:O`` / ``id:I[a,b]``,
crossings ``cross(seg,seg)``, and macros that expand to composites:
six saddles, ``window_o`` (hole in a strip), ``window_c`` (hole through a
closed sheet) and ``window_w`` (free window on a circle), each read
from its ``.ocd`` text in ``_MACROS``.  Colour brackets may be omitted;
a bare atom uses the colour ``*``.

Within a row the atoms bind left to right against the current boundary;
an atom with empty source (``eta_A``, ``eta_C``) sits at the cursor
position between its neighbours' wires.  Each distinct atom text is read
and type-checked once per process, into a table that every ``parse`` call
shares.  A text with no ``#`` and no ``;`` is read straight from its
lines.  A row is split on ``|`` by ``str.split`` and each raw piece is
looked up as it stands; a row found whole is assembled from the entries,
and a row of one-slice atoms is joined straight into one slice.  A row
with a piece not in the table goes through :func:`_read_row`: split
bracket-aware, each atom stripped, each new atom read by
:func:`_parse_atom`, and each raw piece stored as an alias of its atom's
entry when the two splits agree.  The table is emptied at
``ATOM_TABLE_CAP`` entries, aliases included.  Each entry keeps the
colours its atom uses, and the ``colors`` header is checked against
those.  Segments come from the shared table of :class:`Seg`, which
evicts its least recently used entry at ``diagram.SEG_TABLE_CAP``, so a
row's typing check compares identical objects.  A source span is built
only for an error or for an atom seen for the first time.

>>> t = parse("source I,I ; mu_A ; Delta_A")
>>> print(render(t), end="")
source I, I
mu_A
Delta_A
>>> print(render(parse("source O; window_w[a]")), end="")
colors a
source O
zip[a]
cozip[a]
"""

from __future__ import annotations

import re
from itertools import count, repeat
from typing import NamedTuple

from .diagram import (
    GEN_ARITY,
    Cross,
    DiagramTerm,
    Gen,
    OcbordError,
    Seg,
    TypingError,
    _id_slice,
    check_composable,
    fmt_obj,
    gen_term,
    identity_term,
    DEFAULT_COLOR,
)


class SourceSpan(NamedTuple):
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(OcbordError):
    def __init__(self, msg: str, span: SourceSpan = None):
        self.span = span
        super().__init__(f"{span}: {msg}" if span else msg)


class TypeMismatch(ParseError):
    """Rows parsed fine but do not compose (boundary objects disagree)."""


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_ATOM_RE = re.compile(rf"^({_NAME})(?:\[([^\]]*)\]|\((.*)\))?$")


def _split_top(text: str, sep: str = ","):
    """Split on ``sep`` outside brackets; returns [] for blank input.

    A piece joins the one before it while the bracket depth summed over
    the earlier pieces is not zero; a stray closer counts as -1."""
    parts, depth = [], 0
    for piece in text.split(sep):
        if depth:
            parts[-1] += sep + piece
        else:
            parts.append(piece)
        # most pieces hold no bracket; four counts would cost more
        if "[" in piece or "(" in piece or "]" in piece or ")" in piece:
            depth += (piece.count("[") + piece.count("(")
                      - piece.count("]") - piece.count(")"))
    parts = [p.strip() for p in parts]
    return [] if parts == [""] else parts


def _parse_seg(text: str, span: SourceSpan) -> Seg:
    text = text.strip()
    if text == "O":
        return Seg.O()
    if text == "I":
        return Seg.I()
    m = re.match(rf"^I\[\s*({_NAME}|\*)\s*,\s*({_NAME}|\*)\s*\]$", text)
    if not m:
        raise ParseError(f"bad segment {text!r} (want O, I or I[a,b])", span)
    return Seg.I(m.group(1), m.group(2))


def _colors(arg: str, want: int, atom: str, span: SourceSpan) -> tuple:
    if arg is None:
        return (DEFAULT_COLOR,) * want
    names = _split_top(arg)
    if len(names) != want:
        raise ParseError(
            f"{atom} takes {want} colour(s), got {len(names)}", span)
    for n in names:
        if n != "*" and not re.fullmatch(_NAME, n):
            raise ParseError(f"bad colour name {n!r}", span)
    return tuple(names)


# macro name -> (its colour variables in bracket order, its definition
# as .ocd text).  A macro is read like any other text, once per process.
_MACROS = {
    "window_o": ("asb", "source I[{a},{b}]; Delta_A[{a},{s},{b}]; "
                        "mu_A[{a},{s},{b}]"),
    "window_c": ("", "source O; Delta_C; mu_C"),
    "window_w": ("a", "source O; zip[{a}]; cozip[{a}]"),
    "saddle_cross_l": ("abcd", "source I[{a},{c}], I[{b},{d}]; "
                       "Delta_A[{a},{b},{c}] | id:I[{b},{d}]; "
                       "id:I[{a},{b}] | cross(I[{b},{c}],I[{b},{d}]); "
                       "mu_A[{a},{b},{d}] | id:I[{b},{c}]"),
    "saddle_cross_r": ("abcd", "source I[{d},{b}], I[{a},{c}]; "
                       "id:I[{d},{b}] | Delta_A[{a},{b},{c}]; "
                       "cross(I[{d},{b}],I[{a},{b}]) | id:I[{b},{c}]; "
                       "id:I[{a},{b}] | mu_A[{d},{b},{c}]"),
    "saddle_zip_l": ("ab", "source O, I[{a},{b}]; zip[{a}] | id:I[{a},{b}]; "
                     "mu_A[{a},{a},{b}]"),
    "saddle_zip_r": ("ab", "source I[{a},{b}], O; id:I[{a},{b}] | zip[{b}]; "
                     "mu_A[{a},{b},{b}]"),
    "saddle_cozip_l": ("ab", "source I[{a},{b}]; Delta_A[{a},{a},{b}]; "
                       "cozip[{a}] | id:I[{a},{b}]"),
    "saddle_cozip_r": ("ab", "source I[{a},{b}]; Delta_A[{a},{b},{b}]; "
                       "id:I[{a},{b}] | cozip[{b}]"),
}


def _macro(name: str, arg: str, span: SourceSpan) -> DiagramTerm:
    """Expand one macro atom by reading its text from ``_MACROS``."""
    if name not in _MACROS:
        raise ParseError(f"unknown atom {name!r}", span)
    names, text = _MACROS[name]
    if name == "window_o":
        # window_o[a,b] is window_o[a,a,b]; bare, all three are *, and
        # empty brackets are not bare
        n = len(_split_top(arg)) if arg is not None else 0
        if n not in (0, 2, 3):
            raise ParseError("window_o takes 0, 2 or 3 colours", span)
        if arg is not None and not n:
            raise ParseError("window_o takes 2 or 3 colours in brackets, "
                             "got 0", span)
        cols = _colors(arg if n else None, n or 3, name, span)
        if n == 2:
            cols = cols[:1] + cols
    elif name == "window_c" and arg is not None:
        raise ParseError("window_c takes no colours", span)
    else:
        cols = _colors(arg, len(names), name, span)
    return parse(text.format(**dict(zip(names, cols))))


def _parse_atom(text: str, span: SourceSpan) -> DiagramTerm:
    text = text.strip()
    if text.startswith("id:"):
        return identity_term((_parse_seg(text[3:], span),))
    m = _ATOM_RE.match(text)
    if not m:
        raise ParseError(f"bad atom {text!r}", span)
    name, brack, paren = m.group(1), m.group(2), m.group(3)
    if name == "cross":
        if paren is None:
            raise ParseError("cross needs two segments: cross(x,y)", span)
        args = _split_top(paren)
        if len(args) != 2:
            raise ParseError("cross takes exactly two segments", span)
        x, y = (_parse_seg(a, span) for a in args)
        return DiagramTerm((x, y), ((Cross(x, y),),))
    if paren is not None:
        raise ParseError(f"{name} takes [..] colour brackets, not (..)", span)
    if name in GEN_ARITY:
        cols = _colors(brack, GEN_ARITY[name], name, span)
        return gen_term(Gen(name, cols))
    return _macro(name, brack, span)


# atom text -> (source, target, slices, identity slice on the target,
# colours used, first slice, macro flag).  Only atoms that parsed are
# stored, so an error always carries the span of the file being read.  A
# raw row piece that strips to such an atom is stored too, as an alias of
# its entry.  The table is emptied when it reaches the cap.
ATOM_TABLE_CAP = 4096
_ATOMS: dict = {}


def _store(key: str, entry: tuple) -> None:
    if len(_ATOMS) >= ATOM_TABLE_CAP:
        _ATOMS.clear()
    _ATOMS[key] = entry


def _statements(text: str):
    """Yield (statement_text, line, col) with comments stripped."""
    for ln, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        col = 1
        for piece in line.split(";"):
            stripped = piece.strip()
            if stripped:
                yield stripped, ln, col + len(piece) - len(piece.lstrip())
            col += len(piece) + 1


def _span(filename: str, ln: int, col: int, stmt: str) -> SourceSpan:
    """The span of a statement; ``col`` 0 means ``stmt`` is its whole
    line, unstripped, and the column is read off the line's indent."""
    return SourceSpan(filename, ln, col or 1 + len(stmt) - len(stmt.lstrip()))


def _read_row(stmt: str, filename: str, ln: int, col: int) -> list:
    """The table entries of a row that holds a piece not in the table.

    The row is split bracket-aware, each atom is stripped and, on first
    sight, read by :func:`_parse_atom` and validated.  When that split
    gives one atom per ``|`` piece, each raw piece that differs from its
    atom is stored as an alias of its entry, so a row spaced the same way
    is read from the table next time."""
    atoms = _split_top(stmt, "|")
    row = []
    for a in atoms:
        e = _ATOMS.get(a)
        if e is None:
            t = _parse_atom(a, _span(filename, ln, col, stmt))
            tgt = t.validate()
            e = (t.source, tgt, t.slices, _id_slice(tgt),
                 frozenset(_used_colors(t)), t.slices[0], len(t.slices) > 1)
            _store(a, e)
        row.append(e)
    pieces = stmt.split("|")
    if len(pieces) == len(atoms):
        for p, a, e in zip(pieces, atoms, row):
            if p != a:
                _store(p, e)
    return row


def parse(text: str, filename: str = "<string>") -> DiagramTerm:
    """Parse ``.ocd`` text into a validated :class:`DiagramTerm`."""
    palette = None
    source = None
    cur = None          # the boundary below the rows read so far, a list
    slices = []
    used = set()        # colours of the rows, kept once a header asks
    get = _ATOMS.get
    if "#" in text or ";" in text:
        stmts = _statements(text)
    else:               # a statement per line, its column found on demand
        stmts = zip(text.splitlines(), count(1), repeat(0))
    for stmt, ln, col in stmts:
        row = list(map(get, stmt.split("|")))
        # a header, a blank line and a row with a piece not in the table
        # (None) take the long way; so does all before the source line
        if cur is None or None in row:
            stripped = stmt.strip()
            if not stripped:
                continue
            head = stripped[:6]
            if head in ("colors", "source") \
                    and stripped.split(None, 1)[0] == head:
                rest = stripped[6:].strip()
                span = _span(filename, ln, col, stmt)
                if head == "colors":
                    if source is not None or palette is not None:
                        raise ParseError(
                            "colors header must come first, once", span)
                    palette = _split_top(rest)
                    for n in palette:
                        if not re.fullmatch(_NAME, n):
                            raise ParseError(f"bad colour name {n!r}", span)
                elif source is not None:
                    raise ParseError("duplicate source line", span)
                else:
                    source = tuple(_parse_seg(s, span)
                                   for s in _split_top(rest))
                    cur = list(source)
                continue
            if source is None:
                raise ParseError("expected a source line before rows",
                                 _span(filename, ln, col, stmt))
            row = _read_row(stmt, filename, ln, col)
        src, nxt, one, deep = [], [], [], False
        for s, t, _, _, _, first, macro in row:
            src += s
            nxt += t
            one += first
            if macro:
                deep = True
        if not deep:    # no macro: the row is one slice, no padding
            slices.append(tuple(one))
        else:
            # as tensor() would: pad the shorter atoms with identities
            n = max(len(e[2]) for e in row)
            stacks = [e[2] + (e[3],) * (n - len(e[2])) for e in row]
            slices.extend(tuple(f for stack in stacks for f in stack[i])
                          for i in range(n))
        try:
            check_composable(cur, src)
        except TypingError as e:
            raise TypeMismatch(str(e), _span(filename, ln, col, stmt)) \
                from None
        if palette is not None:
            used.update(*[e[4] for e in row])
        cur = nxt
    if source is None:
        raise ParseError("no source line", SourceSpan(filename, 1, 1))
    term = DiagramTerm(source, tuple(slices))
    vars(term)["target"] = tuple(cur)   # the rows typed it: fill its cache
    if palette is not None:
        used.update(c for s in source if s.is_interval
                    for c in (s.left, s.right))
        bad = used - set(palette) - {DEFAULT_COLOR}
        if bad:
            raise ParseError(
                f"colour(s) {sorted(bad)} not declared in the colors header",
                SourceSpan(filename, 1, 1))
    return term


def parse_file(path) -> DiagramTerm:
    """Parse an ``.ocd`` file; text that is not UTF-8 is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None
    return parse(text, filename=str(path))


def _used_colors(term: DiagramTerm) -> set:
    """The colours of a well-typed term.  Each of its segments is a
    source segment or an output of a generator, whose colours are among
    the generator's, so identities and crossings add none."""
    used = {c for s in term.source if s.is_interval
            for c in (s.left, s.right)}
    for sl in term.slices:
        for f in sl:
            if isinstance(f, Gen):
                used.update(f.colors)
    return used


def render(term: DiagramTerm) -> str:
    """Render a term as ``.ocd`` text.  ``parse(render(t))`` equals ``t``.

    The term is type-checked once, through its cached ``target``."""
    term.target
    lines = []
    named = sorted(_used_colors(term) - {DEFAULT_COLOR})
    if named:
        lines.append("colors " + ", ".join(named))
    lines.append("source " + fmt_obj(term.source).replace("(empty)", ""))
    for sl in term.slices:
        lines.append(" | ".join(str(f) for f in sl))
    return "\n".join(line.rstrip() for line in lines) + "\n"
