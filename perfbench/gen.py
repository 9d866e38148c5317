"""Seeded inputs for the benchmark: random walks over the generator set,
written straight to ``.ocd`` text, plus an equivalent and an inequivalent
partner for each diagram, built by construction.

A boundary segment is ``("I", left, right)`` or ``("O",)``.  Nothing here
depends on ocbord except :func:`connected`, which asks the package's
public ``parse`` and ``invariants`` for the component count.
"""

import random
from dataclasses import dataclass

import ocbord

STAR = "*"
I_STAR = ("I", STAR, STAR)
O = ("O",)


def seg_text(s):
    if s[0] == "O":
        return "O"
    if s[1] == STAR and s[2] == STAR:
        return "I"
    return f"I[{s[1]},{s[2]}]"


def _atom(kind, cols=()):
    if not cols or all(c == STAR for c in cols):
        return kind
    return f"{kind}[{','.join(cols)}]"


@dataclass(frozen=True)
class Walk:
    """A diagram as its source and one row per slice.

    Each row is ``(position, atom text, segments eaten, segments made)``;
    the rest of the row is identities.
    """

    colors: tuple
    source: tuple
    rows: tuple

    def levels(self):
        """The boundary object above each row and below the last."""
        segs = list(self.source)
        out = [tuple(segs)]
        for i, _, eaten, made in self.rows:
            segs[i:i + eaten] = made
            out.append(tuple(segs))
        return out

    @property
    def gens(self):
        return sum(0 if text.startswith("cross(") else
                   2 if text == "window_o" else 1
                   for _, text, _, _ in self.rows)

    def text(self):
        lines = []
        if self.colors != (STAR,):
            lines.append("colors " + ", ".join(self.colors))
        lines.append("source " + ", ".join(seg_text(s) for s in self.source))
        for segs, (i, atom, eaten, _) in zip(self.levels(), self.rows):
            ids = ["id:" + seg_text(s) for s in segs]
            lines.append(" | ".join(ids[:i] + [atom] + ids[i + eaten:]))
        return "\n".join(lines) + "\n"

    def insert(self, level, rows):
        return Walk(self.colors, self.source,
                    self.rows[:level] + tuple(rows) + self.rows[level:])


def _options(segs, max_width):
    """(kind, position) moves legal on ``segs``; joins weigh double."""
    ops = []
    w = len(segs)
    for i, s in enumerate(segs):
        nxt = segs[i + 1] if i + 1 < w else None
        if s[0] == "I":
            if w < max_width:
                ops.append(("Delta_A", i))
            if s[1] == s[2]:
                ops += [("eps_A", i), ("cozip", i)]
            if nxt is not None and nxt[0] == "I" and s[2] == nxt[1]:
                ops += [("mu_A", i)] * 2
        else:
            if w < max_width:
                ops.append(("Delta_C", i))
            ops += [("eps_C", i), ("zip", i)]
            if nxt == O:
                ops += [("mu_C", i)] * 2
        if nxt is not None:
            ops.append(("cross", i))
    if w < max_width:
        for i in range(w + 1):
            ops += [("eta_A", i), ("eta_C", i)]
    return ops


def _row(kind, i, segs, rng, colors):
    """One generator row for move ``(kind, i)`` on ``segs``."""
    s = segs[i] if i < len(segs) else None
    if kind == "mu_A":
        a, b, c = s[1], s[2], segs[i + 1][2]
        return (i, _atom(kind, (a, b, c)), 2, (("I", a, c),))
    if kind == "Delta_A":
        a, c = s[1], s[2]
        b = rng.choice(colors)
        return (i, _atom(kind, (a, b, c)), 1, (("I", a, b), ("I", b, c)))
    if kind == "eps_A":
        return (i, _atom(kind, (s[1],)), 1, ())
    if kind == "cozip":
        return (i, _atom(kind, (s[1],)), 1, (O,))
    if kind == "eta_A":
        a = rng.choice(colors)
        return (i, _atom(kind, (a,)), 0, (("I", a, a),))
    if kind == "zip":
        a = rng.choice(colors)
        return (i, _atom(kind, (a,)), 1, (("I", a, a),))
    if kind == "cross":
        t = segs[i + 1]
        return (i, f"cross({seg_text(s)},{seg_text(t)})", 2, (t, s))
    made = {"mu_C": (O,), "Delta_C": (O, O), "eps_C": (), "eta_C": (O,)}
    eaten = {"mu_C": 2, "Delta_C": 1, "eps_C": 1, "eta_C": 0}
    return (i, kind, eaten[kind], made[kind])


def walk(rng, source, n_gens, colors=(STAR,), max_width=6, max_cross=5,
         joining=False):
    """A random diagram of exactly ``n_gens`` generators (crossings
    not counted) whose every boundary has at most ``max_width`` segments.

    With ``joining`` the walk tracks which boundary segments belong to one
    surface: it never caps off the last segment of a surface, makes no new
    surface while two are open and favours joins between surfaces.  It
    returns None if it gets stuck or ends with more than one surface.
    """
    segs = list(source)
    comp = list(range(len(segs)))       # surface id of each segment
    parent = {c: c for c in comp}

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    rows = []
    gens = crossings = 0
    while gens < n_gens:
        ops = _options(segs, max_width)
        if crossings >= max_cross:
            ops = [op for op in ops if op[0] != "cross"]
        if joining:
            roots = [root(c) for c in comp]
            split = len(set(roots)) > 1
            keep = []
            for kind, i in ops:
                if kind in ("eps_A", "eps_C") and roots.count(roots[i]) == 1:
                    continue
                if kind in ("eta_A", "eta_C") and split:
                    continue
                join = kind in ("mu_A", "mu_C") and roots[i] != roots[i + 1]
                keep += [(kind, i)] * (4 if join else 1)
            ops = keep
            if not ops:
                return None
        kind, i = rng.choice(ops)
        if kind == "cross":
            crossings += 1
        else:
            gens += 1
        row = _row(kind, i, segs, rng, colors)
        segs[i:i + row[2]] = row[3]
        if row[2] == 2 and kind != "cross":
            parent[root(comp[i + 1])] = root(comp[i])
        new = len(parent) if row[2] == 0 else comp[i]
        parent.setdefault(new, new)
        made = [comp[i + 1], comp[i]] if kind == "cross" else \
            [new] * len(row[3])
        comp[i:i + row[2]] = made
        rows.append(row)
    if joining and len({root(c) for c in comp}) > 1:
        return None
    return Walk(tuple(colors), tuple(source), tuple(rows))


def strip(n_windows):
    """``source I`` followed by ``n_windows`` rows of ``window_o``."""
    return Walk((STAR,), (I_STAR,), ((0, "window_o", 1, (I_STAR,)),)
                * n_windows)


def _sites(w, max_width, want):
    """(level, position) of each ``want`` segment ("I" or "O") at a level
    narrower than ``max_width``."""
    return [(k, i) for k, segs in enumerate(w.levels())
            if len(segs) < max_width
            for i, s in enumerate(segs) if s[0] == want]


def partners(rng, w, max_width=6):
    """``(equivalent, inequivalent)`` variants of ``w``.

    The equivalent one inserts a unit-law pair (``eta_A`` then ``mu_A``)
    on an interval.  The inequivalent one inserts an extra window
    (``Delta_A`` then ``mu_A``) on an interval or an extra handle
    (``Delta_C`` then ``mu_C``) on a circle, which changes the window
    count or the genus of one component.
    """
    intervals = _sites(w, max_width, "I")
    circles = _sites(w, max_width, "O")
    k, i = rng.choice(intervals)
    a, b = w.levels()[k][i][1:]
    eq = w.insert(k, [(i, _atom("eta_A", (a,)), 0, (("I", a, a),)),
                      (i, _atom("mu_A", (a, a, b)), 2, (("I", a, b),))])
    if circles and rng.random() < 0.5:
        k, i = rng.choice(circles)
        ineq = w.insert(k, [(i, "Delta_C", 1, (O, O)), (i, "mu_C", 2, (O,))])
    else:
        k, i = rng.choice(intervals)
        a, b = w.levels()[k][i][1:]
        c = rng.choice(w.colors)
        ineq = w.insert(k, [
            (i, _atom("Delta_A", (a, c, b)), 1, (("I", a, c), ("I", c, b))),
            (i, _atom("mu_A", (a, c, b)), 2, (("I", a, b),))])
    return eq, ineq


def connected(w):
    return len(ocbord.invariants(ocbord.parse(w.text())).components) == 1


def desk_walk(rng, colors, max_gens=25, max_width=6):
    """A connected random diagram of 1..``max_gens`` generators whose
    source holds at least one interval."""
    while True:
        source = [("I", rng.choice(colors), rng.choice(colors))]
        for _ in range(rng.randint(0, 2)):
            source.insert(rng.randint(0, len(source)),
                          ("I", rng.choice(colors), rng.choice(colors))
                          if rng.random() < 0.6 else O)
        w = walk(rng, source, rng.randint(1, max_gens), colors, max_width,
                 joining=True)
        if w is not None and connected(w):
            return w


def ladder_walk(n, seed):
    """The size-``n`` ladder diagram: a walk from ``I, I, O`` in colour
    ``*`` of width at most 6, seeded by ``seed`` and ``n``."""
    return walk(random.Random(f"ladder/{seed}/{n}"), (I_STAR, I_STAR, O), n)
