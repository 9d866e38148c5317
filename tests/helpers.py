"""Shared helpers for the test suite: random diagrams, mutations,
profile-changing perturbations."""

import itertools
import math
import random
import re
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

from ocbord.diagram import (DEFAULT_COLOR, GEN_ARITY, Cross, DiagramTerm,
                            Gen, Id, OcbordError, PortGraph, Seg, TypingError,
                            UnionFind, canonical_order, check_composable,
                            compose, from_port_graph, gen_term,
                            identity_term, tensor, to_port_graph)
from ocbord.dsl import (_ATOM_RE, _NAME, ParseError, SourceSpan,
                        TypeMismatch, _colors, _parse_atom, _parse_seg,
                        _used_colors, parse, parse_file)
from ocbord.invariants import (ComponentInvariants, Invariants, _ports,
                               invariants, profile_key)
from ocbord.rewrite import (Match, _kernel, _pattern, _reaches,
                            _splice_is_acyclic, _unify_seg, apply_match,
                            find_matches, rules)
from ocbord.tqft import LinearMap

ROOT = Path(__file__).resolve().parent.parent

# The reference oracles' own copy of each generator sheet, drawn by hand:
# its Euler characteristic (discs for the open generators and the closed
# cup/cap, pants for the closed (co)multiplication, an annulus for zip and
# cozip) and its free-boundary arcs as (port, corner) pairs over its own
# ports, ("in", k) or ("out", k) with corners "L" and "R".  The
# multiplication's middle arc is the notch between its two inputs; the
# comultiplication mirrors it.
CHI = {
    "mu_A": 1, "eta_A": 1, "Delta_A": 1, "eps_A": 1,
    "mu_C": -1, "eta_C": 1, "Delta_C": -1, "eps_C": 1,
    "zip": 0, "cozip": 0,
}
ARCS = {
    "mu_A": (((("in", 0), "L"), (("out", 0), "L")),
             ((("in", 0), "R"), (("in", 1), "L")),
             ((("in", 1), "R"), (("out", 0), "R"))),
    "Delta_A": (((("in", 0), "L"), (("out", 0), "L")),
                ((("out", 0), "R"), (("out", 1), "L")),
                ((("in", 0), "R"), (("out", 1), "R"))),
    "eta_A": (((("out", 0), "L"), (("out", 0), "R")),),
    "eps_A": (((("in", 0), "L"), (("in", 0), "R")),),
    "zip": (((("out", 0), "L"), (("out", 0), "R")),),
    "cozip": (((("in", 0), "L"), (("in", 0), "R")),),
    "mu_C": (), "eta_C": (), "Delta_C": (), "eps_C": (),
}


def _interval(rng, colors):
    return Seg.I(rng.choice(colors), rng.choice(colors))


def _random_source(rng, colors, max_width):
    segs = []
    for _ in range(rng.randint(0, min(3, max_width))):
        segs.append(_interval(rng, colors) if rng.random() < 0.6
                    else Seg.O())
    return segs


def _options(segs, colors, max_width, rng):
    ops = []
    w = len(segs)
    for i, s in enumerate(segs):
        if s.is_interval:
            if w < max_width:
                ops.append(("Delta_A", i))
            if s.left == s.right:
                ops.append(("eps_A", i))
                ops.append(("cozip", i))
            if i + 1 < w and segs[i + 1].is_interval \
                    and s.right == segs[i + 1].left:
                ops.append(("mu_A", i))
                ops.append(("mu_A", i))     # weight joins up
        else:
            if w < max_width:
                ops.append(("Delta_C", i))
            ops.append(("eps_C", i))
            ops.append(("zip", i))
            if i + 1 < w and not segs[i + 1].is_interval:
                ops.append(("mu_C", i))
                ops.append(("mu_C", i))
        if i + 1 < w:
            ops.append(("cross", i))
    if w < max_width:
        for i in range(w + 1):
            ops.append(("eta_A", i))
            ops.append(("eta_C", i))
    return ops


def _make_gen(op, segs, rng, colors):
    kind, i = op
    if kind == "mu_A":
        a, b = segs[i].left, segs[i].right
        return Gen("mu_A", (a, b, segs[i + 1].right))
    if kind == "Delta_A":
        return Gen("Delta_A", (segs[i].left, rng.choice(colors),
                               segs[i].right))
    if kind in ("eps_A", "cozip"):
        return Gen(kind, (segs[i].left,))
    if kind in ("eta_A", "zip"):
        return Gen(kind, (rng.choice(colors),))
    if kind == "cross":
        return Cross(segs[i], segs[i + 1])
    return Gen(kind)


def _attempt(rng, max_gens, colors, max_width):
    segs = _random_source(rng, colors, max_width)
    source = tuple(segs)
    slices = []
    budget = rng.randint(1, max_gens)
    crossings = 0
    while budget > 0:
        ops = _options(segs, colors, max_width, rng)
        if not ops:
            break
        op = rng.choice(ops)
        if op[0] == "cross":
            if crossings >= 5:
                continue
            crossings += 1
        else:
            budget -= 1
        f = _make_gen(op, segs, rng, colors)
        i = op[1]
        eaten = len(f.source)
        row = tuple(Id(s) for s in segs[:i]) + (f,) \
            + tuple(Id(s) for s in segs[i + eaten:])
        segs[i:i + eaten] = list(f.target)
        slices.append(row)
        if rng.random() < 0.04:
            break
    return DiagramTerm(source, tuple(slices))


def component_count(t: DiagramTerm) -> int:
    """Connected components over nodes and boundary ports joined by wires,
    the items ``invariants`` unions."""
    g = to_port_graph(t)
    uf = UnionFind()
    for nid in g.nodes:
        uf.find(nid)
    for prod, cons in g.wires():
        uf.union(prod[:2] if prod[0] == "src" else prod[1],
                 cons[:2] if cons[0] == "tgt" else cons[1])
    return len({uf.find(x) for x in uf.parent})


def random_term(rng: random.Random, max_gens: int = 25, colors=("*",),
                max_width: int = 6, connected: bool = True,
                tries: int = 400) -> DiagramTerm:
    """A random well-typed diagram, connected unless asked otherwise."""
    for _ in range(tries):
        t = _attempt(rng, max_gens, colors, max_width)
        t.validate()
        if not connected:
            return t
        if sum(1 for row in t.slices
               for f in row if isinstance(f, Gen)) == 0:
            continue
        if component_count(t) == 1:
            return t
    raise RuntimeError("could not build a connected random diagram")


def random_mutant(rng: random.Random, t: DiagramTerm,
                  steps: int) -> DiagramTerm:
    """Apply ``steps`` random legal rule rewrites to ``t``."""
    g = to_port_graph(t)
    rule_ids = list(rules())
    done = 0
    stalls = 0
    while done < steps and stalls < 3:
        rng.shuffle(rule_ids)
        hit = False
        for rid in rule_ids:
            rev = rng.random() < 0.5
            for r in (rev, not rev):
                ms = find_matches(g, rid, r)
                if ms:
                    g = apply_match(g, rng.choice(ms))
                    done += 1
                    hit = True
                    break
            if hit:
                break
        if not hit:
            stalls += 1
    return from_port_graph(g)


def _palette(g) -> tuple:
    cols = set()
    for gen in g.nodes.values():
        cols.update(gen.colors)
    for seg in g.source + g.target:
        if seg.is_interval:
            cols.update((seg.left, seg.right))
    return tuple(sorted(cols)) or ("*",)


def perturb(rng: random.Random, t: DiagramTerm) -> DiagramTerm:
    """A diagram with the same boundary but a different profile: extra
    genus, an extra window, or rerouted open boundary."""
    g = to_port_graph(t)
    base = profile_key(invariants(g))
    wires = list(g.wires())
    colors = _palette(g)
    for _ in range(60):
        h = g.copy()
        prod, cons = rng.choice(wires)
        del h.out_to_in[prod], h.in_to_out[cons]     # rewired below
        seg = h.producer_seg(prod)
        if seg.is_interval:
            if seg.left == seg.right and rng.random() < 0.5:
                # round trip through the closed sector
                cz = h.add_node(Gen("cozip", (seg.left,)))
                z = h.add_node(Gen("zip", (seg.left,)))
                h.wire(prod, ("in", cz, 0))
                h.wire(("out", cz, 0), ("in", z, 0))
                h.wire(("out", z, 0), cons)
            else:
                # an open handle
                b = rng.choice(colors)
                d = h.add_node(Gen("Delta_A", (seg.left, b, seg.right)))
                m = h.add_node(Gen("mu_A", (seg.left, b, seg.right)))
                h.wire(prod, ("in", d, 0))
                h.wire(("out", d, 0), ("in", m, 0))
                h.wire(("out", d, 1), ("in", m, 1))
                h.wire(("out", m, 0), cons)
        else:
            if rng.random() < 0.5:
                d = h.add_node(Gen("Delta_C"))
                m = h.add_node(Gen("mu_C"))
                h.wire(prod, ("in", d, 0))
                h.wire(("out", d, 0), ("in", m, 0))
                h.wire(("out", d, 1), ("in", m, 1))
                h.wire(("out", m, 0), cons)
            else:
                c = rng.choice(colors)
                z = h.add_node(Gen("zip", (c,)))
                cz = h.add_node(Gen("cozip", (c,)))
                h.wire(prod, ("in", z, 0))
                h.wire(("out", z, 0), ("in", cz, 0))
                h.wire(("out", cz, 0), cons)
        h.validate()
        if profile_key(invariants(h)) != base:
            return from_port_graph(h)
    raise RuntimeError("could not perturb the diagram's profile")


def perm_term(segs, pi) -> DiagramTerm:
    """Permutation cobordism: the strand entering slot i leaves at pi[i],
    realized as a ladder of adjacent crossings."""
    segs = list(segs)
    dest = list(pi)
    assert sorted(dest) == list(range(len(segs)))
    t = DiagramTerm(tuple(segs), ())
    changed = True
    while changed:
        changed = False
        for i in range(len(dest) - 1):
            if dest[i] > dest[i + 1]:
                row = tuple(Id(s) for s in segs[:i]) \
                    + (Cross(segs[i], segs[i + 1]),) \
                    + tuple(Id(s) for s in segs[i + 2:])
                t = DiagramTerm(t.source, t.slices + (row,))
                segs[i], segs[i + 1] = segs[i + 1], segs[i]
                dest[i], dest[i + 1] = dest[i + 1], dest[i]
                changed = True
    t.validate()
    return t


def mutate_algebra(rng: random.Random, alg):
    """Copy ``alg`` with one structure constant bumped by 1."""
    from fractions import Fraction

    from ocbord.tqft import KFA, LinearMap

    keys = [k for k in sorted(alg.maps, key=str)
            if alg.maps[k].rows and alg.maps[k].cols]
    key = rng.choice(keys)
    m = alg.maps[key]
    r = rng.randrange(m.rows)
    c = rng.randrange(m.cols)
    entries = dict(m.data)
    entries[(r, c)] = entries.get((r, c), Fraction(0)) + 1
    maps = dict(alg.maps)
    maps[key] = LinearMap(m.rows, m.cols, entries)
    return KFA(colors=alg.colors, dims=dict(alg.dims),
               basis=dict(alg.basis), maps=maps,
               name=alg.name + "+mutation"), key, (r, c)


def mutate_kfa_doc(rng: random.Random, doc) -> str:
    """Mangle the JSON value of a ``.kfa`` file in place, in one of seven
    ways: drop, duplicate or retype a field at any depth, duplicate an
    entry, move an entry's index, rename a space or a map, or add blanks
    to its name.  Returns what was done, for failure messages."""
    how = rng.choice(("drop", "duplicate", "retype", "entry", "index",
                      "rename", "blanks"))
    if how in ("drop", "duplicate", "retype"):
        box, key = doc, rng.choice(list(doc))
        while (isinstance(box[key], (dict, list)) and box[key]
               and rng.random() < 0.6):
            box = box[key]
            key = rng.choice(list(box) if isinstance(box, dict)
                             else range(len(box)))
        if how == "drop":
            del box[key]
        elif how == "retype":
            box[key] = rng.choice(
                ("", "1", 0, 1, -1, 1.5, True, None, [], {}))
        elif isinstance(box, dict):     # the copy's name ends in a blank
            box[key + " "] = box[key]
        else:
            box.insert(key, box[key])
        return f"{how} {key!r}"
    if how in ("entry", "index"):
        name = rng.choice([k for k, m in doc["maps"].items() if m["entries"]])
        m = doc["maps"][name]
        entries = m["entries"]
        r, c, v = rng.choice(entries)
        if how == "entry":
            entries.append([r, c, rng.choice((v, "0", "7"))])
        else:
            side = rng.randrange(2)
            n = (m["rows"], m["cols"])[side]
            rc = [r, c]
            rc[side] = rng.choice((-1, 0, n - 1, n, n + 3, rng.randrange(n)))
            entries[entries.index([r, c, v])] = [*rc, v]
        return f"{how} in {name}"
    part = doc[rng.choice(("dims", "basis", "maps"))]
    name = rng.choice(list(part))
    if how == "rename":
        new = rng.choice((name.replace(rng.choice(doc["colors"]), "q"),
                          name + "[x]", "bogus", rng.choice(list(part))))
    else:
        new = name
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(new) + 1)
            new = new[:at] + " " + new[at:]
    part[new] = part.pop(name)
    return f"{how} {name!r} to {new!r}"


def recolor(t: DiagramTerm, to: str = "*") -> DiagramTerm:
    """The same diagram with every colour renamed to ``to``."""
    def seg(s):
        return Seg.I(to, to) if s.is_interval else s

    def factor(f):
        if isinstance(f, Gen):
            return Gen(f.kind, tuple(to for _ in f.colors))
        if isinstance(f, Id):
            return Id(seg(f.seg))
        return Cross(seg(f.a), seg(f.b))

    return DiagramTerm(tuple(seg(s) for s in t.source),
                       tuple(tuple(factor(f) for f in row)
                             for row in t.slices))


def window_strip(n: int) -> DiagramTerm:
    """A strip with ``n`` open windows in a row, each a comultiplication
    followed by a multiplication (``window_o``), built without the parser."""
    star = ("*", "*", "*")
    return DiagramTerm((Seg.I(),), ((Gen("Delta_A", star),),
                                    (Gen("mu_A", star),)) * n)


def wide_text(n: int) -> str:
    """``.ocd`` text of three rows ``n`` atoms wide on ``n`` circles:
    ``Delta_C``, then ``mu_C``, then ``Delta_C`` on every circle."""
    return ("source " + ", ".join(["O"] * n) + "\n"
            + "".join(" | ".join([g] * n) + "\n"
                      for g in ("Delta_C", "mu_C", "Delta_C")))


def closed_surface(n: int) -> str:
    """``.ocd`` text of a closed surface of genus ``n``: ``eta_C``, then
    ``n`` handles (``window_c``), then ``eps_C``."""
    return "source\neta_C\n" + "window_c\n" * n + "eps_C\n"


def crown_text(k: int) -> str:
    """``.ocd`` text of the crown: ``k`` ``eta_C`` feed ``k`` ``Delta_C``;
    output 0 of ``Delta_C`` i enters ``mu_C`` i at input 0 and output 1
    enters ``mu_C`` (i + 1 mod k) at input 1; each ``mu_C`` feeds an
    ``eps_C``.  One closed torus of 4k nodes with a k-fold rotation
    symmetry, laid out on a boundary at most four circles wide."""
    step = ("id:O | id:O | eta_C\nid:O | id:O | Delta_C\n"
            "id:O | cross(O,O) | id:O\nid:O | mu_C | id:O\n"
            "id:O | eps_C | id:O\n")
    return "source\neta_C\nDelta_C\n" + step * (k - 1) + "mu_C\neps_C\n"


def ladder_gen():
    """``perfbench/gen.py``, the ladder workload's walk generator."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    return gen


def read_path_samples() -> list:
    """Terms for the read-path oracles: 500 unconnected random terms in
    the colours ``*`` or ``a, b``, the corpus, two ladder walks, closed
    surfaces, and crowns, one alone and beside other closed components."""
    root, gen = ROOT, ladder_gen()
    rng = random.Random(1729)
    terms = [random_term(rng, colors=("*",) if i % 2 else ("a", "b"),
                         connected=False) for i in range(500)]
    terms += [parse_file(f) for f in sorted((root / "corpus").glob("*.ocd"))]
    terms += [parse(gen.ladder_walk(n, str(n)).text()) for n in (200, 800)]
    terms += [parse(closed_surface(n)) for n in (1, 40)]
    crowns = [parse(crown_text(k)) for k in (1, 2, 7, 64)]
    terms += crowns
    terms.append(tensor(crowns[2], crowns[2]))
    terms.append(tensor(parse(closed_surface(3)), crowns[1],
                        parse(closed_surface(1)), crowns[3], crowns[0]))
    return terms


def mu_c_comb_text(n: int) -> str:
    """``.ocd`` text merging ``n`` source circles by a right comb of
    ``mu_C``: row k is ``id:O`` x (n-2-k), then ``mu_C``."""
    return "source " + ", ".join(["O"] * n) + "\n" + "".join(
        " | ".join(["id:O"] * (n - 2 - k) + ["mu_C"]) + "\n"
        for k in range(n - 1))


def handle_comb_text(n: int) -> str:
    """``.ocd`` text of the handle comb: ``n`` source circles, a row of
    ``n`` ``window_c``, then the rows of :func:`mu_c_comb_text`."""
    return ("source " + ", ".join(["O"] * n) + "\n"
            + " | ".join(["window_c"] * n) + "\n"
            + mu_c_comb_text(n).split("\n", 1)[1])


def reversed_merge_text(n: int) -> str:
    """``.ocd`` text closing ``n`` source intervals into one-interval
    blocks (``cozip``) whose circles ``mu_C`` merges in reverse order:
    the two leftmost circles cross, then merge, until one is left."""
    rows = ["source " + ", ".join(["I"] * n), " | ".join(["cozip"] * n)]
    for w in range(n, 1, -1):
        ids = ["id:O"] * (w - 2)
        rows += [" | ".join(["cross(O,O)"] + ids), " | ".join(["mu_C"] + ids)]
    return "\n".join(rows) + "\n"


def graph_bind(host, P, nodes: tuple):
    """Reference for ``rewrite._bind``: check a node assignment against
    the rule side's port graph ``P``, sorting and classifying its nodes
    and wires on every call.  Returns (env, src_prod, tgt_cons, bare) or
    None."""
    pnodes = sorted(P.nodes)
    if len(nodes) != len(pnodes) or len(set(nodes)) != len(nodes):
        return None
    mp = dict(zip(pnodes, nodes))
    env: dict = {}
    for pn, hn in mp.items():
        if hn not in host.nodes:
            return None
        pg, hg = P.nodes[pn], host.nodes[hn]
        if pg.kind != hg.kind:
            return None
        for v, c in zip(pg.colors, hg.colors):
            if env.setdefault(v, c) != c:
                return None
    mapped = set(nodes)
    src_prod: list = [None] * len(P.source)
    tgt_cons: list = [None] * len(P.target)
    bare = []
    for prod, cons in P.wires():
        if prod[0] == "out" and cons[0] == "in":
            hp = ("out", mp[prod[1]], prod[2])
            if host.out_to_in.get(hp) != ("in", mp[cons[1]], cons[2]):
                return None
        elif prod[0] == "src" and cons[0] == "in":
            hp = host.in_to_out[("in", mp[cons[1]], cons[2])]
            if hp[0] == "out" and hp[1] in mapped:
                return None
            if not _unify_seg(env, P.source[prod[1]], host.producer_seg(hp)):
                return None
            src_prod[prod[1]] = hp
        elif prod[0] == "out" and cons[0] == "tgt":
            hc = host.out_to_in[("out", mp[prod[1]], prod[2])]
            if hc[0] == "in" and hc[1] in mapped:
                return None
            if not _unify_seg(env, P.target[cons[1]],
                              host.consumer_seg(hc)):
                return None
            tgt_cons[cons[1]] = hc
        else:
            bare.append((prod[1], cons[1]))
    return env, src_prod, tgt_cons, bare


def graph_apply(h, m) -> list:
    """Reference for ``rewrite._apply_full``: glue in the other side of
    the rule, read from its port graph and building fresh generators, in
    ``h`` itself; returns the new node ids in pattern order.  The colour
    binding comes from :func:`graph_bind` against the matched side's port
    graph, with each source segment unified against its host producer."""
    P, R = _pattern(m.rule, m.reverse), _pattern(m.rule, not m.reverse)
    env = graph_bind(h, P, m.nodes)[0]
    for seg, hp in zip(P.source, m.src_prod):
        assert _unify_seg(env, seg, h.producer_seg(hp))
    gens = [Gen(R.nodes[rn].kind, tuple(env[v] for v in R.nodes[rn].colors))
            for rn in sorted(R.nodes)]
    for hn in m.nodes:
        h.remove_node(hn)
    idmap = {rn: h.add_node(gen) for rn, gen in zip(sorted(R.nodes), gens)}
    for prod, cons in R.wires():
        hp = m.src_prod[prod[1]] if prod[0] == "src" \
            else ("out", idmap[prod[1]], prod[2])
        hc = m.tgt_cons[cons[1]] if cons[0] == "tgt" \
            else ("in", idmap[cons[1]], cons[2])
        h.wire(hp, hc)
    return [idmap[rn] for rn in sorted(R.nodes)]


def heights(g: PortGraph) -> dict:
    """Reference for the Delta_A pick of ``rewrite._phase_open``: for each
    node of the whole graph, one plus the sum of its successors' values,
    in one topological pass."""
    succ = {n: [c[1] for c in (g.out_to_in[("out", n, k)]
                               for k in range(len(gen.target)))
                if c[0] == "in"]
            for n, gen in g.nodes.items()}
    preds: dict = {n: [] for n in succ}
    for n, ms in succ.items():
        for m in ms:
            preds[m].append(n)
    waiting = {n: len(ms) for n, ms in succ.items()}
    ready = [n for n, k in waiting.items() if not k]
    memo: dict = {}
    while ready:
        n = ready.pop()
        memo[n] = 1 + sum(memo[m] for m in succ[n])
        for p in preds[n]:
            waiting[p] -= 1
            if not waiting[p]:
                ready.append(p)
    return memo


def all_pairs_splice_is_acyclic(host, rule_id, reverse, src_prod,
                                tgt_cons) -> bool:
    """Reference for ``rewrite._splice_is_acyclic``: search the host for a
    path back from each consumed target to every produced source that
    the new material links to it, whether the matched side links them
    or not."""
    conn = _kernel(rule_id, reverse).links
    for j, tc in enumerate(tgt_cons):
        if tc[0] != "in":
            continue
        goals = {src_prod[i][1] for i in range(len(src_prod))
                 if j in conn[i] and src_prod[i][0] == "out"}
        if goals and _reaches(host, tc[1], goals):
            return False
    return True


def product_find_matches(host, rule_id: str, reverse: bool = False) -> list:
    """Reference for ``find_matches``: try every tuple of distinct host
    nodes whose kinds fit the pattern, O(N^k) for a k-node side, and bind
    each with :func:`graph_bind`."""
    P = _pattern(rule_id, reverse)
    pnodes = sorted(P.nodes)
    kinds = [P.nodes[n].kind for n in pnodes]
    out = []

    def settle(nodes, env, src_prod, tgt_cons, bare):
        if not bare:
            if None in src_prod or None in tgt_cons:
                return
            if _splice_is_acyclic(host, rule_id, reverse, src_prod,
                                  tgt_cons):
                out.append(Match(rule_id, reverse, nodes, tuple(src_prod),
                                 tuple(tgt_cons)))
            return
        (i, j), rest = bare[0], bare[1:]
        used = set(src_prod) | set(tgt_cons)
        for hp in sorted(host.out_to_in):
            hc = host.out_to_in[hp]
            if (hp[0] == "out" and hp[1] in nodes) \
                    or (hc[0] == "in" and hc[1] in nodes) \
                    or hp in used or hc in used:
                continue
            e2 = dict(env)
            if not _unify_seg(e2, P.source[i], host.producer_seg(hp)):
                continue
            sp, tc = list(src_prod), list(tgt_cons)
            sp[i], tc[j] = hp, hc
            settle(nodes, e2, sp, tc, rest)

    def assign(i, chosen):
        if i == len(pnodes):
            got = graph_bind(host, P, chosen)
            if got is not None:
                settle(chosen, *got)
            return
        for hn in sorted(host.nodes):
            if hn not in chosen and host.nodes[hn].kind == kinds[i]:
                assign(i + 1, chosen + (hn,))

    assign(0, ())
    out.sort(key=lambda m: (m.nodes, m.src_prod, m.tgt_cons))
    return out


def wire_by_wire_graph(term: DiagramTerm) -> PortGraph:
    """Reference for ``diagram.to_port_graph``: add each generator with
    ``add_node`` and each wire with ``wire``, testing factors with
    ``isinstance``."""
    g = PortGraph(term.source, term.target)
    frontier = [("src", i) for i in range(len(term.source))]
    for sl in term.slices:
        pos = 0
        nxt = []
        for f in sl:
            m = len(f.source)
            ins = frontier[pos:pos + m]
            pos += m
            if isinstance(f, Id):
                nxt.extend(ins)
            elif isinstance(f, Cross):
                nxt.extend((ins[1], ins[0]))
            else:
                nid = g.add_node(f)
                for k, p in enumerate(ins):
                    g.wire(p, ("in", nid, k))
                nxt.extend(("out", nid, k) for k in range(len(f.target)))
        frontier = nxt
    for j, p in enumerate(frontier):
        g.wire(p, ("tgt", j))
    return g


def union_find_assemble(g, sigma, gamma, windows) -> Invariants:
    """Reference for ``invariants._assemble``: components from a
    union-find over tagged nodes and boundary ports, Euler terms summed
    in separate passes, and boundary-free components ordered by where
    their nodes fall in the whole graph's ``canonical_order``."""
    cuf = UnionFind()

    def item(ep):
        if ep[0] in ("src", "tgt"):
            return ("b", ep[0], ep[1])
        return ("n", ep[1])

    for prod, cons in g.wires():
        cuf.union(item(prod), item(cons))

    comps = {}                      # root -> accumulator
    for x_ in cuf.parent:
        comps.setdefault(cuf.find(x_), {
            "nodes": set(), "src": [], "tgt": [], "chi": 0,
            "circle_ports": 0, "windows": [], "cycles": []})
    for nid, gen in g.nodes.items():
        c = comps[cuf.find(("n", nid))]
        c["nodes"].add(nid)
        c["chi"] += CHI[gen.kind]
    for i, seg in enumerate(g.source):
        c = comps[cuf.find(("b", "src", i))]
        c["src"].append(i)
        if not seg.is_interval:
            c["circle_ports"] += 1
    for j, seg in enumerate(g.target):
        c = comps[cuf.find(("b", "tgt", j))]
        c["tgt"].append(j)
        if not seg.is_interval:
            c["circle_ports"] += 1
    for prod, cons in g.wires():
        seg = g.producer_seg(prod)
        if not seg.is_interval:
            continue
        if prod[0] == "src" and cons[0] == "tgt":
            comps[cuf.find(item(prod))]["chi"] += 1
        elif prod[0] == "out" and cons[0] == "in":
            comps[cuf.find(item(prod))]["chi"] -= 1
    for nid, colour in windows:
        comps[cuf.find(("n", nid))]["windows"].append(colour)

    ports, seen = _ports(g), set()
    for j0 in sorted(sigma):
        if j0 in seen:
            continue
        cyc, j = [], j0
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = sigma[j]
        comps[cuf.find(item(ports[j0 - 1]))]["cycles"].append(tuple(cyc))

    co_index = {nid: i for i, nid in enumerate(canonical_order(g))}

    def comp_key(c):
        if c["src"]:
            return (0, 0, min(c["src"]))
        if c["tgt"]:
            return (0, 1, min(c["tgt"]))
        return (1, 0, min(co_index[n] for n in c["nodes"]))

    out = []
    for c in sorted(comps.values(), key=comp_key):
        b = c["circle_ports"] + len(c["windows"]) + len(c["cycles"])
        two_g = 2 - c["chi"] - b
        if two_g < 0 or two_g % 2:
            raise OcbordError(
                f"inconsistent topology: euler {c['chi']}, {b} boundary circles")
        out.append(ComponentInvariants(
            src_positions=tuple(sorted(c["src"])),
            tgt_positions=tuple(sorted(c["tgt"])),
            euler=c["chi"],
            genus=two_g // 2,
            boundary_circles=b,
            windows=tuple(sorted(c["windows"])),
            cycles=tuple(sorted(c["cycles"])),
        ))
    return Invariants(
        source=g.source,
        target=g.target,
        components=tuple(out),
        sigma=tuple(sorted(sigma.items())),
        gamma=tuple(sorted(gamma.items())),
    )


def union_find_free_boundary(g):
    """Reference for ``invariants._free_boundary``: glue the corners of
    ``g`` across wires with a union-find, list every coloured arc (a
    bare source-to-target wire contributes its two side arcs), and walk
    the resulting 2-regular corner graph.  Returns ``(sigma, gamma,
    windows)`` in the same form."""
    port_no = {}
    for i, seg in enumerate(g.source):
        if seg.is_interval:
            port_no[("src", i)] = len(port_no) + 1
    for j, seg in enumerate(g.target):
        if seg.is_interval:
            port_no[("tgt", j)] = len(port_no) + 1

    uf = UnionFind()
    arcs = []                       # (cornerA, cornerB, colour)
    for prod, cons in g.wires():
        seg = g.producer_seg(prod)
        if not seg.is_interval:
            continue
        if prod[0] == "src" and cons[0] == "tgt":
            arcs.append(((prod, "L"), (cons, "L"), seg.left))
            arcs.append(((prod, "R"), (cons, "R"), seg.right))
        else:
            uf.union((prod, "L"), (cons, "L"))
            uf.union((prod, "R"), (cons, "R"))
    for nid, gen in g.nodes.items():
        for (p1, c1), (p2, c2) in ARCS[gen.kind]:
            ep1 = (p1[0], nid, p1[1])
            ep2 = (p2[0], nid, p2[1])
            seg = (g.consumer_seg if p1[0] == "in" else g.producer_seg)(ep1)
            colour = seg.left if c1 == "L" else seg.right
            arcs.append(((ep1, c1), (ep2, c2), colour))

    adj = {}                        # corner class -> [(edge id, other class)]
    for eid, (ca, cb, _colour) in enumerate(arcs):
        a, b = uf.find(ca), uf.find(cb)
        adj.setdefault(a, []).append((eid, b))
        adj.setdefault(b, []).append((eid, a))
    black_at = {}                   # corner class -> port number
    for p, j in port_no.items():
        black_at[uf.find((p, "L"))] = j
        black_at[uf.find((p, "R"))] = j

    sigma, gamma = {}, {}
    used = set()
    for p, j in port_no.items():
        exit_corner = (p, "L") if p[0] == "src" else (p, "R")
        (eid, cur) = adj[uf.find(exit_corner)][0]
        gamma[j] = arcs[eid][2]
        used.add(eid)
        while cur not in black_at:
            eid, cur = next((e, c) for e, c in adj[cur] if e != eid)
            used.add(eid)
        sigma[j] = black_at[cur]

    windows = []                    # (an incident node id, colour)
    for eid0 in range(len(arcs)):
        if eid0 in used:
            continue
        (ca, cb, colour) = arcs[eid0]
        windows.append((ca[0][1], colour))
        cur = uf.find(cb)
        used.add(eid0)
        while True:
            step = [(e, c) for e, c in adj[cur] if e not in used]
            if not step:
                break
            eid, cur = step[0]
            used.add(eid)
    return sigma, gamma, windows


def matmul(a: LinearMap, b: LinearMap) -> LinearMap:
    """``a`` after ``b``, the matrix product: the oracle that evaluation
    is functorial in composition."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in composition")
    by_row = {}
    for (r, c), v in b.data.items():
        by_row.setdefault(r, []).append((c, v))
    out = {}
    for (r, c), v in a.data.items():
        for c2, v2 in by_row.get(c, ()):
            out[r, c2] = out.get((r, c2), 0) + v * v2
    return LinearMap(a.rows, b.cols, out)


def kron(a: LinearMap, b: LinearMap) -> LinearMap:
    """The tensor product, left factor major: the oracle that evaluation
    is monoidal."""
    out = {}
    for (r1, c1), v1 in a.data.items():
        for (r2, c2), v2 in b.data.items():
            out[r1 * b.rows + r2, c1 * b.cols + c2] = v1 * v2
    return LinearMap(a.rows * b.rows, a.cols * b.cols, out)


def scan_contraction_plan(legs, wire_dim) -> list:
    """Reference for ``tqft._contraction_plan``: before every step, scan
    all pairs of live tensors, in creation order, for the one sharing a
    wire whose result has the smallest leg space; O(T^3) for T tensors."""
    tensors = [(i, set(ls)) for i, ls in enumerate(legs)]
    made = len(tensors)
    plan = []
    while True:
        best = None
        for i in range(len(tensors)):
            si = tensors[i][1]
            for j in range(i + 1, len(tensors)):
                sj = tensors[j][1]
                if si.isdisjoint(sj):
                    continue
                shared = si & sj
                size = 1
                for l in si | sj:
                    if l not in shared:
                        size *= wire_dim[l]
                if best is None or size < best[0]:
                    best = (size, i, j)
        if best is None:
            return plan
        _, i, j = best
        (a, sa), (b, sb) = tensors[i], tensors[j]
        plan.append((a, b))
        tensors = [t for k, t in enumerate(tensors) if k not in (i, j)]
        tensors.append((made, sa ^ sb))
        made += 1


def _walk_order(g, seeds) -> list:
    """Breadth-first node order from the endpoints ``seeds``, exploring
    each node's ports left to right."""
    order, seen = [], set()
    q = deque()

    def see(ep):
        if ep[0] in ("in", "out") and ep[1] not in seen:
            seen.add(ep[1])
            order.append(ep[1])
            q.append(ep[1])

    for ep in seeds:
        see(ep)
    while q:
        nid = q.popleft()
        gen = g.nodes[nid]
        for k in range(len(gen.source)):
            see(g.in_to_out[("in", nid, k)])
        for k in range(len(gen.target)):
            see(g.out_to_in[("out", nid, k)])
    return order


def _renumber(order: list):
    """Endpoint map renaming each node id to its position in ``order``."""
    idx = {nid: i for i, nid in enumerate(order)}

    def ck(ep):
        if ep[0] == "in" or ep[0] == "out":
            return (ep[0], idx[ep[1]], ep[2])
        return ep

    return ck


def _node_parts(g, order: list, ck) -> list:
    parts = []
    for nid in order:
        gen = g.nodes[nid]
        outs = tuple(ck(g.out_to_in[("out", nid, k)])
                     for k in range(len(gen.target)))
        parts.append((gen.kind, gen.colors, outs))
    return parts


def seedwise_canonical_order(g) -> list:
    """Reference for ``diagram.canonical_order``: walk and serialise each
    closed component once per seed node and keep the first least
    serialisation, O(n^2) for an n-node component.  It walks and
    serialises with its own helpers above, not with the lockstep walker."""
    seeds = [g.out_to_in[("src", i)] for i in range(len(g.source))]
    seeds += [g.in_to_out[("tgt", j)] for j in range(len(g.target))]
    order = _walk_order(g, seeds)
    left = set(g.nodes) - set(order)
    comps = []
    while left:
        start = next(iter(left))
        comp = set(_walk_order(g, [("out", start, 0) if g.nodes[start].target
                                   else ("in", start, 0)])) & left
        left -= comp
        best = None
        for seed in sorted(comp):
            ep = ("out", seed, 0) if g.nodes[seed].target else ("in", seed, 0)
            cand = _walk_order(g, [ep])
            ser = repr(_node_parts(g, cand, _renumber(cand)))
            if best is None or ser < best[0]:
                best = (ser, cand)
        comps.append(best)
    comps.sort(key=lambda b: b[0])
    for _, cand in comps:
        order.extend(cand)
    return order


def _scan_split(text: str, sep: str = ","):
    """Reference for ``dsl._split_top``: split on ``sep`` outside
    brackets, one character at a time."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    parts = [p.strip() for p in parts]
    if parts == [""]:
        return []
    return parts


def macro_reference(name: str, arg: str, span: SourceSpan) -> DiagramTerm:
    """Reference for ``dsl._macro``: each macro atom expanded to its
    defining composite, built by hand from generators, identities and
    crossings."""
    def g(kind, *cols):
        return gen_term(Gen(kind, tuple(cols)))

    def idt(seg):
        return identity_term((seg,))

    if name == "window_o":
        # hole in a strip: split, then rejoin around the window colour
        names = _scan_split(arg) if arg is not None else []
        if arg is None:
            a = s = b = DEFAULT_COLOR
        elif len(names) == 2:
            a, b = _colors(arg, 2, name, span)
            s = a
        elif len(names) == 3:
            a, s, b = _colors(arg, 3, name, span)
        elif names:
            raise ParseError("window_o takes 0, 2 or 3 colours", span)
        else:
            raise ParseError("window_o takes 2 or 3 colours in brackets, "
                             "got 0", span)
        return compose(g("Delta_A", a, s, b), g("mu_A", a, s, b))
    if name == "window_c":
        if arg is not None:
            raise ParseError("window_c takes no colours", span)
        return compose(g("Delta_C"), g("mu_C"))
    if name == "window_w":
        (a,) = _colors(arg, 1, name, span)
        return compose(g("zip", a), g("cozip", a))
    if name in ("saddle_cross_l", "saddle_cross_r"):
        a, b, c, d = _colors(arg, 4, name, span)
        if name == "saddle_cross_l":
            top = tensor(g("Delta_A", a, b, c), idt(Seg.I(b, d)))
            mid = tensor(idt(Seg.I(a, b)), DiagramTerm(
                (Seg.I(b, c), Seg.I(b, d)),
                ((Cross(Seg.I(b, c), Seg.I(b, d)),),)))
            bot = tensor(g("mu_A", a, b, d), idt(Seg.I(b, c)))
        else:
            top = tensor(idt(Seg.I(d, b)), g("Delta_A", a, b, c))
            mid = tensor(DiagramTerm(
                (Seg.I(d, b), Seg.I(a, b)),
                ((Cross(Seg.I(d, b), Seg.I(a, b)),),)), idt(Seg.I(b, c)))
            bot = tensor(idt(Seg.I(a, b)), g("mu_A", d, b, c))
        return compose(compose(top, mid), bot)
    if name in ("saddle_zip_l", "saddle_zip_r"):
        a, b = _colors(arg, 2, name, span)
        if name == "saddle_zip_l":
            return compose(tensor(g("zip", a), idt(Seg.I(a, b))),
                           g("mu_A", a, a, b))
        return compose(tensor(idt(Seg.I(a, b)), g("zip", b)),
                       g("mu_A", a, b, b))
    if name in ("saddle_cozip_l", "saddle_cozip_r"):
        a, b = _colors(arg, 2, name, span)
        if name == "saddle_cozip_l":
            return compose(g("Delta_A", a, a, b),
                           tensor(g("cozip", a), idt(Seg.I(a, b))))
        return compose(g("Delta_A", a, b, b),
                       tensor(idt(Seg.I(a, b)), g("cozip", b)))
    raise ParseError(f"unknown atom {name!r}", span)


def _reference_atom(text: str, span: SourceSpan) -> DiagramTerm:
    """``dsl._parse_atom`` with each macro expanded by
    :func:`macro_reference`."""
    m = _ATOM_RE.match(text.strip())
    if m and m.group(3) is None and m.group(1) not in GEN_ARITY \
            and m.group(1) != "cross":
        return macro_reference(m.group(1), m.group(2), span)
    return _parse_atom(text, span)


def statements(text: str):
    """The reference oracles' own statement reader: yield (statement,
    line, col) for each non-blank ``;`` piece of each line, comments cut
    off, stripped, with the column of its first non-blank character."""
    for ln, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        col = 1
        for piece in line.split(";"):
            stripped = piece.strip()
            if stripped:
                yield stripped, ln, col + len(piece) - len(piece.lstrip())
            col += len(piece) + 1


def tensor_parse(text: str, filename: str = "<string>") -> DiagramTerm:
    """Reference for ``dsl.parse``: each row is the ``tensor`` of its
    atoms, every one parsed afresh and each macro expanded by
    :func:`macro_reference`, and is validated whole."""
    palette = None
    source = None
    cur = None
    slices = []
    for stmt, ln, col in statements(text):
        span = SourceSpan(filename, ln, col)
        head = stmt.split(None, 1)[0]
        rest = stmt[len(head):].strip()
        if head == "colors":
            if source is not None or palette is not None:
                raise ParseError("colors header must come first, once", span)
            palette = _scan_split(rest)
            for n in palette:
                if not re.fullmatch(_NAME, n):
                    raise ParseError(f"bad colour name {n!r}", span)
            continue
        if head == "source":
            if source is not None:
                raise ParseError("duplicate source line", span)
            source = cur = tuple(_parse_seg(s, span)
                                 for s in _scan_split(rest))
            continue
        if source is None:
            raise ParseError("expected a source line before rows", span)
        row = tensor(*[_reference_atom(a, span)
                       for a in _scan_split(stmt, "|")])
        try:
            check_composable(cur, row.source)
        except TypingError as e:
            raise TypeMismatch(str(e), span) from None
        cur = row.validate()
        slices.extend(row.slices)
    if source is None:
        raise ParseError("no source line", SourceSpan(filename, 1, 1))
    term = DiagramTerm(source, tuple(slices))
    if palette is not None:
        bad = _used_colors(term) - set(palette) - {DEFAULT_COLOR}
        if bad:
            raise ParseError(
                f"colour(s) {sorted(bad)} not declared in the colors header",
                SourceSpan(filename, 1, 1))
    return term


def axiom_terms_reference(colors):
    """Reference for ``tqft._axiom_instances``: (name, colours, lhs term,
    rhs term) for every axiom instance, each term built by hand."""
    O = Seg.O()

    def I(a, b):
        return Seg.I(a, b)

    def t(kind, *cols):
        return gen_term(Gen(kind, tuple(cols)))

    def i(*segs):
        return identity_term(tuple(segs))

    def x(s1, s2):
        return DiagramTerm((s1, s2), ((Cross(s1, s2),),))

    S = colors
    for a in S:
        for b in S:
            yield ("unitL_A", (a, b),
                   compose(tensor(t("eta_A", a), i(I(a, b))), t("mu_A", a, a, b)),
                   i(I(a, b)))
            yield ("unitR_A", (a, b),
                   compose(tensor(i(I(a, b)), t("eta_A", b)), t("mu_A", a, b, b)),
                   i(I(a, b)))
            yield ("counitL_A", (a, b),
                   compose(t("Delta_A", a, a, b), tensor(t("eps_A", a), i(I(a, b)))),
                   i(I(a, b)))
            yield ("counitR_A", (a, b),
                   compose(t("Delta_A", a, b, b), tensor(i(I(a, b)), t("eps_A", b))),
                   i(I(a, b)))
            yield ("symm_A", (a, b),
                   compose(t("mu_A", a, b, a), t("eps_A", a)),
                   compose(x(I(a, b), I(b, a)), compose(t("mu_A", b, a, b), t("eps_A", b))))
            yield ("knowledge", (a, b),
                   compose(tensor(t("zip", a), i(I(a, b))), t("mu_A", a, a, b)),
                   compose(compose(x(O, I(a, b)), tensor(i(I(a, b)), t("zip", b))),
                           t("mu_A", a, b, b)))
            yield ("cardy", (a, b),
                   compose(t("cozip", b), t("zip", a)),
                   compose(compose(t("Delta_A", b, a, b), x(I(b, a), I(a, b))),
                           t("mu_A", a, b, a)))
            for c in S:
                for d in S:
                    yield ("assoc_A", (a, b, c, d),
                           compose(tensor(t("mu_A", a, b, c), i(I(c, d))),
                                   t("mu_A", a, c, d)),
                           compose(tensor(i(I(a, b)), t("mu_A", b, c, d)),
                                   t("mu_A", a, b, d)))
                    yield ("coassoc_A", (a, b, c, d),
                           compose(t("Delta_A", a, c, d),
                                   tensor(t("Delta_A", a, b, c), i(I(c, d)))),
                           compose(t("Delta_A", a, b, d),
                                   tensor(i(I(a, b)), t("Delta_A", b, c, d))))
                    yield ("frob_A", (a, b, c, d),
                           compose(t("mu_A", a, b, c), t("Delta_A", a, d, c)),
                           compose(tensor(i(I(a, b)), t("Delta_A", b, d, c)),
                                   tensor(t("mu_A", a, b, d), i(I(d, c)))))
                    yield ("frob_A2", (a, b, c, d),
                           compose(t("mu_A", a, b, c), t("Delta_A", a, d, c)),
                           compose(tensor(t("Delta_A", a, d, b), i(I(b, c))),
                                   tensor(i(I(a, d)), t("mu_A", d, b, c))))
    for a in S:
        yield ("ziphom_mul", (a,),
               compose(t("mu_C"), t("zip", a)),
               compose(tensor(t("zip", a), t("zip", a)), t("mu_A", a, a, a)))
        yield ("ziphom_unit", (a,),
               compose(t("eta_C"), t("zip", a)),
               t("eta_A", a))
        yield ("duality", (a,),
               compose(tensor(t("cozip", a), i(O)), compose(t("mu_C"), t("eps_C"))),
               compose(tensor(i(I(a, a)), t("zip", a)),
                       compose(t("mu_A", a, a, a), t("eps_A", a))))
    yield ("assoc_C", (),
           compose(tensor(t("mu_C"), i(O)), t("mu_C")),
           compose(tensor(i(O), t("mu_C")), t("mu_C")))
    yield ("unitL_C", (), compose(tensor(t("eta_C"), i(O)), t("mu_C")), i(O))
    yield ("unitR_C", (), compose(tensor(i(O), t("eta_C")), t("mu_C")), i(O))
    yield ("coassoc_C", (),
           compose(t("Delta_C"), tensor(t("Delta_C"), i(O))),
           compose(t("Delta_C"), tensor(i(O), t("Delta_C"))))
    yield ("counitL_C", (), compose(t("Delta_C"), tensor(t("eps_C"), i(O))), i(O))
    yield ("counitR_C", (), compose(t("Delta_C"), tensor(i(O), t("eps_C"))), i(O))
    yield ("comm_C", (), compose(x(O, O), t("mu_C")), t("mu_C"))
    yield ("cocomm_C", (), compose(t("Delta_C"), x(O, O)), t("Delta_C"))
    yield ("frob_C", (),
           compose(t("mu_C"), t("Delta_C")),
           compose(tensor(i(O), t("Delta_C")), tensor(t("mu_C"), i(O))))
    yield ("frob_C2", (),
           compose(t("mu_C"), t("Delta_C")),
           compose(tensor(t("Delta_C"), i(O)), tensor(i(O), t("mu_C"))))


def join_reference(tensors, place):
    """Reference for ``tqft._join``: one entry per choice of an entry
    from every tensor, its key the sums of the chosen indices times their
    legs' row and column place values, its value the product of the
    chosen values."""
    data = {}
    for parts in itertools.product(*(d.items() for _, d in tensors)):
        at = [(l, i) for (legs, _), (idx, _) in zip(tensors, parts)
              for l, i in zip(legs, idx)]
        key = (sum(i * place[l][0] for l, i in at),
               sum(i * place[l][1] for l, i in at))
        data[key] = math.prod((v for _, v in parts), start=Fraction(1))
    return data
