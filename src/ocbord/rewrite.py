"""Relation catalog, local rewriting, and trace-checked normalization.

The catalog in ``data/rules.json`` lists oriented equations between small
diagrams.  Each rule carries an id, a group tag, a one-line statement of
the law, and the two sides as diagram text.  Colour names appearing in a
rule are variables: matching binds them to the colours found in the host
diagram, and the replacement side is instantiated under the same binding.

A match of a pattern ``P`` in a host graph is an injective map of the
pattern's nodes onto host nodes of the same kind whose internal wires all
exist in the host, together with the host endpoints that feed the
pattern's source ports and consume its target ports.  Those frontier
endpoints must lie outside the matched nodes, so the matched region can
be cut out and the other side glued into the hole.  Sites are reported
in a fixed order, and replacement nodes get fresh ids in a fixed order,
so a rewrite is reproducible from the site alone.

``normalize_with_trace`` rewrites a diagram to its normal form using only
catalog rules and records every step.  The moves act on the wrapped form
of the diagram (all-interval source, all-circle target); the log can be
replayed and verified independently with :func:`check_trace`.

Trace files are plain text::

    ocbord-trace 1
    initial-begin
    <diagram text>
    initial-end
    1 <rule-id> fwd|rev <nodes> <sources> <targets>
    ...
    final-begin
    <diagram text>
    final-end

where ``<nodes>`` are the matched host node ids in pattern order and the
frontier endpoints are written ``s0``/``t1`` for boundary ports and
``o3.0``/``i7.1`` for node outputs and inputs, comma separated, with
``-`` for an empty list.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import NamedTuple

from .diagram import (DiagramTerm, Gen, OcbordError, PortGraph, as_graph,
                      from_port_graph, graph_eq, syntactic_eq, to_port_graph)
from .dsl import parse, render
from .normalform import wrapped_normal_form


class StrategyStuck(OcbordError):
    """Normalization could not reach the expected normal form."""


class TraceError(OcbordError):
    """A move log failed verification."""


class Rule(NamedTuple):
    id: str
    group: str
    law: str
    lhs: DiagramTerm
    rhs: DiagramTerm

    def side(self, reverse: bool = False) -> DiagramTerm:
        return self.rhs if reverse else self.lhs


@lru_cache(maxsize=None)
def rules() -> dict:
    """The shipped relation catalog keyed by rule id.  Treat as read-only."""
    # the module's own loader reads package data, also from a zip
    data = __spec__.loader.get_data(
        os.path.join(os.path.dirname(__file__), "data", "rules.json"))
    out = {}
    for r in json.loads(data)["rules"]:
        out[r["id"]] = Rule(r["id"], r["group"], r["law"],
                            parse(r["lhs"]), parse(r["rhs"]))
    return out


@lru_cache(maxsize=None)
def _pattern(rule_id: str, reverse: bool) -> PortGraph:
    # cached and shared; matching never mutates pattern graphs
    return to_port_graph(rules()[rule_id].side(reverse))


class _Kernel(NamedTuple):
    """A rule side compiled for matching, and the other side for gluing.

    Pattern nodes are named by their index in pattern order (a rule
    side's port graph numbers them 0, 1, ..).  ``inner`` holds the wires
    ``(i, k, j, l)`` from output k of node i to input l of node j;
    ``src`` the wires ``(s, j, l)`` from source port s; ``tgt`` the
    wires ``(i, k, t)`` into target port t.  A side either has
    nodes and no wire straight from a source to a target port, or is one
    such bare wire and nothing else (an empty side).  ``steps`` lead
    from node 0 to all the others: the wire at output (``side == "out"``)
    or input ``k`` of node ``x`` ends at node ``y``, for each ``(side, x,
    k, y)``.  ``gens`` are the replacement's ``(kind, colour
    variables)`` in its node order and ``plan`` its wires, with
    ``("out"/"in", index, port)`` naming a replacement node by its index;
    ``links`` holds, for each source port of the replacement, the set of
    target ports it reaches through it, and ``checks`` the pairs ``(i,
    j)`` in ``links`` that the matched side does not link: at most one
    (see :func:`_splice_is_acyclic`).
    """
    kinds: tuple
    colors: tuple
    source: tuple
    target: tuple
    steps: tuple
    inner: tuple
    src: tuple
    tgt: tuple
    gens: tuple
    plan: tuple
    links: tuple
    checks: tuple


@lru_cache(maxsize=None)
def _kernel(rule_id: str, reverse: bool) -> _Kernel:
    P, R = _pattern(rule_id, reverse), _pattern(rule_id, not reverse)
    inner, src, tgt, bare = [], [], [], 0
    for prod, cons in P.wires():
        if prod[0] == "out" and cons[0] == "in":
            inner.append((prod[1], prod[2], cons[1], cons[2]))
        elif prod[0] == "src" and cons[0] == "in":
            src.append((prod[1], cons[1], cons[2]))
        elif prod[0] == "out" and cons[0] == "tgt":
            tgt.append((prod[1], prod[2], cons[1]))
        else:
            bare += 1
    ends = {**P.out_to_in, **P.in_to_out}
    order, steps = [0] if P.nodes else [], []
    for x in order:                 # grows while it is walked
        for end, far in ends.items():
            if end[0] in ("in", "out") and end[1] == x \
                    and far[0] in ("in", "out") and far[1] not in order:
                order.append(far[1])
                steps.append((end[0], x, end[2], far[1]))
    if len(order) != len(P.nodes):
        raise OcbordError(f"rule {rule_id} has a disconnected side")
    if bare != (0 if P.nodes else 1):
        raise OcbordError(f"rule {rule_id} has a side that is neither one "
                          "bare wire nor free of bare wires")
    links, matched = _links(R), _links(P)
    checks = [(i, j) for i, hit in enumerate(links) for j in sorted(hit)
              if j not in matched[i]]
    if len(checks) > 1:
        raise OcbordError(f"rule {rule_id} links two or more new port pairs "
                          f"{'backwards' if reverse else 'forwards'}")
    gens = [R.nodes[n] for n in range(len(R.nodes))]
    return _Kernel(
        tuple(P.nodes[n].kind for n in range(len(P.nodes))),
        tuple(P.nodes[n].colors for n in range(len(P.nodes))),
        P.source, P.target, tuple(steps),
        tuple(inner), tuple(src), tuple(tgt),
        tuple((gen.kind, gen.colors) for gen in gens),
        tuple(R.wires()), links, tuple(checks))


def _links(G: PortGraph) -> tuple:
    """For each source port of a rule side, the target ports it reaches."""
    links = []
    for i in range(len(G.source)):
        hit, seen = set(), set()
        stack = [G.out_to_in[("src", i)]]
        while stack:
            c = stack.pop()
            if c[0] == "tgt":
                hit.add(c[1])
            elif c[0] == "in" and c[1] not in seen:
                seen.add(c[1])
                for k in range(len(G.nodes[c[1]].target)):
                    stack.append(G.out_to_in[("out", c[1], k)])
        links.append(frozenset(hit))
    return tuple(links)


# replacement generators, shared between moves; bounded, since their
# colours come from the host
_gen = lru_cache(maxsize=1024)(Gen)


class Match(NamedTuple):
    """One site where a rule side matches, and so also one step of a move
    log: applying it reads the colour binding off the host."""
    rule: str
    reverse: bool
    nodes: tuple        # host node ids, in pattern node order
    src_prod: tuple     # host producer feeding each pattern source port
    tgt_cons: tuple     # host consumer eating each pattern target port


def _unify_seg(env, pseg, hseg) -> bool:
    if pseg.is_interval != hseg.is_interval:
        return False
    if pseg.is_interval:
        if env.setdefault(pseg.left, hseg.left) != hseg.left:
            return False
        if env.setdefault(pseg.right, hseg.right) != hseg.right:
            return False
    return True


def _bind(host: PortGraph, K: _Kernel, nodes: tuple):
    """Check a node assignment; return (src_prod, tgt_cons), or None when
    the assignment is not a match."""
    if len(nodes) != len(K.kinds) or len(set(nodes)) != len(nodes):
        return None
    hnodes, o2i, i2o = host.nodes, host.out_to_in, host.in_to_out
    env: dict = {}
    for hn, kind, cvars in zip(nodes, K.kinds, K.colors):
        hg = hnodes.get(hn)
        if hg is None or hg.kind != kind:
            return None
        for v, c in zip(cvars, hg.colors):
            if env.setdefault(v, c) != c:
                return None
    for i, k, j, l in K.inner:
        if o2i.get(("out", nodes[i], k)) != ("in", nodes[j], l):
            return None
    src_prod: list = [None] * len(K.source)
    tgt_cons: list = [None] * len(K.target)
    # Typing makes the frontier segments unify once the node colours do;
    # a target wire that re-enters the match is also a source wire, which
    # the first loop rejects.
    for s, j, l in K.src:
        hp = i2o[("in", nodes[j], l)]
        if hp[0] == "out" and hp[1] in nodes:
            return None
        src_prod[s] = hp
    for i, k, t in K.tgt:
        tgt_cons[t] = o2i[("out", nodes[i], k)]
    return tuple(src_prod), tuple(tgt_cons)


def _reaches(host: PortGraph, start: int, goals: set) -> bool:
    seen = set()
    stack = [start]
    while stack:
        n = stack.pop()
        if n in goals:
            return True
        if n in seen:
            continue
        seen.add(n)
        for k in range(len(host.nodes[n].target)):
            c = host.out_to_in[("out", n, k)]
            if c[0] == "in":
                stack.append(c[1])
    return False


def _splice_is_acyclic(host, rule_id, reverse, src_prod, tgt_cons) -> bool:
    """Whether gluing in the other side closes no loop.

    A loop must run through the new material from some source port ``i``
    to some target port ``j``.  If the matched side links ``i`` to ``j``
    too, the host already holds a path from the producer at ``i`` to the
    consumer at ``j``, so a host path back would be a loop in the acyclic
    host.  So a loop through the new material uses a pair the matched
    side does not link, one of the kernel's ``checks``; with at most one
    such pair, searching the host for a path from the consumer at ``j``
    back to the producer at ``i`` of that pair alone is complete.
    """
    for i, j in _kernel(rule_id, reverse).checks:
        sp, tc = src_prod[i], tgt_cons[j]
        if sp[0] == "out" and tc[0] == "in" \
                and _reaches(host, tc[1], {sp[1]}):
            return False
    return True


def _of_kind(g: PortGraph, *kinds) -> list:
    """The ids of the nodes whose kind is one of ``kinds``, ascending,
    read from the graph's kind index."""
    index = g.kind_index()
    return sorted([n for kind in kinds for n in index.get(kind, ())])


def _sites(host: PortGraph, K: _Kernel, at):
    """``(nodes, src_prod, tgt_cons)`` for each site of
    :func:`find_matches` before its splice check, one at a time."""
    if not K.kinds:
        if at:
            return          # an empty side has no nodes to pin
        for hp in sorted(host.out_to_in):
            if _unify_seg({}, K.source[0], host.producer_seg(hp)):
                yield (), (hp,), (host.out_to_in[hp],)
        return
    if at is not None:
        got = _bind(host, K, tuple(at))
        if got is not None:
            yield (tuple(at), *got)
        return
    # each anchor fixes at most one tuple, led by the anchor, so the
    # anchors' id order is the sites' order; _bind re-checks everything
    # the walk skips (port numbers, colours, the other wires)
    hnodes, kinds = host.nodes, K.kinds
    wires = {"out": host.out_to_in, "in": host.in_to_out}
    for anchor in _of_kind(host, kinds[0]):
        mp = [anchor] * len(kinds)
        for side, x, k, y in K.steps:
            far = wires[side][(side, mp[x], k)]
            if far[0] not in ("in", "out") \
                    or hnodes[far[1]].kind != kinds[y]:
                break
            mp[y] = far[1]
        else:
            nodes = tuple(mp)
            got = _bind(host, K, nodes)
            if got is not None:
                yield (nodes, *got)


def find_matches(host: PortGraph, rule_id: str, reverse: bool = False,
                 at: tuple = None, *, first: bool = False) -> list:
    """All sites where the rule side matches, in a fixed order.

    Sites are ordered by their host nodes; an empty side matches once on
    each host wire its segment unifies with, in wire order.  ``at`` pins
    the host node assignment (pattern node order) instead of searching.
    Sites are built one at a time, so ``first=True`` stops at the first
    site, returning it alone (or no site), at the cost of the search up
    to it.
    """
    out = []
    for nodes, src_prod, tgt_cons in _sites(
            host, _kernel(rule_id, reverse), at):
        if _splice_is_acyclic(host, rule_id, reverse, src_prod, tgt_cons):
            out.append(Match(rule_id, reverse, nodes, src_prod, tgt_cons))
            if first:
                break
    return out


def _apply_full(h: PortGraph, m: Match) -> list:
    """Cut out the matched side and glue in the other side of the rule,
    editing ``h`` itself; returns the new node ids in pattern order.  The
    colours are read off the matched nodes, or a bare wire's segment."""
    K = _kernel(m.rule, m.reverse)
    env: dict = {}
    for hn, cvars in zip(m.nodes, K.colors):
        env.update(zip(cvars, h.nodes[hn].colors))
    if not K.kinds:
        _unify_seg(env, K.source[0], h.producer_seg(m.src_prod[0]))
    try:
        gens = [_gen(kind, tuple(env[v] for v in cvars))
                for kind, cvars in K.gens]
    except KeyError as e:
        raise OcbordError(
            f"rule {m.rule} cannot be applied "
            f"{'backwards' if m.reverse else 'forwards'}: "
            f"colour {e} is not determined by the matched side")
    for hn in m.nodes:
        h.remove_node(hn)
    new = [h.add_node(gen) for gen in gens]
    for prod, cons in K.plan:
        hp = m.src_prod[prod[1]] if prod[0] == "src" \
            else ("out", new[prod[1]], prod[2])
        hc = m.tgt_cons[cons[1]] if cons[0] == "tgt" \
            else ("in", new[cons[1]], cons[2])
        h.wire(hp, hc)
    return new


def apply_match(host: PortGraph, m: Match) -> PortGraph:
    """Cut out the matched side and glue in the other side of the rule,
    in a copy of ``host``."""
    h = host.copy()
    _apply_full(h, m)
    return h


# --- move logs ----------------------------------------------------------

class MoveTrace(NamedTuple):
    initial: DiagramTerm
    moves: tuple
    final: DiagramTerm


def _ep_str(ep) -> str:
    tag = ep[0]
    if tag == "src":
        return f"s{ep[1]}"
    if tag == "tgt":
        return f"t{ep[1]}"
    return f"{'o' if tag == 'out' else 'i'}{ep[1]}.{ep[2]}"


def _ep_parse(s: str):
    try:
        if s[0] in "st":
            return ("src" if s[0] == "s" else "tgt", int(s[1:]))
        if s[0] in "oi":
            n, k = s[1:].split(".")
            return ("out" if s[0] == "o" else "in", int(n), int(k))
    except (ValueError, IndexError):
        pass
    raise TraceError(f"bad endpoint {s!r} in move log")


def _join(items, fmt) -> str:
    return ",".join(fmt(x) for x in items) if items else "-"


def _split(field: str, parse_one) -> tuple:
    if field == "-":
        return ()
    return tuple(parse_one(x) for x in field.split(","))


def format_move(step: int, mv: Match) -> str:
    return " ".join([str(step), mv.rule, "rev" if mv.reverse else "fwd",
                     _join(mv.nodes, str), _join(mv.src_prod, _ep_str),
                     _join(mv.tgt_cons, _ep_str)])


def parse_move(line: str) -> tuple:
    parts = line.split()
    if len(parts) != 6 or parts[2] not in ("fwd", "rev"):
        raise TraceError(f"bad move line {line!r}")
    try:
        step = int(parts[0])
        nodes = _split(parts[3], int)
    except ValueError:
        raise TraceError(f"bad step or node id in move line {line!r}") \
            from None
    mv = Match(parts[1], parts[2] == "rev", nodes,
               _split(parts[4], _ep_parse), _split(parts[5], _ep_parse))
    return step, mv


def trace_text(trace: MoveTrace) -> str:
    lines = ["ocbord-trace 1", "initial-begin",
             render(trace.initial).rstrip("\n"), "initial-end"]
    for i, mv in enumerate(trace.moves, 1):
        lines.append(format_move(i, mv))
    lines += ["final-begin", render(trace.final).rstrip("\n"), "final-end"]
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> MoveTrace:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["ocbord-trace", "1"]:
        raise TraceError("not a move log: missing 'ocbord-trace 1' header")

    def block(start, opener, closer):
        if start >= len(lines) or lines[start].strip() != opener:
            raise TraceError(f"expected {opener!r} in move log")
        body = []
        i = start + 1
        while i < len(lines) and lines[i].strip() != closer:
            body.append(lines[i])
            i += 1
        if i == len(lines):
            raise TraceError(f"missing {closer!r} in move log")
        return "\n".join(body) + "\n", i + 1

    initial_text, i = block(1, "initial-begin", "initial-end")
    moves = []
    while i < len(lines) and lines[i].strip() != "final-begin":
        step, mv = parse_move(lines[i])
        if step != len(moves) + 1:
            raise TraceError(f"move steps out of order at {lines[i]!r}")
        moves.append(mv)
        i += 1
    final_text, i = block(i, "final-begin", "final-end")
    if i != len(lines):
        raise TraceError("trailing junk after move log")
    return MoveTrace(parse(initial_text), tuple(moves), parse(final_text))


def write_trace(trace: MoveTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_text(trace))


def read_trace(path) -> MoveTrace:
    """Read a trace file; text that is not UTF-8 is a TraceError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise TraceError(f"{path}: not UTF-8 text: {e}") from None
    return parse_trace(text)


def check_trace(trace: MoveTrace) -> bool:
    """Replay a move log from scratch and verify every step.

    Each step must be one of the matches found at its nodes in the
    replayed diagram, so a log edited to use a rule where it does not
    apply is rejected.  The moves rewrite one graph, built from the
    initial diagram, in place.  The replayed result must equal the
    recorded final diagram.
    """
    g = to_port_graph(trace.initial)
    for step, mv in enumerate(trace.moves, 1):
        if mv.rule not in rules():
            raise TraceError(f"step {step}: unknown rule {mv.rule!r}")
        if mv not in find_matches(g, mv.rule, mv.reverse, at=mv.nodes):
            raise TraceError(
                f"step {step}: {mv.rule} does not match at the recorded site")
        _apply_full(g, mv)
    if not graph_eq(g, to_port_graph(trace.final)):
        raise TraceError("replayed moves do not produce the recorded "
                         "final diagram")
    return True


# --- normalization strategy ---------------------------------------------

class _Recorder:
    def __init__(self, g: PortGraph):
        self.g = g
        self.moves: list = []
        # path counts of nodes with no Delta_A at or below them, kept
        # across moves for _least_delta; closed downwards: with a node,
        # every node below it
        self.paths: dict = {}

    def apply(self, m: Match) -> list:
        new = _apply_full(self.g, m)
        self.moves.append(m)
        # a move changes the cones of the matched nodes and of the nodes
        # above its sources only; a node without a count has none above it
        g, paths = self.g, self.paths
        stack = list(m.nodes) + [p[1] for p in m.src_prod if p[0] == "out"]
        while stack:
            n = stack.pop()
            if paths.pop(n, None) is not None and n in g.nodes:
                ins = range(len(g.nodes[n].source))
                stack += [p[1] for p in (g.in_to_out[("in", n, k)]
                                         for k in ins) if p[0] == "out"]
        return new

    def do(self, rule_id: str, reverse: bool, nodes) -> list:
        ms = find_matches(self.g, rule_id, reverse, at=tuple(nodes))
        if not ms:
            raise StrategyStuck(f"{rule_id} does not apply at {nodes}")
        return self.apply(ms[0])

    def try_first(self, rule_id: str, reverse: bool = False) -> bool:
        ms = find_matches(self.g, rule_id, reverse, first=True)
        if not ms:
            return False
        self.apply(ms[0])
        return True


def _least_delta(rec: _Recorder, deltas: list) -> int:
    """The node of ``deltas`` with least ``(value, id)``, where a node's
    value is one plus the sum of its successors' values (a weighted count
    of the paths leaving it).

    Values fall along every path, so the pick has no other ``Delta_A``
    below it.  Each candidate's cone is walked depth first until a
    ``Delta_A`` turns up below it; the nodes on the walk's path then lie
    above one too, which the later walks of this call read.  A node whose
    walk ends without one gets its value in ``rec.paths``, which later
    calls reuse until a move below the node forgets it.  The walk is
    iterative, since chains can be deeper than the recursion limit.
    """
    o2i, nodes, paths = rec.g.out_to_in, rec.g.nodes, rec.paths
    above, best = set(), None

    def succ(n):
        return [c[1] for c in (o2i[("out", n, k)]
                               for k in range(len(nodes[n].target)))
                if c[0] == "in"]

    for d in deltas:
        path = [[d, succ(d), 0]]
        while path:
            frame = path[-1]
            n, ss, i = frame
            if i < len(ss):
                frame[2] += 1
                if ss[i] in paths:
                    continue
                if ss[i] in above or nodes[ss[i]].kind == "Delta_A":
                    above.update(f[0] for f in path)
                    break
                path.append([ss[i], succ(ss[i]), 0])
                continue
            path.pop()
            value = 1 + sum(paths[m] for m in ss)
            if path:
                paths[n] = value
            elif best is None or (value, n) < best:
                best = (value, n)
    return best[1]


def _is_handle(g: PortGraph, s: int) -> bool:
    c0 = g.out_to_in[("out", s, 0)]
    c1 = g.out_to_in[("out", s, 1)]
    return (c0[0] == "in" and c1[0] == "in" and c0[1] == c1[1]
            and g.nodes[c0[1]].kind == "mu_C")


def _is_cap(g: PortGraph, m: int) -> bool:
    # the mu_C closing a handle: both inputs come from one node
    p0 = g.in_to_out[("in", m, 0)]
    p1 = g.in_to_out[("in", m, 1)]
    return p0[0] == p1[0] == "out" and p0[1] == p1[1]


class _Comb(NamedTuple):
    """A kind of binary tree the strategy combs.  The tree hangs off a
    root endpoint and is read along ``direction``, the wire map walked
    away from the root: ``in_to_out`` for products above a consumer,
    ``out_to_in`` for coproducts below a producer.  Port 0 of a node is
    its left arm.  A ``kind`` node for which ``stop`` holds is a leaf."""
    kind: str
    direction: str
    assoc: str
    comm: str = None
    stop: object = None


_MU_A = _Comb("mu_A", "in_to_out", "assoc_A")
_MU_C = _Comb("mu_C", "in_to_out", "assoc_C", "comm_C", _is_cap)
_DELTA_C = _Comb("Delta_C", "out_to_in", "coassoc_C", "cocomm_C", _is_handle)


class _CombView:
    """The ``spec`` tree at endpoint ``root`` of the working graph.

    The spine runs from the root along left arms; a left comb has a leaf
    on every right arm.  Every operation but :meth:`left_comb` re-reads
    the tree from the root.
    """

    def __init__(self, rec: _Recorder, spec: _Comb, root):
        self.rec, self.spec, self.root = rec, spec, root
        self.g = g = rec.g
        # the port kinds away from the root and towards it, and the wire
        # map walked towards it
        self.port, self.back, self.up = ("in", "out", g.out_to_in) \
            if spec.direction == "in_to_out" else ("out", "in", g.in_to_out)

    @classmethod
    def holding(cls, rec: _Recorder, spec: _Comb, leaf):
        """The view of the tree that ``leaf`` is a leaf of, rooted at the
        first endpoint towards the root that is not a tree node."""
        view = cls(rec, spec, None)
        end = view.up[leaf]
        while (n := view._node(end)) is not None:
            end = view.up[(view.back, n, 0)]
        view.root = end
        return view

    @classmethod
    def trees(cls, rec: _Recorder, spec: _Comb) -> list:
        """Views of every whole ``spec`` tree, ascending by the id of its
        top node (the one nearest the root), each rooted where
        :meth:`holding` roots it."""
        v = cls(rec, spec, None)
        ups = [v.up[(v.back, n, 0)] for n in _of_kind(rec.g, spec.kind)
               if v._node((v.back, n, 0)) is not None]
        return [cls(rec, spec, end) for end in ups if v._node(end) is None]

    def across(self, end):
        """The far end of the wire at ``end``, away from the root."""
        return getattr(self.g, self.spec.direction)[end]

    def _node(self, end):
        # the tree node at a far end, or None for a leaf
        g, spec = self.g, self.spec
        if end[0] in ("in", "out") and g.nodes[end[1]].kind == spec.kind \
                and not (spec.stop and spec.stop(g, end[1])):
            return end[1]
        return None

    def _flow(self, child, parent) -> tuple:
        # two adjacent tree nodes as a rule site: producer first
        return (child, parent) if self.port == "in" else (parent, child)

    def walk(self) -> tuple:
        """The spine, root first, and the leaves, left to right;
        iterative, since combs can be deeper than the recursion limit."""
        wires, node, port = getattr(self.g, self.spec.direction), \
            self._node, self.port
        spine, arms = [], []
        end = wires[self.root]
        while (n := node(end)) is not None:
            spine.append(n)
            arms.append(wires[(port, n, 1)])
            end = wires[(port, n, 0)]
        leaves, stack = [end], arms     # right arms pop farthest first
        while stack:
            end = stack.pop()
            if (n := node(end)) is None:
                leaves.append(end)
            else:
                stack += (wires[(port, n, 1)], wires[(port, n, 0)])
        return spine, leaves

    def _branches(self):
        # the reassociation sites, nearest the root first: spine nodes
        # whose right arm holds a tree node.  A move leaves a leaf on the
        # right arm of every spine node above its site, so the search
        # resumes at the endpoint above the last site
        above = self.root
        while (n := self._node(self.across(above))) is not None:
            c = self._node(self.across((self.port, n, 1)))
            if c is None:
                above = (self.port, n, 0)
            else:
                yield self._flow(c, n)

    def left_comb(self):
        """Reassociate into a left comb.  Each move puts one more node on
        the spine, so the internal node count on entry bounds the moves."""
        moves = len(self.walk()[1]) - 1
        for site in self._branches():
            if moves == 0:
                raise StrategyStuck(f"{self.spec.kind} comb reassociation "
                                    "did not converge")
            moves -= 1
            self.rec.do(self.spec.assoc, True, site)

    def rotate_until(self, want):
        """Comb a tree of ``mu_A`` under a cozip, then rotate it, moving
        its last leaf to the front, until ``want(leaves)`` holds.  As many
        turns as leaves bring the comb back to where it started."""
        self.left_comb()
        leaves = self.walk()[1]
        for _ in range(len(leaves) + 1):
            if want(leaves):
                return
            top = self.across(self.root)[1]
            cz = self.rec.do("cozip_mul_rot", False, (top, self.root[1]))[1]
            self.root = ("in", cz, 0)
            self.left_comb()
            leaves = self.walk()[1]
        raise StrategyStuck("comb rotation did not reach the wanted leaf")

    def sort(self, key):
        """Comb, then sort the leaves ascending by ``key``.  Each round swaps
        the out-of-order adjacent pair met first from the top of the
        diagram (the far end of a product comb, the root of a coproduct
        comb), so the k leaves on entry need at most k(k-1)/2 rounds and
        a last one.  The moves touch only tree nodes, so a leaf's key is
        computed once."""
        key = lru_cache(maxsize=None)(key)
        self.left_comb()
        k = len(self.walk()[1])
        for _ in range(k * (k - 1) // 2 + 1):
            spine, leaves = self.walk()
            keys = [key(lf) for lf in leaves]
            pairs = range(len(keys) - 1)
            if self.port == "out":
                pairs = reversed(pairs)
            pos = next((i for i in pairs if keys[i] > keys[i + 1]), None)
            if pos is None:
                return
            m, do = len(spine), self.rec.do
            if pos == 0:                # both leaves on the last node
                do(self.spec.comm, True, (spine[-1],))
                continue
            far, near = spine[m - pos], spine[m - 1 - pos]
            new = do(self.spec.assoc, False, self._flow(far, near))
            child, parent = self._flow(*new)
            swapped = do(self.spec.comm, True, (child,))[0]
            do(self.spec.assoc, True, self._flow(swapped, parent))
        raise StrategyStuck(f"{self.spec.kind} comb sorting did not converge")


def _exhaust(rec: _Recorder, step, cap: int, what: str):
    """Run ``step(rec)`` until a step makes no move.  A step beyond the
    first ``cap`` that still makes a move raises :class:`StrategyStuck`."""
    for _ in range(cap):
        if not step(rec):
            return
    if step(rec):
        raise StrategyStuck(f"{what} did not terminate")


def _phase_boundary(rec: _Recorder):
    # open counits become cozip + closed counit; open units become
    # zipped closed units
    while rec.try_first("counit_to_cozip"):
        pass
    while rec.try_first("ziphom_unit", reverse=True):
        pass


def _phase_open(rec: _Recorder) -> bool:
    # alternate zip staging with comultiplication elimination: staging
    # keeps every zip off the open products, which in turn keeps the
    # frobenius moves below applicable (any blocking path would have to
    # re-enter the open sector through a zip)
    _exhaust(rec, _phase_zip, 20000, "zip staging")
    deltas = _of_kind(rec.g, "Delta_A")
    if not deltas:
        return False
    d = _least_delta(rec, deltas)
    blocks = [_CombView.holding(rec, _MU_A, ("out", d, k)) for k in (0, 1)]
    for blk in blocks:
        if blk.root[0] != "in":
            raise StrategyStuck("comult elimination: open strand "
                                "reaches the boundary")
        kind = rec.g.nodes[blk.root[1]].kind
        if kind != "cozip":
            raise StrategyStuck("comult elimination: open strand "
                                f"blocked by {kind}")
    if blocks[0].root == blocks[1].root:
        _comult_one_cozip(rec, d, blocks[0])
    else:
        _comult_two_cozips(rec, d, *blocks)
    return True


def _absorb_legs(rec: _Recorder, d: int, blk: _CombView, done) -> int:
    """Move leaves of ``blk`` above ``d`` by frobL_A until ``done(d)``
    holds; returns the last ``d``.  Each move takes one leaf off the
    block, so the leaf count on entry bounds the moves."""
    moves = len(blk.walk()[1])
    while not done(d):
        if moves == 0:
            raise StrategyStuck("leg absorption did not converge")
        moves -= 1
        b = rec.g.out_to_in[("out", d, 1)][1]
        d = rec.do("frobL_A", False, (d, b))[1]
    return d


def _comult_one_cozip(rec: _Recorder, d: int, blk: _CombView):
    # both legs reach the same cozip: rotate the second leg to the
    # front, absorb everything between the legs, then fold by cardy
    blk.rotate_until(lambda ls: ls[0] == ("out", d, 1))
    d = _absorb_legs(rec, d, blk, lambda d: blk.walk()[1][1] == ("out", d, 0))
    b = rec.g.out_to_in[("out", d, 1)][1]
    rec.do("cardy", True, (d, b))


def _comult_two_cozips(rec: _Recorder, d: int, blk0: _CombView,
                       blk1: _CombView):
    # legs reach different cozips: bring each leg directly under its
    # cozip, then split off a closed comultiplication
    if blk0.across(blk0.root) != ("out", d, 0):
        blk0.rotate_until(lambda ls: ls[-1] == ("out", d, 0))
        d = rec.do("frobR_A", False, (d, blk0.across(blk0.root)[1]))[1]
    if blk1.across(blk1.root) != ("out", d, 1):
        blk1.rotate_until(lambda ls: ls[0] == ("out", d, 1))
        d = _absorb_legs(rec, d, blk1,
                         lambda d: blk1.across(blk1.root) == ("out", d, 1))
    rec.do("comul_to_cozips", False, (d, blk0.root[1], blk1.root[1]))


def _phase_zip(rec: _Recorder) -> bool:
    # walk zips down the open products until each one feeds a cozip;
    # a zip resting on a comultiplication stays put for now (the
    # comultiplication is eliminated later, then staging resumes)
    g = rec.g
    for z in _of_kind(g, "zip"):
        zc = g.out_to_in[("out", z, 0)]
        if zc[0] != "in" or g.nodes[zc[1]].kind != "mu_A":
            continue
        m, k = zc[1], zc[2]
        other = g.in_to_out[("in", m, 1 - k)]
        if other[0] == "out" and g.nodes[other[1]].kind == "zip":
            pair = (z, other[1], m) if k == 0 else (other[1], z, m)
            rec.do("ziphom_mul", True, pair)
            return True
        if k == 0:
            rec.do("zipcenter", False, (z, m))
            return True
        cons = g.out_to_in[("out", m, 0)]
        if cons[0] != "in":
            raise StrategyStuck("open strand reaches the boundary")
        kind = g.nodes[cons[1]].kind
        if kind == "cozip":
            rec.do("cozip_absorb_zip", False, (z, m, cons[1]))
            return True
        if kind == "mu_A":
            rec.do("assoc_A", cons[2] == 1, (m, cons[1]))
            return True
    return False


def _closed_frob_step(rec: _Recorder) -> bool:
    g = rec.g
    for s in _of_kind(g, "Delta_C"):
        c0 = g.out_to_in[("out", s, 0)]
        c1 = g.out_to_in[("out", s, 1)]
        if _is_handle(g, s):
            if c0[2] == 1:      # crossed handle: straighten it
                rec.do("comm_C", True, (c0[1],))
                return True
            continue            # straight handle: a genus macro
        for k, ck in ((1, c1), (0, c0)):
            if ck[0] != "in" or g.nodes[ck[1]].kind != "mu_C":
                continue
            m, j = ck[1], ck[2]
            # the split and the merge may be joined elsewhere too; then
            # merging here would pinch a loop, so slide that other
            # material out of the way first
            other_cons = g.out_to_in[("out", s, 1 - k)]
            other_prod = g.in_to_out[("in", m, 1 - j)]
            if other_cons[0] == "in" and other_prod[0] == "out" \
                    and _reaches(g, other_cons[1], {other_prod[1]}):
                continue
            sid, mid = s, m
            if k == 0:
                sid = rec.do("cocomm_C", True, (s,))[0]
            if j == 1:
                mid = rec.do("comm_C", True, (m,))[0]
            rec.do("frobL_C", False, (sid, mid))
            return True
    return False


def _macros(g: PortGraph) -> list:
    """Window and handle pairs ``(kind, (top, bottom))``, entered at input
    0 of ``top`` and left at output 0 of ``bottom``; the kind,
    ``"window"`` or ``"handle"``, prefixes the pair's slide rules."""
    out = []
    for n in _of_kind(g, "zip", "Delta_C"):
        cons = g.out_to_in[("out", n, 0)]
        if g.nodes[n].kind == "zip":
            if cons[0] == "in" and g.nodes[cons[1]].kind == "cozip":
                out.append(("window", (n, cons[1])))
        elif _is_handle(g, n) and cons[2] == 0:     # a straight handle
            out.append(("handle", (n, cons[1])))
    return out


def _macro_step(rec: _Recorder) -> bool:
    # each loop either makes a move and returns or leaves the graph as it
    # was, so one list of macros serves both
    g = rec.g
    macros = _macros(g)
    for kind, (top, bottom) in macros:
        cons = g.out_to_in[("out", bottom, 0)]
        if cons[0] == "in" and g.nodes[cons[1]].kind == "mu_C":
            rec.do(f"{kind}_slide_mul_{'lr'[cons[2]]}", False,
                   (top, bottom, cons[1]))
            return True
        prod = g.in_to_out[("in", top, 0)]
        if prod[0] == "out" and g.nodes[prod[1]].kind == "Delta_C":
            rec.do(f"{kind}_slide_comul_{'lr'[prod[2]]}", True,
                   (prod[1], top, bottom))
            return True
    # a handle or window above a window swaps with it: handles first, and
    # two windows only when out of colour order
    for want, rule in (("handle", "window_handle_swap"),
                       ("window", "window_swap")):
        for kind, (top, bottom) in macros:
            cons = g.out_to_in[("out", bottom, 0)]
            if kind != want or cons[0] != "in" \
                    or g.nodes[cons[1]].kind != "zip":
                continue
            z = cons[1]
            zc = g.out_to_in[("out", z, 0)]
            if zc[0] == "in" and g.nodes[zc[1]].kind == "cozip" and (
                    kind == "handle" or g.nodes[top].colors[0]
                    > g.nodes[z].colors[0]):
                rec.do(rule, False, (top, bottom, z, zc[1]))
                return True
    return False


def _phase_closed(rec: _Recorder) -> bool:
    return (rec.try_first("unitL_C") or rec.try_first("unitR_C")
            or rec.try_first("counitL_C") or rec.try_first("counitR_C")
            or _closed_frob_step(rec) or _macro_step(rec))


def _phase_canonical(rec: _Recorder):
    # open blocks: left comb with the smallest source port leading
    for cz in _of_kind(rec.g, "cozip"):
        prod = rec.g.in_to_out[("in", cz, 0)]
        if prod[0] == "out" and rec.g.nodes[prod[1]].kind == "zip":
            continue            # window, not a block
        _CombView(rec, _MU_A, ("in", cz, 0)).rotate_until(
            lambda ls: ls[0] == min(ls))

    # closed merges: left comb sorted by each block's smallest port
    def block_min(leaf):
        if leaf[0] != "out" or rec.g.nodes[leaf[1]].kind != "cozip":
            raise StrategyStuck("closed merge leaf is not a block")
        blk = _CombView(rec, _MU_A, ("in", leaf[1], 0))
        return min(lf[1] for lf in blk.walk()[1])

    for merge in _CombView.trees(rec, _MU_C):
        merge.sort(block_min)

    # closed splits: spine along the first leg, outputs sorted so the
    # lowest target hangs off the deepest comultiplication
    def target(leg):
        if leg[0] != "tgt":
            raise StrategyStuck("split leg does not reach the boundary")
        return leg[1]

    for split in _CombView.trees(rec, _DELTA_C):
        split.sort(target)


def normalize_with_trace(x):
    """Normalize a diagram by recorded rule applications.

    Returns ``(normal form, trace)``.  The trace acts on the wrapped
    diagram; its final entry is the wrapped normal form, and the returned
    term is the unwrapped result, which equals :func:`normal_form` of the
    input.  A diagram already in normal form yields an empty move list.
    """
    t = x if isinstance(x, DiagramTerm) else from_port_graph(as_graph(x))
    nf, wrapped, target = wrapped_normal_form(t)
    wt = from_port_graph(wrapped)
    if syntactic_eq(t, nf):
        return t, MoveTrace(wt, (), wt)
    rec = _Recorder(to_port_graph(wt))
    _phase_boundary(rec)
    _exhaust(rec, _phase_open, 10000, "open comultiplication elimination")
    _exhaust(rec, _phase_closed, 50000, "closed tidying")
    _phase_canonical(rec)
    if not graph_eq(rec.g, target):
        raise StrategyStuck("normalization reached an unexpected shape; "
                            "the move log so far is still sound")
    return nf, MoveTrace(wt, tuple(rec.moves), from_port_graph(rec.g))


def normalize(x) -> DiagramTerm:
    """Normal form computed by recorded rewriting; see
    :func:`normalize_with_trace`."""
    return normalize_with_trace(x)[0]
