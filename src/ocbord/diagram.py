"""Core representation of open-closed cobordism diagrams.

A diagram lives in two interchangeable forms:

* a *term*: a vertical stack of slices, each slice a left-to-right row of
  factors (generators, identities, wire crossings), read top to bottom;
* a *port graph*: generator nodes wired together, with ordered boundary
  ports.

Identities and crossings are term bookkeeping only.  Converting a term to
a port graph absorbs them into the wiring; converting back synthesises
fresh ones.  Two terms denote the same ordered wiring exactly when their
port graphs are equal under :func:`canonical_key`.

Boundary objects are tuples of segments: circles ``O`` and intervals
``I[a,b]`` whose two edge colours ``a`` (left) and ``b`` (right) name the
free-boundary labels.  Monochrome diagrams use the single colour ``*``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache

DEFAULT_COLOR = "*"


class OcbordError(Exception):
    """Base class for errors raised by this package."""


class TypingError(OcbordError):
    """A diagram fails to type-check (mismatched boundary segments)."""


_set = object.__setattr__


class _Value:
    """Base of the immutable values below.  Each sets its fields once, in
    ``__init__``, and writes out its ``__eq__``, which ``syntactic_eq``
    calls per factor; factors also store their ``source`` and ``target``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Seg(_Value):
    """One boundary segment: a circle ``O`` or an interval ``I[left,right]``.

    ``Seg.O()`` and ``Seg.I(a, b)`` return one shared instance per value
    (hash-consing), so a tuple compare of parsed boundaries meets equal
    segments as identical objects.  The constructor, ``copy`` and
    ``pickle`` make fresh instances, equal to the shared one."""

    __slots__ = _fields = ("kind", "left", "right")
    __hash__ = _Value.__hash__

    def __init__(self, kind: str, left: str = "", right: str = ""):
        _set(self, "kind", kind)
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        return (self.kind == other.kind and self.left == other.left
                and self.right == other.right
                if other.__class__ is Seg else NotImplemented)

    @staticmethod
    def O() -> "Seg":
        return _shared_seg("O", "", "")

    @staticmethod
    def I(left: str = DEFAULT_COLOR, right: str = DEFAULT_COLOR) -> "Seg":
        return _shared_seg("I", left, right)

    @property
    def is_interval(self) -> bool:
        return self.kind == "I"

    def __str__(self) -> str:
        if self.kind == "O":
            return "O"
        if self.left == DEFAULT_COLOR and self.right == DEFAULT_COLOR:
            return "I"
        return f"I[{self.left},{self.right}]"


# (kind, left, right) -> the shared segment of that value.  The least
# recently used entry is evicted at the cap; a segment made before that
# stays equal to its successor, though no longer identical.
SEG_TABLE_CAP = 4096
_shared_seg = lru_cache(maxsize=SEG_TABLE_CAP)(Seg)


def fmt_obj(segs) -> str:
    """Render a boundary object for error messages and printing."""
    return ", ".join(str(s) for s in segs) if segs else "(empty)"


# Generator signatures.  Colour parameters follow the strip reading:
# mu_A[a,b,c] multiplies I[a,b] (x) I[b,c] -> I[a,c]; Delta_A[a,b,c] is its
# mirror; zip/cozip mediate between a circle and a one-colour interval.
_SIGS = {
    "mu_A":    (3, lambda a, b, c: ((Seg.I(a, b), Seg.I(b, c)), (Seg.I(a, c),))),
    "eta_A":   (1, lambda a: ((), (Seg.I(a, a),))),
    "Delta_A": (3, lambda a, b, c: ((Seg.I(a, c),), (Seg.I(a, b), Seg.I(b, c)))),
    "eps_A":   (1, lambda a: ((Seg.I(a, a),), ())),
    "mu_C":    (0, lambda: ((Seg.O(), Seg.O()), (Seg.O(),))),
    "eta_C":   (0, lambda: ((), (Seg.O(),))),
    "Delta_C": (0, lambda: ((Seg.O(),), (Seg.O(), Seg.O()))),
    "eps_C":   (0, lambda: ((Seg.O(),), ())),
    "zip":     (1, lambda a: ((Seg.O(),), (Seg.I(a, a),))),
    "cozip":   (1, lambda a: ((Seg.I(a, a),), (Seg.O(),))),
}

GEN_ARITY = {kind: arity for kind, (arity, _) in _SIGS.items()}


@lru_cache(maxsize=SEG_TABLE_CAP)
def _sig(kind: str, colors: tuple) -> tuple:
    return _SIGS[kind][1](*colors)


class Gen(_Value):
    """A single generator occurrence, e.g. ``Gen("mu_A", ("a","b","c"))``.

    ``source`` and ``target`` are read from the signature table once, at
    construction; they take no part in equality, hashing or the repr.
    """

    __slots__ = ("kind", "colors", "source", "target")
    _fields = ("kind", "colors")
    __hash__ = _Value.__hash__

    def __init__(self, kind: str, colors: tuple = ()):
        if kind not in GEN_ARITY:
            raise ValueError(f"unknown generator kind {kind!r}")
        want = GEN_ARITY[kind]
        if len(colors) != want:
            raise ValueError(
                f"{kind} takes {want} colour(s), got {len(colors)}")
        _set(self, "kind", kind)
        _set(self, "colors", colors)
        source, target = _sig(kind, colors)
        _set(self, "source", source)
        _set(self, "target", target)

    def __eq__(self, other):
        return (self.kind == other.kind and self.colors == other.colors
                if other.__class__ is Gen else NotImplemented)

    def __str__(self) -> str:
        if not self.colors or all(c == DEFAULT_COLOR for c in self.colors):
            return self.kind
        return f"{self.kind}[{','.join(self.colors)}]"


class Id(_Value):
    """Identity factor on one segment."""

    __slots__ = ("seg", "source", "target")
    _fields = ("seg",)
    __hash__ = _Value.__hash__

    def __init__(self, seg: Seg):
        _set(self, "seg", seg)
        _set(self, "source", (seg,))
        _set(self, "target", self.source)

    def __eq__(self, other):
        return (self.seg == other.seg
                if other.__class__ is Id else NotImplemented)

    def __str__(self) -> str:
        return f"id:{self.seg}"


class Cross(_Value):
    """Crossing factor: swaps two adjacent segments."""

    __slots__ = ("a", "b", "source", "target")
    _fields = ("a", "b")
    __hash__ = _Value.__hash__

    def __init__(self, a: Seg, b: Seg):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "source", (a, b))
        _set(self, "target", (b, a))

    def __eq__(self, other):
        return (self.a == other.a and self.b == other.b
                if other.__class__ is Cross else NotImplemented)

    def __str__(self) -> str:
        return f"cross({self.a},{self.b})"


class DiagramTerm(_Value):
    """A diagram presented as slices of factors.

    ``source`` is the top boundary object; the bottom one, ``target``, is
    cached: ``parse`` and :func:`from_port_graph` fill it, else the first
    use runs :meth:`validate`, which type-checks every slice boundary.
    """

    _fields = ("source", "slices")      # the target cache needs __dict__
    __hash__ = _Value.__hash__

    def __init__(self, source: tuple, slices: tuple):
        _set(self, "source", source)
        _set(self, "slices", slices)

    def __eq__(self, other):
        return (self.source == other.source and self.slices == other.slices
                if other.__class__ is DiagramTerm else NotImplemented)

    def validate(self) -> tuple:
        """Type-check and return the target boundary object."""
        cur = self.source
        for si, sl in enumerate(self.slices):
            need = tuple(s for f in sl for s in f.source)
            if need != cur:
                raise TypingError(
                    f"slice {si + 1} expects ({fmt_obj(need)}) "
                    f"on top but the diagram provides ({fmt_obj(cur)})")
            cur = tuple(s for f in sl for s in f.target)
        return cur

    @cached_property
    def target(self) -> tuple:
        return self.validate()


def gen_term(g: Gen) -> DiagramTerm:
    """The one-slice term consisting of a single generator."""
    return DiagramTerm(g.source, ((g,),))


def identity_term(obj) -> DiagramTerm:
    obj = tuple(obj)
    if not obj:
        return DiagramTerm((), ())
    return DiagramTerm(obj, (tuple(Id(s) for s in obj),))


def check_composable(mid: tuple, source: tuple) -> None:
    """Raise :class:`TypingError` unless a part ending in ``mid`` can sit
    on top of a part starting at ``source``."""
    if mid != source:
        raise TypingError(
            f"cannot compose: top part ends in ({fmt_obj(mid)}) "
            f"but bottom part starts at ({fmt_obj(source)})")


def compose(first: DiagramTerm, then: DiagramTerm) -> DiagramTerm:
    """Vertical composition: ``first`` on top, ``then`` below."""
    check_composable(first.validate(), then.source)
    return DiagramTerm(first.source, first.slices + then.slices)


def _id_slice(obj) -> tuple:
    return tuple(Id(s) for s in obj)


def tensor(*parts: DiagramTerm) -> DiagramTerm:
    """Horizontal juxtaposition, left to right, padding the shorter parts
    with identities.  Each part is validated once."""
    n = max((len(p.slices) for p in parts), default=0)
    cols = [tuple(p.slices) + (_id_slice(p.validate()),) * (n - len(p.slices))
            for p in parts]
    return DiagramTerm(tuple(s for p in parts for s in p.source),
                       tuple(tuple(f for col in cols for f in col[i])
                             for i in range(n)))


def syntactic_eq(t1: DiagramTerm, t2: DiagramTerm) -> bool:
    """Literal equality of terms (same slices, factor by factor)."""
    return t1.source == t2.source and t1.slices == t2.slices


class PortGraph:
    """Generator nodes wired together, with ordered boundary ports.

    Wire endpoints are tagged tuples: producers are ``("src", i)`` or
    ``("out", nid, k)``, consumers are ``("tgt", j)`` or ``("in", nid, k)``.
    ``out_to_in`` maps each producer to its consumer; ``in_to_out`` is the
    inverse.  Node ids are arbitrary but stable: copies and rewrites keep
    them, so they can anchor a replayable move log.  :meth:`kind_index`
    is built on first use and kept current by :meth:`add_node` and
    :meth:`remove_node`; code that fills ``nodes`` directly does so before
    that first use.
    """

    def __init__(self, source=(), target=()):
        self.source = tuple(source)
        self.target = tuple(target)
        self.nodes: dict = {}
        self.out_to_in: dict = {}
        self.in_to_out: dict = {}
        self._next = 0
        self._kinds = None

    def copy(self) -> "PortGraph":
        g = PortGraph(self.source, self.target)
        g.nodes = dict(self.nodes)
        g.out_to_in = dict(self.out_to_in)
        g.in_to_out = dict(self.in_to_out)
        g._next = self._next
        return g

    def add_node(self, gen: Gen, nid=None) -> int:
        if nid is None:
            nid = self._next
        if nid in self.nodes:
            raise ValueError(f"node id {nid} already used")
        self._next = max(self._next, nid + 1)
        self.nodes[nid] = gen
        if self._kinds is not None:
            self._kinds.setdefault(gen.kind, set()).add(nid)
        return nid

    def remove_node(self, nid: int) -> None:
        gen = self.nodes.pop(nid)
        if self._kinds is not None:
            self._kinds[gen.kind].discard(nid)
        for k in range(len(gen.source)):
            prod = self.in_to_out.pop(("in", nid, k), None)
            if prod is not None:
                self.out_to_in.pop(prod, None)
        for k in range(len(gen.target)):
            cons = self.out_to_in.pop(("out", nid, k), None)
            if cons is not None:
                self.in_to_out.pop(cons, None)

    def kind_index(self) -> dict:
        """Generator kind -> the set of ids of the nodes of that kind."""
        if self._kinds is None:
            self._kinds = {}
            for nid, gen in self.nodes.items():
                self._kinds.setdefault(gen.kind, set()).add(nid)
        return self._kinds

    def wire(self, prod, cons) -> None:
        self.out_to_in[prod] = cons
        self.in_to_out[cons] = prod

    def wires(self):
        return self.out_to_in.items()

    def producer_seg(self, prod) -> Seg:
        if prod[0] == "src":
            return self.source[prod[1]]
        return self.nodes[prod[1]].target[prod[2]]

    def consumer_seg(self, cons) -> Seg:
        if cons[0] == "tgt":
            return self.target[cons[1]]
        return self.nodes[cons[1]].source[cons[2]]

    def validate(self) -> None:
        """Raise :class:`TypingError` unless every port is wired once, each
        wire joins equal segments, and the wires form no loop: a cyclic
        graph is no diagram."""
        prods = {("src", i) for i in range(len(self.source))} | {
            ("out", nid, k) for nid, gen in self.nodes.items()
            for k in range(len(gen.target))}
        conss = {("tgt", j) for j in range(len(self.target))} | {
            ("in", nid, k) for nid, gen in self.nodes.items()
            for k in range(len(gen.source))}
        if set(self.out_to_in) != prods:
            missing = prods - set(self.out_to_in)
            extra = set(self.out_to_in) - prods
            raise TypingError(f"unwired or stray producers: {missing or extra}")
        if set(self.in_to_out) != conss:
            missing = conss - set(self.in_to_out)
            extra = set(self.in_to_out) - conss
            raise TypingError(f"unwired or stray consumers: {missing or extra}")
        for prod, cons in self.out_to_in.items():
            if self.in_to_out.get(cons) != prod:
                raise TypingError(f"wire maps disagree at {prod} -> {cons}")
            ps, cs = self.producer_seg(prod), self.consumer_seg(cons)
            if ps != cs:
                raise TypingError(
                    f"wire {prod} -> {cons} carries {ps} into a {cs} port")
        # Kahn's count over node-to-node wires: inputs fed by the source
        # wait on nothing, so only those fed by an output are counted
        waiting = dict.fromkeys(self.nodes, 0)
        for prod, cons in self.out_to_in.items():
            if prod[0] == "out" and cons[0] == "in":
                waiting[cons[1]] += 1
        ready = [nid for nid, n in waiting.items() if not n]
        for nid in ready:
            for k in range(len(self.nodes[nid].target)):
                cons = self.out_to_in[("out", nid, k)]
                if cons[0] == "in":
                    waiting[cons[1]] -= 1
                    if not waiting[cons[1]]:
                        ready.append(cons[1])
        if len(ready) != len(self.nodes):
            raise TypingError("port graph is cyclic")


def to_port_graph(term: DiagramTerm) -> PortGraph:
    """Interpret a term as a port graph, absorbing identities and crossings.
    Generators become nodes 0, 1, ... in reading order."""
    g = PortGraph(term.source, term.target)
    nodes, out_to_in, in_to_out = g.nodes, g.out_to_in, g.in_to_out
    frontier = [("src", i) for i in range(len(term.source))]
    nid = 0
    for sl in term.slices:
        pos = 0
        nxt = []
        for f in sl:
            t = type(f)
            if t is Id:
                nxt.append(frontier[pos])
                pos += 1
            elif t is Cross:
                nxt += (frontier[pos + 1], frontier[pos])
                pos += 2
            else:
                nodes[nid] = f
                for k in range(len(f.source)):
                    p = frontier[pos + k]
                    out_to_in[p] = c = ("in", nid, k)
                    in_to_out[c] = p
                pos += len(f.source)
                nxt += [("out", nid, k) for k in range(len(f.target))]
                nid += 1
        frontier = nxt
    g._next = nid
    for j, p in enumerate(frontier):
        out_to_in[p] = c = ("tgt", j)
        in_to_out[c] = p
    return g


def as_graph(x) -> PortGraph:
    """The port graph of a diagram, the one place a diagram enters as a
    graph.  A term's graph is well formed by its typing; a caller's port
    graph is validated here, once, and returned as is; a cyclic one is
    refused with a :class:`TypingError`."""
    if isinstance(x, DiagramTerm):
        return to_port_graph(x)
    x.validate()
    return x


class UnionFind:
    """Disjoint sets over hashable items; an item joins on first sight.

    ``union(x, y)`` makes the root of ``y``'s set the root of both.  Roots
    are observable: :func:`ocbord.tqft.groupoid_algebra` orders and names
    the basis of C by them.
    """

    def __init__(self):
        self.parent = {}

    def find(self, x):
        root = self.parent.setdefault(x, x)
        while self.parent[root] != root:
            root = self.parent[root]
        while x != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        self.parent[self.find(x)] = self.find(y)


def _serialise(g: PortGraph, order, idx: dict, nodes) -> list:
    """The part repr of each node of ``order``: its kind, its colours and
    the consumers of its outputs, each node id renamed to its number in
    ``idx``.  ``nodes`` maps the ids to their generators."""
    parts = []
    for nid in order:
        gen = nodes[nid]
        outs = []
        for k in range(len(gen.target)):
            ep = g.out_to_in[("out", nid, k)]
            outs.append(("in", idx[ep[1]], ep[2]) if ep[0] == "in" else ep)
        parts.append(repr((gen.kind, gen.colors, tuple(outs))))
    return parts


def _walk(g: PortGraph, starts, nodes) -> tuple:
    """``(order, idx)`` of the least breadth-first walk from a list of
    start nodes in ``starts``: each node numbers its unseen neighbours in
    port order, the producers at its inputs, then the consumers at its
    outputs.  ``nodes`` maps ids to generators.

    The walks run in lockstep, and two or more start in one component.
    Step ``t`` finishes the ``t``-th node of every walk, which fixes its
    part (:func:`_serialise`).  While two or more walks are live, only
    those whose part is least go on; a lone walk only numbers nodes.  A
    part repr is never a proper prefix of another, so comparing parts
    one by one ranks walks as their whole serialisations would; the
    first walk wins ties.  A step costs the live walks' degrees: O(n) in
    all when the walks part early, k x n when k starts are automorphic.
    """
    in_to_out, out_to_in = g.in_to_out, g.out_to_in
    walks = [(order, {nid: i for i, nid in enumerate(order)})
             for order in (list(dict.fromkeys(start)) for start in starts)]
    t = 0
    while t < len(walks[0][0]):
        least, live = None, walks
        for walk in walks:
            order, idx = walk
            nid = order[t]
            gen = nodes[nid]
            for k in range(len(gen.source)):
                ep = in_to_out[("in", nid, k)]
                if ep[0] == "out" and ep[1] not in idx:
                    idx[ep[1]] = len(order)
                    order.append(ep[1])
            for k in range(len(gen.target)):
                ep = out_to_in[("out", nid, k)]
                if ep[0] == "in" and ep[1] not in idx:
                    idx[ep[1]] = len(order)
                    order.append(ep[1])
            if len(walks) > 1:
                part = _serialise(g, (nid,), idx, nodes)[0]
                if least is None or part < least:
                    least, live = part, [walk]
                elif part == least:
                    live.append(walk)
        walks = live
        t += 1
    return walks[0]


def _least_walk(g: PortGraph, comp: list) -> tuple:
    """``(serialisation, order)`` of a closed component's least walk
    (:func:`_walk`) from its seeds, the smallest seed id winning ties.

    Walks start only from the seeds whose ``repr((kind, colors))`` is
    least.  A seed's first part repr extends that key less its closing
    parenthesis.  The reprs of a string and of a tuple of strings are
    self-delimiting, so two keys that differ differ first at a position
    inside both, and the two first parts differ there alike: no seed
    with a greater key can have the least first part.  Each node of the
    component is read from ``g`` once.
    """
    gens = {nid: g.nodes[nid] for nid in comp}
    seeds: dict = {}
    for s in sorted(comp):
        seeds.setdefault((gens[s].kind, gens[s].colors), []).append(s)
    order, idx = _walk(g, [[s] for s in seeds[min(seeds, key=repr)]], gens)
    return "[" + ", ".join(_serialise(g, order, idx, gens)) + "]", order


def _canonical_parts(g: PortGraph) -> tuple:
    """``(order, idx, comps)``: the boundary walk (:func:`_walk` from the
    nodes at the source ports, then the target ports) and its numbering,
    and the ``(serialisation, order)`` of each remaining (closed,
    boundary-free) component's least walk (:func:`_least_walk`), sorted.
    """
    ends = [g.out_to_in[("src", i)] for i in range(len(g.source))]
    ends += [g.in_to_out[("tgt", j)] for j in range(len(g.target))]
    order, idx = _walk(g, [[ep[1] for ep in ends
                            if ep[0] == "in" or ep[0] == "out"]], g.nodes)
    left = g.nodes.keys() - idx
    comps = []
    while left:
        comp = _walk(g, [[next(iter(left))]], g.nodes)[0]
        left.difference_update(comp)
        comps.append(_least_walk(g, comp))
    comps.sort(key=lambda b: b[0])
    return order, idx, comps


def canonical_order(g: PortGraph) -> list:
    """Deterministic node order, independent of node ids: the nodes
    reachable from the boundary, then the closed components, each in its
    least walk, sorted by its serialisation (:func:`_canonical_parts`)."""
    order, _, comps = _canonical_parts(g)
    return order + [nid for _, walk in comps for nid in walk]


def canonical_key(g: PortGraph) -> str:
    """A string equal for two port graphs iff they are identical up to ids.

    It lists the boundary, the boundary walk's parts, then the sorted
    serialisations of the closed components (:func:`_canonical_parts`),
    each a bracketed list numbering its own nodes, so each node is
    serialised once."""
    order, idx, comps = _canonical_parts(g)
    src = [g.out_to_in[("src", i)] for i in range(len(g.source))]
    head = (tuple(map(str, g.source)), tuple(map(str, g.target)), tuple(
        ("in", idx[ep[1]], ep[2]) if ep[0] == "in" else ep for ep in src))
    return "[" + ", ".join([*map(repr, head),
                            *_serialise(g, order, idx, g.nodes),
                            *(key for key, _ in comps)]) + "]"


def graph_eq(g1: PortGraph, g2: PortGraph) -> bool:
    return canonical_key(g1) == canonical_key(g2)


# The most factors (generators, identities, crossings) a layout may hold.
# The largest layout in the test suite, the corpus, the bench series and
# the benchmark has about 51,000; the normal form of 200 genus-one
# circles side by side would need about 19 million.
LAYOUT_ATOM_CAP = 1_000_000


def from_port_graph(g: PortGraph) -> DiagramTerm:
    """Lay a port graph out as a term.

    The layout is canonical: graphs equal under :func:`canonical_key`
    produce identical terms.  Nodes are placed one per slice, leftmost
    ready node first; crossings are synthesised to gather each node's
    inputs; input-less nodes join at the right edge, in canonical order,
    when nothing else is ready.  Each placement scans the frontier once,
    so the cost is O(nodes x width).  The crossings alone can number
    O(width^2), each in a row O(width) wide, so a layout of more than
    :data:`LAYOUT_ATOM_CAP` factors is refused with :class:`OcbordError`
    before it is built.
    """
    frontier = [("src", i) for i in range(len(g.source))]
    # the identity on each frontier wire
    ids = [Id(g.producer_seg(p)) for p in frontier]
    slices = []
    factors = 0

    def count(width):
        nonlocal factors
        factors += width
        if factors > LAYOUT_ATOM_CAP:
            raise OcbordError(
                f"the layout needs more than {LAYOUT_ATOM_CAP} factors; "
                f"the diagram is too wide to write out as a term")

    def emit_swap(i):
        count(len(ids) - 1)
        slices.append(tuple(ids[:i]) + (Cross(ids[i].seg, ids[i + 1].seg),)
                      + tuple(ids[i + 2:]))
        frontier[i], frontier[i + 1] = frontier[i + 1], frontier[i]
        ids[i], ids[i + 1] = ids[i + 1], ids[i]

    def place(nid):
        gen = g.nodes[nid]
        ins = [g.in_to_out[("in", nid, k)] for k in range(len(gen.source))]
        count(len(ids) - len(ins) + 1)
        if ins:
            q = min(frontier.index(p) for p in ins)
            for k, p in enumerate(ins):
                cur = frontier.index(p)
                while cur > q + k:
                    emit_swap(cur - 1)
                    cur -= 1
            row = tuple(ids[:q]) + (gen,) + tuple(ids[q + len(ins):])
            frontier[q:q + len(ins)] = [("out", nid, k)
                                        for k in range(len(gen.target))]
            ids[q:q + len(ins)] = [Id(s) for s in gen.target]
        else:
            row = tuple(ids) + (gen,)
            frontier.extend(("out", nid, k) for k in range(len(gen.target)))
            ids.extend(Id(s) for s in gen.target)
        slices.append(row)

    def ready():
        # each frontier producer feeds one consumer, so the first ready node
        # met walking the frontier is the one with the leftmost input
        at = set(frontier)
        for p in frontier:
            cons = g.out_to_in[p]
            if cons[0] == "in" and all(
                    g.in_to_out[("in", cons[1], k)] in at
                    for k in range(len(g.nodes[cons[1]].source))):
                return cons[1]
        return None

    rank = {nid: i for i, nid in enumerate(canonical_order(g))}
    srcless = deque(sorted((n for n, gen in g.nodes.items() if not gen.source),
                           key=rank.__getitem__))
    for _ in range(len(g.nodes)):
        nid = ready()
        if nid is None:
            if not srcless:
                raise OcbordError("port graph is cyclic; cannot lay out")
            nid = srcless.popleft()
        place(nid)

    for j in range(len(g.target)):
        p = g.in_to_out[("tgt", j)]
        cur = frontier.index(p)
        while cur > j:
            emit_swap(cur - 1)
            cur -= 1
    term = DiagramTerm(g.source, tuple(slices))
    vars(term)["target"] = g.target     # the wiring typed it: fill its cache
    return term
