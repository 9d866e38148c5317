"""Normal form of open-closed cobordism diagrams.

Every diagram is equivalent to a canonical one assembled from standard
blocks, and the blocks are read off the invariants alone.  The
construction works on a wrapped copy of the diagram in which all
interval boundary sits on the source and all circle boundary on the
target: each target interval is bent down with an open pairing
(multiply, then counit) and each source circle is bent up with a closed
copairing (unit, then comultiply).  For a wrapped connected component
the normal form is

    splits . handles . windows . merges . (one block per sigma-cycle)

where a block multiplies the cycle's source intervals into one loop and
closes it with a cozipper, the merges fold the block circles into a
single line with closed multiplications (a cap when there are none),
each window is a zipper followed by a cozipper, each handle a closed
comultiplication followed by a multiplication, and the splits fan the
line out to the target circles (a cup when there are none).  Undoing
the wrapping with the dual (co)pairings yields the normal form of the
original diagram.

Conventions fixed here: blocks are ordered by their smallest port, a
block multiplies its cycle as m, s^(q-1)(m), ..., s(m) starting from the
cycle's smallest port m, window factors come in sorted colour order, and
the split chain sends its deepest two outputs to the first two target
circles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    DiagramTerm,
    Gen,
    OcbordError,
    PortGraph,
    Seg,
    as_graph,
    from_port_graph,
)
from .invariants import ComponentInvariants, Invariants, _unordered


@dataclass(frozen=True)
class WrapData:
    """Boundary bookkeeping for :func:`wrap` / :func:`unwrap`.

    Positions are indices into the original boundary objects.  The
    wrapped source is the bent target intervals (orientation reversed)
    followed by the kept source intervals; the wrapped target is the
    kept target circles followed by the bent source circles.
    """

    source: tuple
    target: tuple
    src_intervals: tuple
    src_circles: tuple
    tgt_intervals: tuple
    tgt_circles: tuple

    @property
    def wrapped_source(self):
        bent = tuple(Seg.I(self.target[j].right, self.target[j].left)
                     for j in self.tgt_intervals)
        return bent + tuple(self.source[i] for i in self.src_intervals)

    @property
    def wrapped_target(self):
        kept = tuple(self.target[j] for j in self.tgt_circles)
        return kept + tuple(Seg.O() for _ in self.src_circles)


def _wrap_data(source, target) -> WrapData:
    return WrapData(
        source=tuple(source), target=tuple(target),
        src_intervals=tuple(i for i, s in enumerate(source) if s.is_interval),
        src_circles=tuple(i for i, s in enumerate(source)
                          if not s.is_interval),
        tgt_intervals=tuple(j for j, s in enumerate(target) if s.is_interval),
        tgt_circles=tuple(j for j, s in enumerate(target)
                          if not s.is_interval),
    )


def wrap_graph(g: PortGraph):
    """Bend target intervals into source ports and source circles into
    target ports; returns the wrapped graph and the WrapData."""
    w = _wrap_data(g.source, g.target)
    h = PortGraph(w.wrapped_source, w.wrapped_target)
    for nid, gen in g.nodes.items():
        h.add_node(gen, nid)
    src_pos = {i: len(w.tgt_intervals) + k
               for k, i in enumerate(w.src_intervals)}
    tgt_pos = {j: k for k, j in enumerate(w.tgt_circles)}
    pair_in = {}
    for k, j in enumerate(w.tgt_intervals):
        a, b = g.target[j].left, g.target[j].right
        mu = h.add_node(Gen("mu_A", (b, a, b)))
        ep = h.add_node(Gen("eps_A", (b,)))
        h.wire(("src", k), ("in", mu, 0))
        h.wire(("out", mu, 0), ("in", ep, 0))
        pair_in[j] = ("in", mu, 1)
    copair_out = {}
    for k, i in enumerate(w.src_circles):
        et = h.add_node(Gen("eta_C"))
        de = h.add_node(Gen("Delta_C"))
        h.wire(("out", et, 0), ("in", de, 0))
        h.wire(("out", de, 1), ("tgt", len(w.tgt_circles) + k))
        copair_out[i] = ("out", de, 0)

    def prod(ep):
        if ep[0] == "src":
            return copair_out.get(ep[1]) or ("src", src_pos[ep[1]])
        return ep

    def cons(ep):
        if ep[0] == "tgt":
            return pair_in.get(ep[1]) or ("tgt", tgt_pos[ep[1]])
        return ep

    for p, c in g.wires():
        h.wire(prod(p), cons(c))
    return h, w


def unwrap_graph(h: PortGraph, w: WrapData) -> PortGraph:
    """Undo :func:`wrap_graph` with the dual (co)pairings."""
    if h.source != w.wrapped_source or h.target != w.wrapped_target:
        raise OcbordError("wrap data does not match the diagram boundary")
    g = PortGraph(w.source, w.target)
    for nid, gen in h.nodes.items():
        g.add_node(gen, nid)
    bent_src = {}
    tgt_from = {}
    for k, j in enumerate(w.tgt_intervals):
        a, b = w.target[j].left, w.target[j].right
        et = g.add_node(Gen("eta_A", (b,)))
        de = g.add_node(Gen("Delta_A", (b, a, b)))
        g.wire(("out", et, 0), ("in", de, 0))
        bent_src[k] = ("out", de, 0)
        tgt_from[j] = ("out", de, 1)
    bent_tgt = {}
    for k, i in enumerate(w.src_circles):
        mu = g.add_node(Gen("mu_C"))
        ep = g.add_node(Gen("eps_C"))
        g.wire(("src", i), ("in", mu, 0))
        g.wire(("out", mu, 0), ("in", ep, 0))
        bent_tgt[len(w.tgt_circles) + k] = ("in", mu, 1)

    def prod(ep):
        if ep[0] == "src":
            return bent_src.get(ep[1]) or \
                ("src", w.src_intervals[ep[1] - len(w.tgt_intervals)])
        return ep

    def cons(ep):
        if ep[0] == "tgt":
            return bent_tgt.get(ep[1]) or ("tgt", w.tgt_circles[ep[1]])
        return ep

    for p, c in h.wires():
        g.wire(prod(p), cons(c))
    for j, p in tgt_from.items():
        g.wire(p, ("tgt", j))
    return g


def wrap(t: DiagramTerm):
    """Term-level wrap; see :func:`wrap_graph`."""
    h, w = wrap_graph(as_graph(t))
    return from_port_graph(h), w


def unwrap(t: DiagramTerm, w: WrapData) -> DiagramTerm:
    """Term-level unwrap, the inverse of :func:`wrap` up to equivalence."""
    return from_port_graph(unwrap_graph(as_graph(t), w))


def _leaf_order(cyc):
    # cycles are stored rotated to start at their smallest port m, as
    # (m, s(m), s^2(m), ...); the block multiplies m, s^(q-1)(m), .., s(m)
    return (cyc[0],) + tuple(reversed(cyc[1:]))


def _build_component(h: PortGraph, source, c: ComponentInvariants) -> None:
    """Emit one component's normal-form blocks into ``h``.

    The cycles of ``c`` hold 1-based port numbers; port j is source
    position j-1.
    """
    outs = []
    for cyc in sorted(c.cycles):
        leaves = _leaf_order(cyc)
        cur = ("src", leaves[0] - 1)
        cur_seg = source[leaves[0] - 1]
        for leaf in leaves[1:]:
            seg = source[leaf - 1]
            if cur_seg.right != seg.left:
                raise OcbordError("normal form: cycle colours do not chain")
            mu = h.add_node(Gen("mu_A", (cur_seg.left, cur_seg.right,
                                         seg.right)))
            h.wire(cur, ("in", mu, 0))
            h.wire(("src", leaf - 1), ("in", mu, 1))
            cur = ("out", mu, 0)
            cur_seg = Seg.I(cur_seg.left, seg.right)
        if cur_seg.left != cur_seg.right:
            raise OcbordError("normal form: cycle colours do not close up")
        cz = h.add_node(Gen("cozip", (cur_seg.left,)))
        h.wire(cur, ("in", cz, 0))
        outs.append(("out", cz, 0))
    if outs:
        main = outs[0]
        for o in outs[1:]:
            mu = h.add_node(Gen("mu_C"))
            h.wire(main, ("in", mu, 0))
            h.wire(o, ("in", mu, 1))
            main = ("out", mu, 0)
    else:
        main = ("out", h.add_node(Gen("eta_C")), 0)
    for colour in c.windows:
        z = h.add_node(Gen("zip", (colour,)))
        cz = h.add_node(Gen("cozip", (colour,)))
        h.wire(main, ("in", z, 0))
        h.wire(("out", z, 0), ("in", cz, 0))
        main = ("out", cz, 0)
    for _ in range(c.genus):
        de = h.add_node(Gen("Delta_C"))
        mu = h.add_node(Gen("mu_C"))
        h.wire(main, ("in", de, 0))
        h.wire(("out", de, 0), ("in", mu, 0))
        h.wire(("out", de, 1), ("in", mu, 1))
        main = ("out", mu, 0)
    tgts = sorted(c.tgt_positions)
    if not tgts:
        h.wire(main, ("in", h.add_node(Gen("eps_C")), 0))
    elif len(tgts) == 1:
        h.wire(main, ("tgt", tgts[0]))
    else:
        side = []
        for _ in range(len(tgts) - 1):
            de = h.add_node(Gen("Delta_C"))
            h.wire(main, ("in", de, 0))
            main = ("out", de, 0)
            side.append(("out", de, 1))
        h.wire(main, ("tgt", tgts[0]))
        for k, p in enumerate(reversed(side)):
            h.wire(p, ("tgt", tgts[k + 1]))


def nf_wrapped_graph(inv: Invariants) -> PortGraph:
    """Normal-form graph for a wrapped diagram, from its invariants."""
    h = PortGraph(inv.source, inv.target)
    for c in inv.components:
        _build_component(h, inv.source, c)
    return h


def wrapped_normal_form(x):
    """The normal form of a diagram together with its wrapped view.

    Returns ``(nf, wrapped, target)``: the normal-form term, the wrapped
    port graph (see :func:`wrap_graph`) and the normal-form graph of the
    wrapped diagram.  The boundary-free components' blocks come in the
    order the invariants found them: the layout of ``from_port_graph``
    and the comparison by ``graph_eq`` do not depend on it.
    """
    h, w = wrap_graph(as_graph(x))
    target = nf_wrapped_graph(_unordered(h))
    return from_port_graph(unwrap_graph(target, w)), h, target


def normal_form(x) -> DiagramTerm:
    """The canonical representative of a diagram's equivalence class.

    Idempotent, boundary-preserving, and equivalent to the input.
    """
    return wrapped_normal_form(x)[0]
