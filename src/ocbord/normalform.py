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
original diagram; :func:`wrap` and :func:`wrap_graph` return the wrapped
diagram plus the original ``(source, target)``, all that undoing needs.

Conventions fixed here: blocks are ordered by their smallest port, a
block multiplies its cycle as m, s^(q-1)(m), ..., s(m) starting from the
cycle's smallest port m, window factors come in sorted colour order, and
the split chain sends its deepest two outputs to the first two target
circles.
"""

from __future__ import annotations

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


def _wrapped_boundary(source, target) -> tuple:
    """The ``(source, target)`` of the wrapped diagram.

    The wrapped source is the bent target intervals (orientation
    reversed) followed by the kept source intervals; the wrapped target
    is the kept target circles followed by the bent source circles.
    """
    return (tuple(Seg.I(s.right, s.left) for s in target if s.is_interval)
            + tuple(s for s in source if s.is_interval),
            tuple(s for s in target if not s.is_interval)
            + tuple(Seg.O() for s in source if not s.is_interval))


def _positions(segs, interval: bool) -> list:
    return [i for i, s in enumerate(segs) if s.is_interval == interval]


def wrap_graph(g: PortGraph):
    """Bend target intervals into source ports and source circles into
    target ports; returns the wrapped graph and the original boundary
    ``(source, target)``, which is all :func:`unwrap_graph` needs."""
    source, target = g.source, g.target
    h = PortGraph(*_wrapped_boundary(source, target))
    for nid, gen in g.nodes.items():
        h.add_node(gen, nid)
    bent = _positions(target, True)
    kept = _positions(target, False)
    prod = {("src", i): ("src", len(bent) + k)
            for k, i in enumerate(_positions(source, True))}
    cons = {("tgt", j): ("tgt", k) for k, j in enumerate(kept)}
    for k, j in enumerate(bent):
        a, b = target[j].left, target[j].right
        mu = h.add_node(Gen("mu_A", (b, a, b)))
        ep = h.add_node(Gen("eps_A", (b,)))
        h.wire(("src", k), ("in", mu, 0))
        h.wire(("out", mu, 0), ("in", ep, 0))
        cons["tgt", j] = ("in", mu, 1)
    for k, i in enumerate(_positions(source, False)):
        et = h.add_node(Gen("eta_C"))
        de = h.add_node(Gen("Delta_C"))
        h.wire(("out", et, 0), ("in", de, 0))
        h.wire(("out", de, 1), ("tgt", len(kept) + k))
        prod["src", i] = ("out", de, 0)
    for p, c in g.wires():
        h.wire(prod.get(p, p), cons.get(c, c))
    return h, (source, target)


def unwrap_graph(h: PortGraph, boundary) -> PortGraph:
    """Undo :func:`wrap_graph` with the dual (co)pairings, given the
    original ``(source, target)`` that it returned."""
    source, target = boundary
    if (h.source, h.target) != _wrapped_boundary(source, target):
        raise OcbordError("wrap data does not match the diagram boundary")
    g = PortGraph(source, target)
    for nid, gen in h.nodes.items():
        g.add_node(gen, nid)
    bent = _positions(target, True)
    kept = _positions(target, False)
    prod = {("src", len(bent) + k): ("src", i)
            for k, i in enumerate(_positions(source, True))}
    cons = {("tgt", k): ("tgt", j) for k, j in enumerate(kept)}
    for k, j in enumerate(bent):
        a, b = target[j].left, target[j].right
        et = g.add_node(Gen("eta_A", (b,)))
        de = g.add_node(Gen("Delta_A", (b, a, b)))
        g.wire(("out", et, 0), ("in", de, 0))
        g.wire(("out", de, 1), ("tgt", j))
        prod["src", k] = ("out", de, 0)
    for k, i in enumerate(_positions(source, False)):
        mu = g.add_node(Gen("mu_C"))
        ep = g.add_node(Gen("eps_C"))
        g.wire(("src", i), ("in", mu, 0))
        g.wire(("out", mu, 0), ("in", ep, 0))
        cons["tgt", len(kept) + k] = ("in", mu, 1)
    for p, c in h.wires():
        g.wire(prod.get(p, p), cons.get(c, c))
    return g


def wrap(t: DiagramTerm):
    """Term-level wrap; see :func:`wrap_graph`.  Returns the wrapped term
    and the original ``(source, target)``."""
    h, boundary = wrap_graph(as_graph(t))
    return from_port_graph(h), boundary


def unwrap(t: DiagramTerm, boundary) -> DiagramTerm:
    """Term-level unwrap, the inverse of :func:`wrap` up to equivalence."""
    return from_port_graph(unwrap_graph(as_graph(t), boundary))


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
    h, boundary = wrap_graph(as_graph(x))
    target = nf_wrapped_graph(_unordered(h))
    return from_port_graph(unwrap_graph(target, boundary)), h, target


def normal_form(x) -> DiagramTerm:
    """The canonical representative of a diagram's equivalence class.

    Idempotent, boundary-preserving, and equivalent to the input.
    """
    return wrapped_normal_form(x)[0]
