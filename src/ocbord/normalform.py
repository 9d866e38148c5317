"""Normal form of open-closed cobordism diagrams.

Every diagram is equivalent to a canonical one assembled from standard
blocks, and the blocks are read off the invariants alone.  The
construction works on a wrapped copy of the diagram in which all
interval boundary sits on the source and all circle boundary on the
target.  Wrapping bends the boundary along one port map: each target
interval is bent down with an open pairing (multiply, then counit) and
each source circle is bent up with a closed copairing (unit, then
comultiply).  By the zigzag identities, unwrapping is the bend along the
inverse map, which uses the dual (co)pairings.  For a wrapped connected
component the normal form is

    splits . handles . windows . merges . (one block per sigma-cycle)

where a block multiplies the cycle's source intervals into one loop and
closes it with a cozipper, the merges fold the block circles into a
single line with closed multiplications (a cap when there are none),
each window is a zipper followed by a cozipper, each handle a closed
comultiplication followed by a multiplication, and the splits fan the
line out to the target circles (a cup when there are none).  Each
generator is placed by one helper that feeds its inputs from the
producers it is given.  Unwrapping yields the normal form of the
original diagram; :func:`wrap` and :func:`wrap_graph` return the wrapped
diagram plus the original ``(source, target)``, all that unwrapping
needs.

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


def _port_map(source, target) -> dict:
    """``{original port: wrapped port}`` for a diagram from ``source`` to
    ``target``.  The wrapped source ports are the target intervals, then
    the source intervals; the wrapped target ports are the target
    circles, then the source circles; each group keeps its order."""
    port = {}
    for to, interval in (("src", True), ("tgt", False)):
        group = [(side, i) for side, segs in (("tgt", target), ("src", source))
                 for i, s in enumerate(segs) if s.is_interval == interval]
        port.update((p, (to, k)) for k, p in enumerate(group))
    return port


def _bend(g: PortGraph, port: dict) -> PortGraph:
    """Move each boundary port p of ``g`` to ``port[p]``, keeping node
    ids; the new boundary is read off the map.  A target port moved to
    the source is closed by the pairing: for I[a,b], mu_A[b,a,b] fed by
    the new port I[b,a] and the old producer, then eps_A[b]; for O, mu_C
    then eps_C.  A source port moved to the target is opened by the
    copairing: for I[a,b], eta_A[a] into Delta_A[a,b,a], whose output 0
    feeds the old consumer and output 1 the new port I[b,a]; for O, eta_C
    then Delta_C."""
    h, segs, end = PortGraph(), {}, {}
    for nid, gen in g.nodes.items():
        h.add_node(gen, nid)
    for p, q in port.items():
        seg = (g.source if p[0] == "src" else g.target)[p[1]]
        if p[0] == q[0]:
            segs[q], end[p] = seg, q
            continue
        a, b = seg.left, seg.right
        segs[q] = Seg.I(b, a) if seg.is_interval else seg
        if seg.is_interval:
            x, cols = "A", (b, a, b) if q[0] == "src" else (a, b, a)
        else:
            x, cols = "C", ()
        if q[0] == "src":
            (out,) = _put(h, Gen("mu_" + x, cols), q)
            _put(h, Gen("eps_" + x, cols[:1]), out)
            end[p] = ("in", out[1], 1)
        else:
            end[p], out = _put(h, Gen("Delta_" + x, cols),
                               *_put(h, Gen("eta_" + x, cols[:1])))
            h.wire(out, q)
    h.source, h.target = (tuple(s for (side, _), s in sorted(segs.items())
                                if side == to) for to in ("src", "tgt"))
    for p, c in g.wires():
        h.wire(end.get(p, p), end.get(c, c))
    return h


def wrap_graph(g: PortGraph):
    """Bend target intervals into source ports and source circles into
    target ports; returns the wrapped graph and the original boundary
    ``(source, target)``, which is all :func:`unwrap_graph` needs."""
    return _bend(g, _port_map(g.source, g.target)), (g.source, g.target)


def unwrap_graph(h: PortGraph, boundary) -> PortGraph:
    """Undo :func:`wrap_graph` with the dual (co)pairings, given the
    original ``(source, target)`` that it returned."""
    port = _port_map(*boundary)
    # the boundary that wrapping gives: bend one with no nodes
    bare = _bend(PortGraph(*boundary), port)
    if (h.source, h.target) != (bare.source, bare.target):
        raise OcbordError("wrap data does not match the diagram boundary")
    return _bend(h, {q: p for p, q in port.items()})


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


def _put(h: PortGraph, gen: Gen, *ins) -> list:
    """Add ``gen`` to ``h`` fed by the producers ``ins`` in port order;
    returns its outputs (no generator has more than two)."""
    nid = h.add_node(gen)
    for k, p in enumerate(ins):
        h.wire(p, ("in", nid, k))
    return [("out", nid, 0), ("out", nid, 1)][:len(gen.target)]


def _build_component(h: PortGraph, source, c: ComponentInvariants) -> None:
    """Emit one component's normal-form blocks into ``h``.

    The cycles of ``c`` hold 1-based port numbers; port j is source
    position j-1.
    """
    outs = []
    for cyc in sorted(c.cycles):
        leaves = _leaf_order(cyc)
        cur, seg = ("src", leaves[0] - 1), source[leaves[0] - 1]
        for leaf in leaves[1:]:
            nxt = source[leaf - 1]
            if seg.right != nxt.left:
                raise OcbordError("normal form: cycle colours do not chain")
            (cur,) = _put(h, Gen("mu_A", (seg.left, seg.right, nxt.right)),
                          cur, ("src", leaf - 1))
            seg = Seg.I(seg.left, nxt.right)
        if seg.left != seg.right:
            raise OcbordError("normal form: cycle colours do not close up")
        outs += _put(h, Gen("cozip", (seg.left,)), cur)
    (main,) = outs[:1] or _put(h, Gen("eta_C"))
    for o in outs[1:]:
        (main,) = _put(h, Gen("mu_C"), main, o)
    for colour in c.windows:
        (main,) = _put(h, Gen("cozip", (colour,)),
                       *_put(h, Gen("zip", (colour,)), main))
    for _ in range(c.genus):
        (main,) = _put(h, Gen("mu_C"), *_put(h, Gen("Delta_C"), main))
    tgts, ends = sorted(c.tgt_positions), []
    if not tgts:
        _put(h, Gen("eps_C"), main)
    for _ in tgts[1:]:
        main, out = _put(h, Gen("Delta_C"), main)
        ends.append(out)
    for p, j in zip([main] + ends[::-1], tgts):
        h.wire(p, ("tgt", j))


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
