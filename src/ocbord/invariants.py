"""Topological invariants of open-closed cobordism diagrams.

For each connected component of the underlying surface this module
computes the Euler characteristic, the genus, the windows (free boundary
circles, with their colours) and, for the interval boundary ports, the
open boundary permutation sigma together with the colour map gamma that
reads off each port's outgoing free-boundary arc.

The free boundary is read straight off the wiring.  Every interval port
has a left and a right corner.  Each generator joins the corners of its
own ports in pairs by fixed arcs, the coloured edges of its underlying
sheet, one arc at every corner; a wire joins a corner to the same corner
at its far end.  Leaving a boundary port and then alternately crossing a
wire and following an arc traces one mixed boundary circle as far as the
next boundary port, which is sigma of the first.  The generator corners
that no such walk reaches close up into the windows.

Ports are numbered 1..k over the interval segments only, source side
left to right first, then target side.  Walks leave a source port at its
left corner and a target port at its right corner, which orients sigma
so that the multiplication generator alone gives the cycle (1 3 2).
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import (DEFAULT_COLOR, GEN_ARITY, Gen, OcbordError,
                      _least_walk, as_graph)


def _sheet(kind):
    """``(step, corners, shape)``, a generator's walk tables, read off
    its signature.  Its sheet is a disc less one hole per circle port, the
    interval ports all on one free-boundary circle.  Walking that circle
    passes the interval inputs left to right (entered at L, left at R),
    then the interval outputs right to left (entered at R, left at L); its
    step a is arc a, from a port's leaving corner to the next port's
    entering corner.  ``step`` maps each corner ``(side, port, corner)``
    to its arc's far corner and number, ``corners`` holds each arc's
    ``(number, side, port, corner)``, and ``shape`` is the Euler
    characteristic, the input numbers and the ``(output, is interval)``
    pairs, for the component search."""
    gen = Gen(kind, (DEFAULT_COLOR,) * GEN_ARITY[kind])
    ins = [("in", k, "L", "R") for k, s in enumerate(gen.source)
           if s.is_interval]
    outs = [("out", k, "R", "L") for k, s in enumerate(gen.target)
            if s.is_interval]
    walk, step, corners = ins + outs[::-1], {}, []
    for a, ((side, k, _, out), (far, fk, enter, _)) in enumerate(
            zip(walk, walk[1:] + walk[:1])):
        step[side, k, out] = (far, fk, enter, a)
        step[far, fk, enter] = (side, k, out, a)
        corners.append((a, side, k, out))
    circles = len(gen.source) + len(gen.target) - len(walk)
    return step, tuple(corners), (
        2 - circles - bool(walk), range(len(gen.source)),
        tuple(enumerate(s.is_interval for s in gen.target)))


# Arc a of node nid is walked as the number nid * STRIDE + a.
STRIDE = 4
_STEP, _CORNERS, _SHAPE = (dict(zip(GEN_ARITY, t))
                           for t in zip(*map(_sheet, GEN_ARITY)))


class ComponentInvariants(NamedTuple):
    """Invariants of one connected component of the surface."""

    src_positions: tuple     # indices into the source boundary object
    tgt_positions: tuple     # indices into the target boundary object
    euler: int
    genus: int
    boundary_circles: int    # black circles + mixed circles + windows
    windows: tuple           # window colours, sorted, one entry per window
    cycles: tuple            # sigma cycles owned by this component

    @property
    def interval_ports(self):
        return tuple(sorted(j for cyc in self.cycles for j in cyc))


class Invariants(NamedTuple):
    """Full invariant record of a diagram."""

    source: tuple
    target: tuple
    components: tuple
    sigma: tuple             # ((j, sigma(j)), ...) over all interval ports
    gamma: tuple             # ((j, colour), ...) over all interval ports

    @property
    def gamma_map(self) -> dict:
        return dict(self.gamma)

    @property
    def cycles(self) -> tuple:
        return tuple(cyc for comp in self.components for cyc in comp.cycles)

    @property
    def total_genus(self) -> int:
        return sum(c.genus for c in self.components)

    @property
    def window_count(self) -> int:
        return sum(len(c.windows) for c in self.components)

    def sigma_str(self) -> str:
        """Cycle notation, singletons omitted: ``(2 5 6)(3 4)``."""
        parts = [f"({' '.join(map(str, cyc))})"
                 for cyc in sorted(self.cycles) if len(cyc) > 1]
        return "".join(parts) if parts else "()"

    def to_dict(self) -> dict:
        return {
            "source": [str(s) for s in self.source],
            "target": [str(s) for s in self.target],
            "sigma": {str(j): sj for j, sj in self.sigma},
            "sigma_cycles": self.sigma_str(),
            "gamma": {str(j): c for j, c in self.gamma},
            "genus": self.total_genus,
            "windows": self.window_count,
            "components": [{
                "source_positions": list(c.src_positions),
                "target_positions": list(c.tgt_positions),
                "euler": c.euler,
                "genus": c.genus,
                "boundary_circles": c.boundary_circles,
                "windows": list(c.windows),
                "cycles": [list(cyc) for cyc in c.cycles],
            } for c in self.components],
        }


def invariants(x) -> Invariants:
    """Compute all invariants of a term or port graph.

    The boundary-free components come last, by their least walk's
    serialisation once there are two (equal ones mean isomorphic
    components: no tie rule).  Only this report shows that order:
    :func:`equivalent` and the normal form read those components as a
    multiset and skip it (see :func:`_unordered`).
    """
    g = as_graph(x)
    return _assemble(g, *_free_boundary(g))


def _unordered(g) -> Invariants:
    """:func:`invariants` of a port graph that :func:`as_graph` has let
    in, with the boundary-free components in discovery order, for
    callers that read them as a multiset."""
    return _assemble(g, *_free_boundary(g), ordered=False)


def _ports(g) -> list:
    """The interval boundary ports; port number j is entry j - 1."""
    return [("src", i) for i, s in enumerate(g.source) if s.is_interval] \
        + [("tgt", j) for j, s in enumerate(g.target) if s.is_interval]


def _free_boundary(g):
    """``(sigma, gamma, windows)`` read off the wiring: sigma and gamma
    as dicts over port numbers, windows as ``(a node on it, colour)``.
    Each step is one lookup in ``_STEP``, and each arc walked is marked
    by its number, so every arc is walked once."""
    nodes, out_to_in, in_to_out = g.nodes, g.out_to_in, g.in_to_out
    port_no = {p: j for j, p in enumerate(_ports(g), 1)}
    seen = set()                    # arcs walked so far, by number

    def walk(ep, c):
        # arriving at corner c of ep, follow its arc, then the far wire,
        # until a boundary port or an arc walked before
        while ep[0] == "in" or ep[0] == "out":
            nid = ep[1]
            side, k, c, a = _STEP[nodes[nid].kind][ep[0], ep[2], c]
            a += nid * STRIDE
            if a in seen:
                break
            seen.add(a)
            ep = out_to_in[side, nid, k] if side == "out" \
                else in_to_out[side, nid, k]
        return ep

    # sigma: walk from each port's exit corner to the next boundary port;
    # gamma is the colour of the exit corner.
    sigma, gamma = {}, {}
    for p, j in port_no.items():
        if p[0] == "src":
            gamma[j] = g.source[p[1]].left
            sigma[j] = port_no[walk(out_to_in[p], "L")]
        else:
            gamma[j] = g.target[p[1]].right
            sigma[j] = port_no[walk(in_to_out[p], "R")]

    # Windows: the arcs no walk reached close up into pure cycles.
    windows = []                    # (a node on the window, colour)
    for nid, gen in nodes.items():
        base = nid * STRIDE
        for a, side, k, c in _CORNERS[gen.kind]:
            if base + a not in seen:
                seg = (gen.source if side == "in" else gen.target)[k]
                windows.append((nid, seg.left if c == "L" else seg.right))
                walk((side, nid, k), c)
    return sigma, gamma, windows


def _assemble(g, sigma, gamma, windows, ordered=True) -> Invariants:
    """The invariant record from the free boundary of ``g``.

    One depth-first search over the node ids finds the components and
    sums their Euler characteristics: the generators' sheets, less one
    for each interval wire between two of them.  A bare wire from source
    to target is a strip (euler 1) or a cylinder (euler 0) of its own.
    Components come by least source, then least target position; the
    boundary-free ones last, by least walk when ``ordered`` (see
    :func:`invariants`), else in the order the search found them.
    """
    nodes, out_to_in, in_to_out = g.nodes, g.out_to_in, g.in_to_out
    at = {}             # node id or boundary port -> its component
    comps = []

    def component(chi):
        comps.append({"nodes": [], "src": [], "tgt": [], "chi": chi,
                      "circle_ports": 0, "windows": [], "cycles": []})
        return comps[-1]

    for root in nodes:
        if root in at:
            continue
        c, stack, chi = component(0), [root], 0
        at[root] = c
        while stack:
            nid = stack.pop()
            c["nodes"].append(nid)
            euler, ins, outs = _SHAPE[nodes[nid].kind]
            chi += euler
            for k in ins:
                ep = in_to_out["in", nid, k]
                if ep[0] == "out" and ep[1] not in at:
                    at[ep[1]] = c
                    stack.append(ep[1])
            for k, interval in outs:
                ep = out_to_in["out", nid, k]
                if ep[0] == "in":
                    chi -= interval
                    if ep[1] not in at:
                        at[ep[1]] = c
                        stack.append(ep[1])
        c["chi"] = chi
    for i, seg in enumerate(g.source):
        ep = out_to_in[("src", i)]
        if ep[0] == "in":
            c = at[ep[1]]
        else:
            c = at[ep] = component(int(seg.is_interval))
        at[("src", i)] = c
        c["src"].append(i)
        c["circle_ports"] += not seg.is_interval
    for j, seg in enumerate(g.target):
        ep = in_to_out[("tgt", j)]
        c = at[ep[1] if ep[0] == "out" else ("tgt", j)]
        at[("tgt", j)] = c
        c["tgt"].append(j)
        c["circle_ports"] += not seg.is_interval
    for nid, colour in windows:
        at[nid]["windows"].append(colour)

    # sigma cycles, handed to their owning component; each starts at
    # its least port j0.
    ports, seen = _ports(g), set()
    for j0 in sorted(sigma):
        if j0 in seen:
            continue
        cyc, j = [], j0
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = sigma[j]
        at[ports[j0 - 1]]["cycles"].append(tuple(cyc))

    closed = [c for c in comps if not c["src"] and not c["tgt"]]
    if ordered and len(closed) > 1:
        closed.sort(key=lambda c: _least_walk(g, c["nodes"])[0])
    out = []
    for c in sorted((c for c in comps if c["src"] or c["tgt"]),
                    key=lambda c: (0, c["src"][0]) if c["src"]
                    else (1, c["tgt"][0])) + closed:
        b = c["circle_ports"] + len(c["windows"]) + len(c["cycles"])
        two_g = 2 - c["chi"] - b
        if two_g < 0 or two_g % 2:
            raise OcbordError(
                f"inconsistent topology: euler {c['chi']}, {b} boundary circles")
        out.append(ComponentInvariants(
            src_positions=tuple(c["src"]),
            tgt_positions=tuple(c["tgt"]),
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


def profile_key(inv: Invariants):
    """Hashable summary deciding diffeomorphism equivalence.

    Two diagrams with the same boundary objects are equivalent iff they
    split the boundary into the same components and each component
    agrees in genus, window colours and boundary permutation (with its
    colours); boundary-free components match up to permutation.
    """
    open_parts = []
    closed_parts = []
    gam = inv.gamma_map
    for c in inv.components:
        if c.src_positions or c.tgt_positions:
            open_parts.append((
                c.src_positions, c.tgt_positions, c.genus, c.windows,
                c.cycles, tuple((j, gam[j]) for j in c.interval_ports)))
        else:
            closed_parts.append((c.genus, c.windows))
    return (inv.source, inv.target,
            tuple(sorted(open_parts)), tuple(sorted(closed_parts)))


def equivalent(a, b) -> bool:
    """Decide whether two diagrams are diffeomorphic rel boundary."""
    return profile_key(_unordered(as_graph(a))) \
        == profile_key(_unordered(as_graph(b)))
