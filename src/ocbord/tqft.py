"""Evaluation of diagrams as exact rational linear maps.

A diagram denotes a linear map once every boundary segment is assigned a
vector space and every generator a structure map: circles go to a
commutative Frobenius algebra C, intervals I[a,b] to spaces A_ab forming
a colour-indexed symmetric Frobenius family, and zip/cozip to an algebra
map C -> A_aa and its adjoint.  Such a family (a knowledgeable Frobenius
algebra) is the :class:`KFA` record below; :func:`check_axioms` verifies
its defining equations on basis vectors and reports a witness for every
failure, and :func:`evaluate` contracts the diagram's port graph as a
sparse tensor network over exact fractions.  The equations are the rewrite
catalog's relations outside group ``derived``, plus ``cocomm_C``, named by
rule id except ``knowledge`` (``zipcenter``), ``duality`` (``zipdual``)
and ``frob_A``, ``frob_A2``, ``frob_C``, ``frob_C2`` (``frobR_A``,
``frobL_A``, ``frobR_C``, ``frobL_C`` read from rhs to lhs).

Matrix conventions: a map with source dimension c and target dimension r
is an r-by-c matrix acting on column vectors; tensor products index with
the leftmost factor most significant.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from typing import NamedTuple

from .diagram import (
    DEFAULT_COLOR,
    GEN_ARITY,
    Gen,
    OcbordError,
    Seg,
    UnionFind,
    _Value,
    as_graph,
)
from .rewrite import rules

EVAL_DIM_CAP = 4096
_ZERO = Fraction(0)     # the default of every sparse lookup


def exact_str(x) -> str:
    """``str`` of an int or Fraction with every digit, also past the
    interpreter's limit on converting long integers to text."""
    if x.denominator != 1:
        return f"{exact_str(x.numerator)}/{exact_str(x.denominator)}"
    n = x.numerator
    if n.bit_length() <= 2000:      # under 640 digits, the least limit
        return str(n)
    from decimal import Decimal     # no digit limit; only long numbers pay
    return str(Decimal(n))


def _exact_of(text: str) -> Fraction:
    """The inverse of :func:`exact_str`: an integer or ``p/q`` of any
    length; other text is read, or refused, by ``Fraction`` alone."""
    if len(text) <= 640 or not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        return Fraction(text)
    from decimal import Decimal
    num, _, den = text.partition("/")
    q = int(Decimal(den or 1))
    if not q:       # Fraction(p, 0) would spell out p in its message
        raise ZeroDivisionError("zero denominator")
    return Fraction(int(Decimal(num)), q)


class LinearMap:
    """Sparse exact-rational matrix: ``rows`` by ``cols``."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.data = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) out of range")
                v = Fraction(v)
                if v:
                    self.data[(r, c)] = v

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(n, n, {(i, i): Fraction(1) for i in range(n)})

    def entry(self, r: int, c: int) -> Fraction:
        return self.data.get((r, c), _ZERO)

    def to_rows(self):
        return [[self.entry(r, c) for c in range(self.cols)]
                for r in range(self.rows)]

    def col(self, c: int):
        return tuple(self.entry(r, c) for r in range(self.rows))

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"LinearMap({self.rows}x{self.cols}, {len(self.data)} entries)"


def _space_key(seg: Seg):
    return "C" if not seg.is_interval else ("A", seg.left, seg.right)


def _label_problems(colors, label_lists) -> list:
    """Each colour and basis label must be a string; no colour repeats."""
    return ([f"colour or basis label {x!r} is not a string"
             for x in chain(colors, *label_lists) if not isinstance(x, str)]
            or [f"colour {a!r} is listed {n} times"
                for a, n in Counter(colors).items() if n > 1])


class KFA:
    """A (coloured) knowledgeable Frobenius algebra over the rationals.

    ``dims``/``basis`` are keyed by "C" and ("A", a, b); ``maps`` by
    (kind, colours) for each generator instance the colour set allows.
    """

    __slots__ = _fields = ("colors", "dims", "basis", "maps", "name")
    __repr__ = _Value.__repr__

    def __init__(self, colors: tuple, dims: dict, basis: dict, maps: dict,
                 name: str = ""):
        self.colors, self.dims, self.basis = colors, dims, basis
        self.maps, self.name = maps, name

    def __eq__(self, other):        # leaves KFA unhashable, as it is mutable
        return (self.colors == other.colors and self.dims == other.dims
                and self.basis == other.basis and self.maps == other.maps
                and self.name == other.name
                if other.__class__ is KFA else NotImplemented)

    def seg_dim(self, seg: Seg) -> int:
        key = _space_key(seg)
        if key not in self.dims:
            raise OcbordError(f"algebra has no space for segment {seg}")
        return self.dims[key]

    def obj_dim(self, segs) -> int:
        d = 1
        for s in segs:
            d *= self.seg_dim(s)
        return d

    def gen_map(self, gen: Gen) -> LinearMap:
        key = (gen.kind, gen.colors)
        if key not in self.maps:
            raise OcbordError(f"algebra has no structure map for {gen}")
        return self.maps[key]

    def required_maps(self):
        """The ``(kind, colours)`` key of every map the colours need."""
        for kind, n in GEN_ARITY.items():
            for cols in product(self.colors, repeat=n):
                yield kind, cols

    def _space_names(self):
        """``{save_kfa's name: key}`` of every space the colours need."""
        pairs = product(self.colors, repeat=2)
        return {_space_name(k): k for k in (*(("A", *p) for p in pairs), "C")}

    def validate_structure(self):
        """Up to five problems, the first found: a colour or basis label
        that is not a string, or a colour listed twice; else a required
        space missing, or a basis label list that does not label a declared
        space in full; else a required map missing or of the wrong shape."""
        problems = _label_problems(self.colors, self.basis.values())
        if problems:
            return problems[:5]
        problems = [f"missing space {name}" for name, key
                    in self._space_names().items() if key not in self.dims]
        for key, labels in self.basis.items():
            name = _space_name(key)
            if key not in self.dims:
                problems.append(f"basis for undeclared space {name}")
            elif len(labels) != self.dims[key]:
                problems.append(f"basis of {name} has {len(labels)} "
                                f"label(s), want {self.dims[key]}")
        if problems:
            return problems[:5]
        for key in self.required_maps():
            m, gen = self.maps.get(key), Gen(*key)
            want = (self.obj_dim(gen.target), self.obj_dim(gen.source))
            if m is None:
                problems.append(f"missing map {gen}")
            elif (m.rows, m.cols) != want:
                problems.append(f"map {gen} has shape {m.rows}x{m.cols}, "
                                f"want {want[0]}x{want[1]}")
            if len(problems) == 5:
                break
        return problems


def _decode(flat: int, dims):
    out = []
    for d in reversed(dims):
        if d == 0:
            raise ValueError("zero dimension")
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


def _pair_size(a, b, wire_dim) -> int:
    """Leg-space size of the tensor left by contracting leg sets ``a``
    and ``b``: the product of the dimensions of the unshared legs."""
    size = 1
    for l in a ^ b:
        size *= wire_dim[l]
    return size


def _contraction_plan(legs, wire_dim) -> list:
    """The greedy contraction order of a tensor network, as ``(i, j)``
    pairs of tensor ids.

    ``legs[i]`` lists the wires of tensor ``i``; the tensor that a step
    makes gets the next id.  Each step contracts, among the live pairs
    that share a wire, the one whose result has the smallest leg space,
    the smallest ``(i, j)`` on ties.  A heap holds every such pair; a
    step drops entries whose tensors are gone, updates the index for
    the legs of the two tensors it merges and prices one pair per
    neighbour of the new tensor.  Planning thus costs the merged
    tensors' leg and neighbour counts, summed over the steps, instead
    of a scan of all pairs per step: near-linear while tensors stay
    narrow, as on ladder walks (about two pairs priced per tensor).
    """
    live = [frozenset(l) for l in legs]
    at = {}
    for i, ls in enumerate(live):
        for l in ls:
            at.setdefault(l, set()).add(i)
    pairs = {(i, j) for ids in at.values() for i in ids for j in ids if i < j}
    heap = [(_pair_size(live[i], live[j], wire_dim), i, j)
            for i, j in pairs]
    heapq.heapify(heap)
    plan = []
    while heap:
        _, i, j = heapq.heappop(heap)
        if live[i] is None or live[j] is None:
            continue
        k = len(live)
        merged = live[i] ^ live[j]
        for l in live[i] | live[j]:
            at[l] -= {i, j}
        near = set()
        for l in merged:
            near |= at[l]
            at[l].add(k)
        live[i] = live[j] = None
        live.append(merged)
        plan.append((i, j))
        for n in near:
            heapq.heappush(heap, (_pair_size(live[n], merged, wire_dim), n, k))
    return plan


def _contract(t1, t2):
    """Sum two sparse tensors over their shared legs; the result's legs
    are ``t1``'s unshared legs, then ``t2``'s."""
    legs1, d1 = t1
    legs2, d2 = t2
    at2 = {l: p for p, l in enumerate(legs2)}
    pos1 = [p for p, l in enumerate(legs1) if l in at2]
    pos2 = [at2[legs1[p]] for p in pos1]
    keep1 = [p for p, l in enumerate(legs1) if l not in at2]
    shared2 = set(pos2)
    keep2 = [p for p in range(len(legs2)) if p not in shared2]
    buckets = {}
    for idx, v in d2.items():
        buckets.setdefault(tuple(idx[p] for p in pos2), []).append(
            (tuple(idx[p] for p in keep2), v))
    out = {}
    for idx, v in d1.items():
        key = tuple(idx[p] for p in pos1)
        base = tuple(idx[p] for p in keep1)
        for rest, v2 in buckets.get(key, ()):
            full = base + rest
            acc = out.get(full, _ZERO) + v * v2
            if acc:
                out[full] = acc
            elif full in out:
                del out[full]
    return ([legs1[p] for p in keep1] + [legs2[p] for p in keep2], out)


def _join(tensors, place):
    """The entries ``{(row, col): value}`` of the outer product of tensors
    sharing no leg: index ``i`` on leg ``l`` adds ``i * place[l][0]`` to
    the row and ``i * place[l][1]`` to the column.  The product grows one
    tensor at a time, the leg-less ones (closed components) first, so
    each scales one entry (a zero one leaves none); the cost is linear in
    the tensors and in the result."""
    out = [(0, 0, Fraction(1))]
    for legs, d in sorted(tensors, key=lambda t: bool(t[0])):
        steps = []
        for idx, w in d.items():
            r = c = 0
            for l, i in zip(legs, idx):
                r, c = r + i * place[l][0], c + i * place[l][1]
            steps.append((r, c, w))
        out = [(r + dr, c + dc, v * w) for r, c, v in out
               for dr, dc, w in steps]
    return {(r, c): v for r, c, v in out}


def _tensor_network(g, alg: KFA):
    """One sparse tensor ``(legs, data)`` per node of the well-formed
    port graph ``g``, plus the dimension of every wire.  Legs are wire ids
    (producer endpoints)."""
    wire_dim = {}
    for prod in g.out_to_in:
        wire_dim[prod] = alg.seg_dim(g.producer_seg(prod))

    tensors = []
    for nid, gen in g.nodes.items():
        ins = [g.in_to_out[("in", nid, k)] for k in range(len(gen.source))]
        outs = [("out", nid, k) for k in range(len(gen.target))]
        legs = ins + outs
        in_dims = [alg.seg_dim(s) for s in gen.source]
        out_dims = [alg.seg_dim(s) for s in gen.target]
        m = alg.gen_map(gen)
        data = {}
        for (r, c), v in m.data.items():
            key = _decode(c, in_dims) + _decode(r, out_dims)
            data[key] = v
        tensors.append((legs, data))
    # A wire straight from source to target has no node tensor; give it a
    # diagonal one-leg tensor so both boundary indices read the same value.
    for prod, cons in g.out_to_in.items():
        if prod[0] == "src" and cons[0] == "tgt":
            tensors.append(([prod], {(k,): Fraction(1)
                                     for k in range(wire_dim[prod])}))
    return tensors, wire_dim


def evaluate(x, alg: KFA) -> LinearMap:
    """Contract a diagram to its linear map under ``alg``."""
    g = as_graph(x)
    rows = alg.obj_dim(g.target)
    cols = alg.obj_dim(g.source)
    if rows > EVAL_DIM_CAP or cols > EVAL_DIM_CAP:
        raise OcbordError(
            f"evaluation result would be {rows}x{cols}, over the cap")

    tensors, wire_dim = _tensor_network(g, alg)
    for i, j in _contraction_plan([legs for legs, _ in tensors], wire_dim):
        tensors.append(_contract(tensors[i], tensors[j]))
        tensors[i] = tensors[j] = None
    # What is left shares no leg: one tensor per component, each leg a
    # boundary wire with a place value among the target ports (row) and
    # the source ports (column); a bare source-to-target wire has both.
    place = {}
    for side, wires in ((0, [g.in_to_out[("tgt", j)]
                             for j in range(len(g.target))]),
                        (1, [("src", i) for i in range(len(g.source))])):
        p = 1
        for w in reversed(wires):
            place.setdefault(w, [0, 0])[side] = p
            p *= wire_dim[w]
    return LinearMap(rows, cols,
                     _join([t for t in tensors if t is not None], place))


# ---------------------------------------------------------------------------
# Axiom checking


class AxiomFailure(NamedTuple):
    axiom: str
    colors: tuple
    basis_index: int
    basis_label: str
    lhs_column: tuple
    rhs_column: tuple

    def __str__(self):
        cols = f"[{','.join(self.colors)}]" if self.colors else ""
        lhs, rhs = (", ".join(map(exact_str, c))
                    for c in (self.lhs_column, self.rhs_column))
        return (f"{self.axiom}{cols} fails on basis vector "
                f"{self.basis_label}: lhs [{lhs}] != rhs [{rhs}]")


class AxiomReport(NamedTuple):
    ok: bool
    checked: int
    failures: tuple

    def __str__(self):
        if self.ok:
            return f"all {self.checked} axiom instances hold"
        lines = [f"{len(self.failures)} of {self.checked} axiom instances fail:"]
        lines += [f"  {f}" for f in self.failures]
        return "\n".join(lines)


# Each axiom as (report name, catalog rule id, read from rhs to lhs), keyed
# by how many of the catalog's colour variables a, b, c, d it binds.
_AXIOMS = {
    2: (("unitL_A", "unitL_A", False), ("unitR_A", "unitR_A", False),
        ("counitL_A", "counitL_A", False), ("counitR_A", "counitR_A", False),
        ("symm_A", "symm_A", False), ("knowledge", "zipcenter", False),
        ("cardy", "cardy", False)),
    4: (("assoc_A", "assoc_A", False), ("coassoc_A", "coassoc_A", False),
        ("frob_A", "frobR_A", True), ("frob_A2", "frobL_A", True)),
    1: (("ziphom_mul", "ziphom_mul", False),
        ("ziphom_unit", "ziphom_unit", False), ("duality", "zipdual", False)),
    0: (("assoc_C", "assoc_C", False), ("unitL_C", "unitL_C", False),
        ("unitR_C", "unitR_C", False), ("coassoc_C", "coassoc_C", False),
        ("counitL_C", "counitL_C", False), ("counitR_C", "counitR_C", False),
        ("comm_C", "comm_C", False), ("cocomm_C", "cocomm_C", False),
        ("frob_C", "frobR_C", True), ("frob_C2", "frobL_C", True)),
}


def _recolored(side, env: dict):
    """The port graph of a rule side with its colour variables renamed."""
    def seg(s):
        return Seg.I(env[s.left], env[s.right]) if s.is_interval else s

    g = as_graph(side)      # a term's graph is built afresh: ours to edit
    g.source, g.target = tuple(map(seg, g.source)), tuple(map(seg, g.target))
    g.nodes = {nid: Gen(gen.kind, tuple(env[c] for c in gen.colors))
               for nid, gen in g.nodes.items()}
    return g


def _axiom_instances(colors):
    """Yield (name, colours, lhs graph, rhs graph) for every axiom instance."""
    def instances(cols):
        env = dict(zip("abcd", cols))
        for name, rule_id, reverse in _AXIOMS[len(cols)]:
            rule = rules()[rule_id]
            yield (name, cols, _recolored(rule.side(reverse), env),
                   _recolored(rule.side(not reverse), env))

    for a in colors:
        for b in colors:
            yield from instances((a, b))
            for c in colors:
                for d in colors:
                    yield from instances((a, b, c, d))
    for a in colors:
        yield from instances((a,))
    yield from instances(())


def _obj_basis_label(alg: KFA, segs, flat: int) -> str:
    if not segs:
        return "1"
    idx = _decode(flat, [alg.seg_dim(s) for s in segs])
    names = [alg.basis.get(_space_key(s), ()) for s in segs]
    # a vector the file gives no label is named by its index
    return " (x) ".join(ns[k] if k < len(ns) else str(k)
                        for ns, k in zip(names, idx))


def check_axioms(alg: KFA) -> AxiomReport:
    """Verify the defining equations of a knowledgeable Frobenius algebra.

    Each instance is a catalog relation (see above) with its colour
    variables bound; both sides are evaluated as linear maps, and the
    first differing basis column of each failing instance is reported.
    An algebra missing a space or a map, or with a map of the wrong
    shape, is refused with :class:`OcbordError` naming its problems.
    """
    problems = alg.validate_structure()
    if problems:
        raise OcbordError("; ".join(problems))
    failures = []
    checked = 0
    for name, cols, lhs, rhs in _axiom_instances(alg.colors):
        checked += 1
        ml = evaluate(lhs, alg)
        mr = evaluate(rhs, alg)
        if ml == mr:
            continue
        witness = next((c for c in range(ml.cols)
                        if ml.col(c) != mr.col(c)), 0)
        failures.append(AxiomFailure(
            name, cols, witness, _obj_basis_label(alg, lhs.source, witness),
            ml.col(witness), mr.col(witness)))
    return AxiomReport(not failures, checked, tuple(failures))


# ---------------------------------------------------------------------------
# Builtin examples


def builtin_matrix_example(n: int) -> KFA:
    """The n-by-n rational matrix algebra with trace counit, C = Q.

    The comultiplication is Delta(e_kl) = sum_j e_kj (x) e_jl, the zipper
    sends 1 to the identity matrix and the cozipper is the trace.
    """
    if n < 1:
        raise OcbordError("matrix example needs n >= 1")
    a = DEFAULT_COLOR
    d = n * n
    labels = tuple(f"e{i + 1}{j + 1}" for i in range(n) for j in range(n))
    mu = {}
    delta = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                mu[(i * n + l, (i * n + j) * d + (j * n + l))] = Fraction(1)
                delta[((i * n + j) * d + (j * n + l), i * n + l)] = Fraction(1)
    eta = LinearMap(d, 1, {(i * n + i, 0): Fraction(1) for i in range(n)})
    eps = LinearMap(1, d, {(0, i * n + i): Fraction(1) for i in range(n)})
    one = LinearMap.identity(1)
    maps = {
        ("mu_A", (a, a, a)): LinearMap(d, d * d, mu),
        ("eta_A", (a,)): eta,
        ("Delta_A", (a, a, a)): LinearMap(d * d, d, delta),
        ("eps_A", (a,)): eps,
        ("mu_C", ()): one,
        ("eta_C", ()): one,
        ("Delta_C", ()): one,
        ("eps_C", ()): one,
        ("zip", (a,)): eta,
        ("cozip", (a,)): eps,
    }
    return KFA(colors=(a,), dims={"C": 1, ("A", a, a): d},
               basis={"C": ("1",), ("A", a, a): labels},
               maps=maps, name=f"matrix{n}")


class Groupoid:
    """A finite groupoid given by explicit composition tables."""

    def __init__(self, objects, morphisms, comp):
        """``morphisms``: name -> (src, tgt); ``comp``: (f, g) -> name
        meaning f after g, defined exactly for tgt(g) = src(f)."""
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)
        self.comp = dict(comp)
        self._validate()

    def _validate(self):
        ms = self.morphisms
        for f, (s, t) in ms.items():
            if s not in self.objects or t not in self.objects:
                raise OcbordError(f"invalid groupoid data: {f} has unknown ends")
        for f, (fs, ft) in ms.items():
            for g, (gs, gt) in ms.items():
                if gt == fs:
                    if (f, g) not in self.comp:
                        raise OcbordError(
                            f"invalid groupoid data: missing composite {f},{g}")
                    h = self.comp[(f, g)]
                    if h not in ms or ms[h] != (gs, ft):
                        raise OcbordError(
                            f"invalid groupoid data: bad composite {f},{g}")
                elif (f, g) in self.comp:
                    raise OcbordError(
                        f"invalid groupoid data: {f},{g} not composable")
        self.identity = {}
        for x in self.objects:
            loops = [f for f, (s, t) in ms.items() if s == t == x]
            ids = [e for e in loops
                   if all(self.comp[(e, g)] == g for g, (gs, gt) in ms.items()
                          if gt == x)
                   and all(self.comp[(f, e)] == f for f, (fs, ft) in ms.items()
                           if fs == x)]
            if len(ids) != 1:
                raise OcbordError(
                    f"invalid groupoid data: object {x} lacks an identity")
            self.identity[x] = ids[0]
        self.inverse = {}
        for f, (s, t) in ms.items():
            inv = next((g for g, (gs, gt) in ms.items()
                        if gs == t and gt == s
                        and self.comp[(f, g)] == self.identity[t]
                        and self.comp[(g, f)] == self.identity[s]), None)
            if inv is None:
                raise OcbordError(f"invalid groupoid data: {f} has no inverse")
            self.inverse[f] = inv
        # f after g is defined exactly for the g in into[src(f)]
        into = {x: [] for x in self.objects}
        for g, (_, gt) in ms.items():
            into[gt].append(g)
        for f, (fs, _) in ms.items():
            for g in into[fs]:
                fg = self.comp[(f, g)]
                for h in into[ms[g][0]]:
                    if self.comp[(f, self.comp[(g, h)])] != self.comp[(fg, h)]:
                        raise OcbordError(
                            "invalid groupoid data: not associative")

    def hom(self, src, tgt):
        return sorted(f for f, (s, t) in self.morphisms.items()
                      if s == src and t == tgt)


def groupoid_algebra(gpd: Groupoid) -> KFA:
    """The knowledgeable Frobenius algebra of a finite groupoid.

    Colours are the objects; A_ab is spanned by Hom(b, a) with
    composition as product and "coefficient of the identity" as counit;
    the comultiplication is Delta(f) = sum_h (f h^-1) (x) h.  C is the
    direct sum over connected components of the centre of the vertex
    group algebra of G = Hom(base, base), spanned by class sums e_cls.
    Its counit is 1/|G| times the identity coefficient, so e_cls pairs
    only with the inverse class, to |cls|/|G|, and
    Delta_C(x) = sum_cls (|G|/|cls|) (x e_cls) (x) e_{cls^-1}.  Over an
    object a with transport t_a: base -> a, the zipper sends e_cls to
    sum_{h in cls} t_a h t_a^-1 and the cozipper sends f to
    (|G|/|cls|) e_cls, cls the class of t_a^-1 f t_a.
    """
    objs = gpd.objects
    uf = UnionFind()
    for s, t in gpd.morphisms.values():
        uf.union(s, t)
    comp_of = {x: uf.find(x) for x in objs}

    # Per component: base object, vertex group, conjugacy classes and a
    # transport morphism base -> x per member.  The classes, in component
    # order, are the basis of C; ``c_of`` gives each group element's.
    comp_data = {}
    c_basis = []
    c_of = {}
    for k in sorted(set(comp_of.values())):
        base = min(x for x in objs if comp_of[x] == k)
        group = gpd.hom(base, base)
        left = set(group)
        while left:
            h = min(left)
            cls = tuple(sorted({gpd.comp[(gpd.comp[(g, h)], gpd.inverse[g])]
                                for g in group}))
            for g in cls:
                c_of[g] = len(c_basis)
            c_basis.append((k, cls))
            left -= set(cls)
        tree = {base: gpd.identity[base]}
        frontier = [base]
        while frontier:
            y = frontier.pop()
            for f, (s, t) in gpd.morphisms.items():
                if s == y and t not in tree and comp_of[t] == k:
                    tree[t] = gpd.comp[(f, tree[y])]
                    frontier.append(t)
        comp_data[k] = (base, group, tree)
    c_dim = len(c_basis)

    dims = {"C": c_dim}
    basis = {}
    for a in objs:
        for b in objs:
            hom = gpd.hom(b, a)
            dims[("A", a, b)] = len(hom)
            basis[("A", a, b)] = tuple(hom)
    basis["C"] = tuple(f"Z[{k}:{cls[0]}]" for k, cls in c_basis)

    idx = {}
    for a in objs:
        for b in objs:
            idx[(a, b)] = {f: i for i, f in enumerate(basis[("A", a, b)])}

    maps = {}
    for a in objs:
        for b in objs:
            for c in objs:
                dab, dbc, dac = dims[("A", a, b)], dims[("A", b, c)], dims[("A", a, c)]
                mu = {}
                for f in basis[("A", a, b)]:
                    for h in basis[("A", b, c)]:
                        mu[(idx[(a, c)][gpd.comp[(f, h)]],
                            idx[(a, b)][f] * dbc + idx[(b, c)][h])] = Fraction(1)
                maps[("mu_A", (a, b, c))] = LinearMap(dac, dab * dbc, mu)
                delta = {}
                for f in basis[("A", a, c)]:
                    for h in basis[("A", b, c)]:
                        p = gpd.comp[(f, gpd.inverse[h])]
                        delta[(idx[(a, b)][p] * dbc + idx[(b, c)][h],
                               idx[(a, c)][f])] = Fraction(1)
                maps[("Delta_A", (a, b, c))] = LinearMap(dab * dbc, dac, delta)
    for a in objs:
        daa = dims[("A", a, a)]
        e = gpd.identity[a]
        maps[("eta_A", (a,))] = LinearMap(
            daa, 1, {(idx[(a, a)][e], 0): Fraction(1)})
        maps[("eps_A", (a,))] = LinearMap(
            1, daa, {(0, idx[(a, a)][e]): Fraction(1)})

    mu_c = {}
    delta_c = {}
    for i, (k1, cls1) in enumerate(c_basis):
        order = len(comp_data[k1][1])
        for j, (k2, cls2) in enumerate(c_basis):
            if k1 != k2:
                continue
            acc = {}
            for h1 in cls1:
                for h2 in cls2:
                    h = gpd.comp[(h1, h2)]
                    acc[h] = acc.get(h, 0) + 1
            dual = c_of[gpd.inverse[cls2[0]]]
            for r, (_k, cls) in enumerate(c_basis):
                coeff = acc.get(cls[0], 0)
                assert all(acc.get(h, 0) == coeff for h in cls), \
                    "class sum product must be central"
                if coeff:
                    mu_c[(r, i * c_dim + j)] = Fraction(coeff)
                    delta_c[(r * c_dim + dual, i)] = Fraction(
                        coeff * order, len(cls2))
    maps[("mu_C", ())] = LinearMap(c_dim, c_dim * c_dim, mu_c)
    maps[("Delta_C", ())] = LinearMap(c_dim * c_dim, c_dim, delta_c)
    eta_c = {}
    eps_c = {}
    for base, group, _tree in comp_data.values():
        one = c_of[gpd.identity[base]]
        eta_c[(one, 0)] = Fraction(1)
        eps_c[(0, one)] = Fraction(1, len(group))
    maps[("eta_C", ())] = LinearMap(c_dim, 1, eta_c)
    maps[("eps_C", ())] = LinearMap(1, c_dim, eps_c)

    for a in objs:
        base, group, tree = comp_data[comp_of[a]]
        t_a = tree[a]
        t_inv = gpd.inverse[t_a]
        daa = dims[("A", a, a)]
        z = {}
        cz = {}
        for f, fi in idx[(a, a)].items():
            # f = t_a h t_a^-1 for the vertex-group element h below
            h = gpd.comp[(t_inv, gpd.comp[(f, t_a)])]
            ci = c_of[h]
            z[(fi, ci)] = Fraction(1)
            cz[(ci, fi)] = Fraction(len(group), len(c_basis[ci][1]))
        maps[("zip", (a,))] = LinearMap(daa, c_dim, z)
        maps[("cozip", (a,))] = LinearMap(c_dim, daa, cz)

    return KFA(colors=tuple(objs), dims=dims, basis=basis, maps=maps,
               name="groupoid")


def _cyclic_group_groupoid(n: int, objects=("x",)) -> Groupoid:
    """Groupoid with the given objects all isomorphic, vertex group Z/n."""
    objs = tuple(objects)
    morphisms = {}
    comp = {}
    for s in objs:
        for t in objs:
            for g in range(n):
                morphisms[f"g{g}:{s}>{t}"] = (s, t)
    for f, (fs, ft) in morphisms.items():
        for h, (hs, ht) in morphisms.items():
            if ht == fs:
                gf = int(f[1:f.index(":")])
                gh = int(h[1:h.index(":")])
                comp[(f, h)] = f"g{(gf + gh) % n}:{hs}>{ft}"
    return Groupoid(objs, morphisms, comp)


def _s3_groupoid() -> Groupoid:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    name = {p: f"p{''.join(map(str, p))}" for p in perms}
    morphisms = {name[p]: ("x", "x") for p in perms}
    comp = {}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(3))
            comp[(name[p], name[q])] = name[pq]
    return Groupoid(("x",), morphisms, comp)


def builtin_groupoid_example(which: str = "pair_z2") -> KFA:
    """Builtin groupoid algebras: ``trivial_pair``, ``z2``, ``pair_z2``,
    ``s3``, ``two_comps``."""
    if which == "trivial_pair":
        g = _cyclic_group_groupoid(1, ("a", "b"))
    elif which == "z2":
        g = _cyclic_group_groupoid(2, ("a",))
    elif which == "pair_z2":
        g = _cyclic_group_groupoid(2, ("a", "b"))
    elif which == "s3":
        g = _s3_groupoid()
    elif which == "two_comps":
        ga = _cyclic_group_groupoid(2, ("a",))
        gb = _cyclic_group_groupoid(1, ("b",))
        morphisms = dict(ga.morphisms)
        morphisms.update(gb.morphisms)
        comp = dict(ga.comp)
        comp.update(gb.comp)
        g = Groupoid(("a", "b"), morphisms, comp)
    else:
        raise OcbordError(f"unknown groupoid example {which!r}")
    alg = groupoid_algebra(g)
    alg.name = f"groupoid-{which}"
    return alg


BUILTIN_ALGEBRAS = ("matrix1", "matrix2", "matrix3",
                    "groupoid-trivial_pair", "groupoid-z2",
                    "groupoid-pair_z2", "groupoid-s3", "groupoid-two_comps")


@lru_cache(maxsize=16)
def builtin_algebra(name: str) -> KFA:
    """The builtin algebra called ``name`` (see :data:`BUILTIN_ALGEBRAS`;
    ``matrixN`` for any N >= 1).  Built once per name and shared by every
    caller in the process: treat it as read-only."""
    if name.startswith("matrix"):
        try:
            n = int(name[len("matrix"):])
        except ValueError:
            raise OcbordError(f"unknown builtin algebra {name!r}") from None
        if n < 1:
            raise OcbordError(f"unknown builtin algebra {name!r}")
        return builtin_matrix_example(n)
    if name.startswith("groupoid-"):
        return builtin_groupoid_example(name[len("groupoid-"):])
    raise OcbordError(f"unknown builtin algebra {name!r}")


# ---------------------------------------------------------------------------
# File format (.kfa)


def _space_name(key) -> str:
    """The file and report name of a space key: ``C`` or ``A[a,b]``."""
    return key if key == "C" else f"A[{key[1]},{key[2]}]"


def _map_name(key) -> str:
    kind, cols = key
    return kind if not cols else f"{kind}[{','.join(cols)}]"


def save_kfa(alg: KFA, path) -> None:
    doc = {
        "format": "kfa",
        "name": alg.name,
        "colors": list(alg.colors),
        "dims": {_space_name(k): v for k, v in alg.dims.items()},
        "basis": {_space_name(k): list(v) for k, v in alg.basis.items()},
        "maps": {
            _map_name(k): {
                "rows": m.rows, "cols": m.cols,
                "entries": [[r, c, exact_str(v)]
                            for (r, c), v in sorted(m.data.items())],
            } for k, m in sorted(alg.maps.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_kfa(path) -> KFA:
    """Read a file :func:`save_kfa` writes: each space and map name is one
    it writes for the colours (blanks aside), and none is given twice."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:
            # ValueError: not UTF-8, not JSON, or an over-long integer
            raise OcbordError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != "kfa":
        raise OcbordError(f"{path}: missing 'format': 'kfa' marker")

    def whole(value):
        # a JSON integer; JSON reads 1.0, 1e999 and true as other types
        if type(value) is not int:
            raise TypeError(f"{value!r} is not an integer")
        return value

    def array(value):       # not a string, which tuple() splits up
        if type(value) is not list:
            raise TypeError(f"{value!r} is not an array")
        return tuple(value)

    def dim(value):
        d = whole(value)
        if d < 0:
            raise ValueError(f"negative dimension {d}")
        return d

    def unique(pairs, name):    # json.load and dict() keep a key's last
        out = {}
        for k, v in pairs:
            if k in out:
                raise ValueError(f"{name(k)} given twice")
            out[k] = v
        return out

    def named(obj, table, problem, value):
        out = unique(((re.sub(r"\s*([\[\],])\s*", r"\1", k), v)
                      for k, v in obj.items()), repr)
        if bad := out.keys() - table.keys():
            raise OcbordError(f"{path}: " + problem.format(min(bad)))
        return {table[name]: value(v) for name, v in out.items()}

    def matrix(m):
        return LinearMap(whole(m["rows"]), whole(m["cols"]), unique(
            (((whole(r), whole(c)),
              _exact_of(v) if isinstance(v, str) else whole(v))
             for r, c, v in array(m["entries"])), "entry {}".format))

    try:
        colors = array(doc["colors"])
        title = doc.get("name", "")
        if not isinstance(title, str):
            raise TypeError(f"name {title!r} is not a string")
        problems = _label_problems(colors, map(array, doc["basis"].values()))
        if not problems:    # every name is built from them
            alg = KFA(colors=colors, dims={}, basis={}, maps={}, name=title)
            spaces = alg._space_names()
            alg.dims = named(doc["dims"], spaces, "bad space name {!r}", dim)
            alg.basis = named(doc["basis"], spaces,
                              "basis for undeclared space {}", array)
            if len(alg.dims) == len(spaces):  # k**3 maps wait for k*k spaces
                maps = {_map_name(k): k for k in alg.required_maps()}
                alg.maps = named(doc["maps"], maps, "bad map name {!r}",
                                 matrix)
    except (KeyError, ValueError, TypeError, AttributeError,
            ZeroDivisionError) as e:
        raise OcbordError(f"{path}: malformed algebra file: {e}") from None
    problems = problems or alg.validate_structure()
    if problems:
        raise OcbordError(f"{path}: " + "; ".join(problems[:5]))
    return alg
