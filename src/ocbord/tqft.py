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
from itertools import chain, permutations, product
from math import prod
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
from .dsl import _NAME
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
        return prod(map(self.seg_dim, segs))

    def gen_map(self, gen: Gen) -> LinearMap:
        key = (gen.kind, gen.colors)
        if key not in self.maps:
            raise OcbordError(f"algebra has no structure map for {gen}")
        return self.maps[key]

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
        for key in ((kind, cols) for kind, n in GEN_ARITY.items()
                    for cols in product(self.colors, repeat=n)):
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


def _transpose(m: LinearMap, scale=None) -> LinearMap:
    """The transpose of ``m``, its row ``r`` times ``scale[r]`` if given:
    each builtin's dual map, read off the map it is dual to."""
    out = LinearMap(m.cols, m.rows)
    out.data = {(c, r): v if scale is None else v * scale[c]
                for (r, c), v in m.data.items()}
    return out


def builtin_matrix_example(n: int) -> KFA:
    """The n-by-n rational matrix algebra with trace counit, C = Q.

    The comultiplication Delta(e_kl) = sum_j e_kj (x) e_jl is the
    product's transpose, the zipper sends 1 to the identity matrix and
    the counit and cozipper are the trace, the unit's transpose.
    """
    if n < 1:
        raise OcbordError("matrix example needs n >= 1")
    a = DEFAULT_COLOR
    d = n * n
    labels = tuple(f"e{i + 1}{j + 1}" for i in range(n) for j in range(n))
    mu = LinearMap(d, d * d, {(i * n + l, (i * n + j) * d + (j * n + l)): 1
                              for i, j, l in product(range(n), repeat=3)})
    eta = LinearMap(d, 1, {(i * n + i, 0): 1 for i in range(n)})
    eps = _transpose(eta)
    one = LinearMap.identity(1)
    maps = {("mu_A", (a, a, a)): mu, ("eta_A", (a,)): eta,
            ("Delta_A", (a, a, a)): _transpose(mu), ("eps_A", (a,)): eps,
            **{(kind, ()): one for kind in ("mu_C", "eta_C", "Delta_C",
                                            "eps_C")},
            ("zip", (a,)): eta, ("cozip", (a,)): eps}
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
            ids = [e for e, (s, t) in ms.items() if s == t == x
                   and all(self.comp[(e, g)] == g for g, (gs, gt) in ms.items()
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
    composition as product and "coefficient of the identity" as counit,
    the unit's transpose; the comultiplication
    Delta(f) = sum_h (f h^-1) (x) h is the product's transpose.  C is the
    direct sum over connected components of the centre of the vertex
    group algebra of G = Hom(base, base), spanned by class sums e_cls.
    Its counit is 1/|G| times the identity coefficient, so e_cls pairs
    only with the inverse class, to |cls|/|G|, and
    Delta_C(x) = sum_cls (|G|/|cls|) (x e_cls) (x) e_{cls^-1}.  Over an
    object a, with t any morphism base -> a, the zipper sends e_cls to
    sum_{h in cls} t h t^-1 and the cozipper is its transpose, row e_cls
    scaled by |G|/|cls|.  Conjugating by an element of G fixes every
    class, so neither depends on the choice of t.
    """
    objs = gpd.objects
    uf = UnionFind()
    for s, t in gpd.morphisms.values():
        uf.union(s, t)
    comp_of = {x: uf.find(x) for x in objs}

    # Per component: base object and vertex group order.  The conjugacy
    # classes, in component order, are the basis of C; ``c_of`` gives each
    # group element's, and ``c_scale`` is |G|/|cls| for each.
    base_of, order = {}, {}
    c_basis = []
    c_of = {}
    for k in sorted(set(comp_of.values())):
        base = base_of[k] = min(x for x in objs if comp_of[x] == k)
        group = gpd.hom(base, base)
        order[k] = len(group)
        left = set(group)
        while left:
            h = min(left)
            cls = tuple(sorted({gpd.comp[(gpd.comp[(g, h)], gpd.inverse[g])]
                                for g in group}))
            for g in cls:
                c_of[g] = len(c_basis)
            c_basis.append((k, cls))
            left -= set(cls)
    c_dim = len(c_basis)
    c_scale = [Fraction(order[k], len(cls)) for k, cls in c_basis]

    dims, basis, idx = {"C": c_dim}, {}, {}
    for a, b in product(objs, repeat=2):
        basis[("A", a, b)] = hom = tuple(gpd.hom(b, a))
        dims[("A", a, b)] = len(hom)
        idx[(a, b)] = {f: i for i, f in enumerate(hom)}
    basis["C"] = tuple(f"Z[{k}:{cls[0]}]" for k, cls in c_basis)

    maps = {}
    for a, b, c in product(objs, repeat=3):
        dbc = dims[("A", b, c)]
        mu = LinearMap(dims[("A", a, c)], dims[("A", a, b)] * dbc, {
            (idx[(a, c)][gpd.comp[(f, h)]], i * dbc + j): 1
            for f, i in idx[(a, b)].items() for h, j in idx[(b, c)].items()})
        maps[("mu_A", (a, b, c))] = mu
        maps[("Delta_A", (a, b, c))] = _transpose(mu)
    for a in objs:
        eta = LinearMap(dims[("A", a, a)], 1,
                        {(idx[(a, a)][gpd.identity[a]], 0): 1})
        maps[("eta_A", (a,))] = eta
        maps[("eps_A", (a,))] = _transpose(eta)

    # e_i e_j is 0 across components, else a sum of class sums, as the
    # centre is closed; Delta_C(e_i) = sum_j (e_i e_j) (x) e_j's dual
    mu_c, delta_c = {}, {}
    for (i, (k1, cls1)), (j, (k2, cls2)) in product(enumerate(c_basis),
                                                    repeat=2):
        if k1 != k2:
            continue
        dual = c_of[gpd.inverse[cls2[0]]]
        for h, n in Counter(gpd.comp[(h1, h2)]
                            for h1 in cls1 for h2 in cls2).items():
            mu_c[(c_of[h], i * c_dim + j)] = Fraction(n)
            delta_c[(c_of[h] * c_dim + dual, i)] = n * c_scale[j]
    maps[("mu_C", ())] = LinearMap(c_dim, c_dim * c_dim, mu_c)
    maps[("Delta_C", ())] = LinearMap(c_dim * c_dim, c_dim, delta_c)
    one = {k: c_of[gpd.identity[base]] for k, base in base_of.items()}
    maps[("eta_C", ())] = LinearMap(c_dim, 1, {(e, 0): 1
                                               for e in one.values()})
    maps[("eps_C", ())] = LinearMap(1, c_dim, {
        (0, e): Fraction(1, order[k]) for k, e in one.items()})

    for a in objs:
        t = gpd.hom(base_of[comp_of[a]], a)[0]
        z = LinearMap(dims[("A", a, a)], c_dim, {
            (fi, c_of[gpd.comp[(gpd.inverse[t], gpd.comp[(f, t)])]]): 1
            for f, fi in idx[(a, a)].items()})
        maps[("zip", (a,))] = z
        maps[("cozip", (a,))] = _transpose(z, c_scale)

    return KFA(colors=tuple(objs), dims=dims, basis=basis, maps=maps,
               name="groupoid")


def _group_groupoid(elements, mul, name, objects) -> Groupoid:
    """The groupoid on ``objects``, all isomorphic, whose morphisms s -> t
    are named ``name(g, s, t)``, one per group element g, composing as
    ``mul`` multiplies the elements."""
    ms = {(g, s, t): name(g, s, t)
          for s in objects for t in objects for g in elements}
    comp = {(ms[f], ms[h]): ms[(mul(f[0], h[0]), h[1], f[2])]
            for f in ms for h in ms if h[2] == f[1]}
    return Groupoid(objects, {n: k[1:] for k, n in ms.items()}, comp)


def _cyclic(n: int, objects) -> Groupoid:
    """Z/n on ``objects``; ``g{k}:{s}>{t}`` is the element k as s -> t."""
    return _group_groupoid(range(n), lambda g, h: (g + h) % n,
                           lambda g, s, t: f"g{g}:{s}>{t}", objects)


def _two_comps() -> Groupoid:
    za, zb = _cyclic(2, ("a",)), _cyclic(1, ("b",))
    return Groupoid(("a", "b"), {**za.morphisms, **zb.morphisms},
                    {**za.comp, **zb.comp})


# The builtin groupoids, each built when first asked for.
_GROUPOIDS = {
    "trivial_pair": lambda: _cyclic(1, ("a", "b")),
    "z2": lambda: _cyclic(2, ("a",)),
    "pair_z2": lambda: _cyclic(2, ("a", "b")),
    "s3": lambda: _group_groupoid(
        list(permutations(range(3))), lambda p, q: tuple(p[i] for i in q),
        lambda p, s, t: "p" + "".join(map(str, p)), ("x",)),
    "two_comps": _two_comps,
}


def builtin_groupoid_example(which: str = "pair_z2") -> KFA:
    """The algebra of the builtin groupoid ``which``: ``trivial_pair``,
    ``z2``, ``pair_z2``, ``s3`` or ``two_comps``."""
    if which not in _GROUPOIDS:
        raise OcbordError(f"unknown groupoid example {which!r}")
    alg = groupoid_algebra(_GROUPOIDS[which]())
    alg.name = f"groupoid-{which}"
    return alg


BUILTIN_ALGEBRAS = ("matrix1", "matrix2", "matrix3",
                    *(f"groupoid-{which}" for which in _GROUPOIDS))


@lru_cache(maxsize=16)
def builtin_algebra(name: str) -> KFA:
    """The builtin algebra called ``name`` (see :data:`BUILTIN_ALGEBRAS`;
    ``matrixN`` for N from 1 to 64, whose A has dimension N**2 up to
    ``EVAL_DIM_CAP``).  Built once per name and shared by every caller in
    the process: treat it as read-only."""
    m = re.fullmatch(r"matrix([1-9][0-9]?)", name)
    if m and int(m[1]) ** 2 <= EVAL_DIM_CAP:
        return builtin_matrix_example(int(m[1]))
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

    def named(obj, key_of, problem, value):
        out = unique(((re.sub(r"\s*([\[\],])\s*", r"\1", k), v)
                      for k, v in obj.items()), repr)
        keys = {name: key_of(name) for name in out}
        if bad := [name for name, key in keys.items() if key is None]:
            raise OcbordError(f"{path}: " + problem.format(min(bad)))
        return {keys[name]: value(v) for name, v in out.items()}

    def map_key(name):      # read as kind[colours], the way _map_name writes
        kind, _, cols = name.partition("[")
        key = (kind, tuple(cols[:-1].split(",")) if cols else ())
        if (GEN_ARITY.get(kind) == len(key[1]) and palette.issuperset(key[1])
                and _map_name(key) == name):
            return key

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
            # "[", ",", "]" or a blank in a colour makes names ambiguous
            for a in colors:
                if a != DEFAULT_COLOR and not re.fullmatch(_NAME, a):
                    raise ValueError(f"bad colour name {a!r}")
            palette = set(colors)
            alg = KFA(colors=colors, dims={}, basis={}, maps={}, name=title)
            spaces = alg._space_names()
            alg.dims = named(doc["dims"], spaces.get, "bad space name {!r}",
                             dim)
            alg.basis = named(doc["basis"], spaces.get,
                              "basis for undeclared space {}", array)
            if len(alg.dims) == len(spaces):  # k**3 maps wait for k*k spaces
                alg.maps = named(doc["maps"], map_key, "bad map name {!r}",
                                 matrix)
    except (KeyError, ValueError, TypeError, AttributeError,
            ZeroDivisionError) as e:
        raise OcbordError(f"{path}: malformed algebra file: {e}") from None
    problems = problems or alg.validate_structure()
    if problems:
        raise OcbordError(f"{path}: " + "; ".join(problems[:5]))
    return alg
