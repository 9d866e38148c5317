"""Rule catalog, match/apply semantics, move traces, and the normalizer."""

import random
import re
import sys
from pathlib import Path

import pytest

from ocbord.diagram import (GEN_ARITY, DiagramTerm, Gen, Id, OcbordError,
                            PortGraph, Seg, graph_eq, syntactic_eq,
                            to_port_graph)
from ocbord.dsl import parse, parse_file
from ocbord.invariants import invariants, profile_key
from ocbord.normalform import normal_form
import ocbord.rewrite as rewrite
from ocbord.rewrite import (
    MoveTrace,
    TraceError,
    _CombView,
    _DELTA_C,
    _MU_A,
    _Recorder,
    _comult_two_cozips,
    apply_match,
    check_trace,
    find_matches,
    normalize,
    normalize_with_trace,
    parse_move,
    parse_trace,
    read_trace,
    rules,
    trace_text,
    write_trace,
)

from helpers import (all_pairs_splice_is_acyclic, graph_apply, heights,
                     ladder_gen, product_find_matches, random_term, recolor,
                     window_strip)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _random_hosts(seed: int, count: int) -> list:
    rng = random.Random(seed)
    hosts = [to_port_graph(random_term(rng, max_gens=12, colors=("*", "a"),
                                       connected=False))
             for _ in range(count)]
    return hosts + [to_port_graph(r.side(rev)) for r in rules().values()
                    for rev in (False, True)]


def _acceptance_sample() -> list:
    # the 500 criterion-3 diagrams of test_acceptance.py
    rng = random.Random(314159)
    return [random_term(rng, max_gens=25, max_width=6) for _ in range(500)]


def test_catalog_shape():
    cat = rules()
    assert len(cat) >= 30
    groups = {r.group for r in cat.values()}
    assert {"symmFrobA", "commFrobC", "zipHom", "knowledge", "cozipDual",
            "cardy", "derived"} <= groups
    for rid, r in cat.items():
        assert r.id == rid and r.law
        assert r.lhs.source == r.rhs.source
        assert r.lhs.target == r.rhs.target


def test_rules_preserve_profile():
    for rid, r in sorted(rules().items()):
        assert profile_key(invariants(r.lhs)) \
            == profile_key(invariants(r.rhs)), rid


def test_every_rule_round_trips():
    for rid, r in sorted(rules().items()):
        for rev in (False, True):
            host = to_port_graph(r.side(rev))
            other = to_port_graph(r.side(not rev))
            ms = find_matches(host, rid, rev)
            assert ms, f"{rid} does not match its own side (rev={rev})"
            hits = [m for m in ms
                    if graph_eq(apply_match(host, m), other)]
            assert hits, f"{rid} (rev={rev}) never rewrites to the far side"
            out = apply_match(host, hits[0])
            back = [m for m in find_matches(out, rid, not rev)
                    if graph_eq(apply_match(out, m), host)]
            assert back, f"{rid} (rev={rev}) cannot be undone"


def test_find_matches_is_deterministic_and_pinnable():
    g = to_port_graph(parse_file(CORPUS / "figure1.ocd"))
    ms1 = find_matches(g, "assoc_A", False)
    ms2 = find_matches(g, "assoc_A", False)
    assert ms1 == ms2 == sorted(ms1, key=lambda m: (m.nodes, m.src_prod,
                                                    m.tgt_cons))
    if ms1:
        pinned = find_matches(g, "assoc_A", False, at=ms1[0].nodes)
        assert pinned and all(m.nodes == ms1[0].nodes for m in pinned)


def test_anchored_search_equals_the_product_search():
    rng = random.Random(43)
    hosts = [to_port_graph(random_term(rng, max_gens=10, colors=("*", "a"),
                                       connected=False)) for _ in range(12)]
    hosts += [to_port_graph(r.side(rev)) for r in rules().values()
              for rev in (False, True)]
    for rid in sorted(rules()):
        for rev in (False, True):
            for g in hosts:
                assert find_matches(g, rid, rev) \
                    == product_find_matches(g, rid, rev), (rid, rev)


def test_first_site_is_the_first_of_all_sites():
    # random hosts, and for each rule direction that adds a port pair, a
    # site that closes a loop beside one that does not
    hosts = _random_hosts(44, 30)
    hosts += [_beside(_loop_host(rid, rev),
                      to_port_graph(recolor(rules()[rid].side(rev))))
              for rid in sorted(rules()) for rev in (False, True)
              if rewrite._kernel(rid, rev).checks]
    for rid in sorted(rules()):
        for rev in (False, True):
            for g in hosts:
                assert find_matches(g, rid, rev, first=True) \
                    == find_matches(g, rid, rev)[:1], (rid, rev)


def _loop_host(rid: str, rev: bool) -> PortGraph:
    """The rule side in colour ``*`` with the one port pair (i, j) that
    the other side adds joined outside it: target j runs through zips and
    cozips back into source i, so splicing at the side closes a loop."""
    P = to_port_graph(recolor(rules()[rid].side(rev)))
    (i, j), = rewrite._kernel(rid, rev).checks
    h = PortGraph([s for k, s in enumerate(P.source) if k != i],
                  [s for k, s in enumerate(P.target) if k != j])
    for n, gen in P.nodes.items():
        h.add_node(gen, n)

    def port(ep):
        if ep[0] in ("src", "tgt"):
            return (ep[0], ep[1] - (ep[1] > (i if ep[0] == "src" else j)))
        return ep

    for prod, cons in P.wires():
        if prod != ("src", i) and cons != ("tgt", j):
            h.wire(port(prod), port(cons))
    seq = (["cozip"] if P.target[j].is_interval else []) \
        + (["zip"] if P.source[i].is_interval else []) or ["zip", "cozip"]
    end = P.in_to_out[("tgt", j)]
    for kind in seq:
        n = h.add_node(Gen(kind, ("*",)))
        h.wire(end, ("in", n, 0))
        end = ("out", n, 0)
    h.wire(end, P.out_to_in[("src", i)])
    h.validate()
    return h


def _beside(a: PortGraph, b: PortGraph) -> PortGraph:
    """``a`` and ``b`` side by side: ``b``'s node ids and ports follow."""
    g = PortGraph(a.source + b.source, a.target + b.target)
    for x, off in ((a, (0, 0, 0)), (b, (len(a.source), len(a.target),
                                       a._next))):
        def shift(ep):
            if ep[0] in ("src", "tgt"):
                return (ep[0], ep[1] + off[ep[0] == "tgt"])
            return (ep[0], ep[1] + off[2], ep[2])
        for n, gen in x.nodes.items():
            g.add_node(gen, n + off[2])
        for prod, cons in x.wires():
            g.wire(shift(prod), shift(cons))
    g.validate()
    return g


def test_a_splice_at_a_new_pair_that_closes_a_loop_is_refused():
    # the 12 rule directions that add a port pair, each at its own side
    # with that pair joined outside
    added = [(rid, rev) for rid in sorted(rules()) for rev in (False, True)
             if rewrite._kernel(rid, rev).checks]
    assert len(added) == 12
    for rid, rev in added:
        h = _loop_host(rid, rev)
        nodes = tuple(range(len(rewrite._kernel(rid, rev).kinds)))
        assert rewrite._bind(h, rewrite._kernel(rid, rev), nodes), rid
        assert find_matches(h, rid, rev, at=nodes) == [], (rid, rev)


def test_new_pair_splice_check_equals_the_all_pairs_check():
    # every site before its splice check, on random hosts, on loop hosts
    # and on the acceptance sample, in both directions of every rule
    hosts = _random_hosts(45, 40)
    hosts += [_loop_host(rid, rev) for rid in sorted(rules())
              for rev in (False, True) if rewrite._kernel(rid, rev).checks]
    hosts += [to_port_graph(t) for t in _acceptance_sample()]
    kernels = [(rid, rev, rewrite._kernel(rid, rev))
               for rid in sorted(rules()) for rev in (False, True)]
    sites = refused = 0
    for g in hosts:
        for rid, rev, K in kernels:
            for nodes, sp, tc in rewrite._sites(g, K, None):
                ok = rewrite._splice_is_acyclic(g, rid, rev, sp, tc)
                assert ok == all_pairs_splice_is_acyclic(g, rid, rev, sp,
                                                         tc), (rid, rev, nodes)
                sites += 1
                refused += not ok
    assert sites > 10000 and refused > 10


def test_a_side_with_two_new_pairs_is_refused(monkeypatch):
    # each source circle merges into its own target with one half of a
    # split unit; merging both then splitting links each source to both
    # targets, two pairs that one check each would not see together
    two = parse("source O, O\nid:O | eta_C | id:O\nid:O | Delta_C | id:O\n"
                "mu_C | mu_C\n")
    one = parse("source O, O\nmu_C\nDelta_C\n")
    rid = "test_two_new_pairs"
    monkeypatch.setitem(rules(), rid, rewrite.Rule(rid, "test", "-", two,
                                                   one))
    with pytest.raises(OcbordError, match="two or more new port pairs"):
        rewrite._kernel(rid, False)
    assert rewrite._kernel(rid, True).checks == ()


def test_kernel_splice_equals_the_graph_splice():
    # every match splices as the uncompiled graph_apply does: the same
    # new node ids, generators and wire maps, in the same order
    rng = random.Random(43)
    hosts = [to_port_graph(random_term(rng, max_gens=10, colors=("*", "a"),
                                       connected=False)) for _ in range(12)]
    hosts += [to_port_graph(r.side(rev)) for r in rules().values()
              for rev in (False, True)]
    spliced = 0
    for rid in sorted(rules()):
        for rev in (False, True):
            for g in hosts:
                for m in find_matches(g, rid, rev):
                    h, ref = g.copy(), g.copy()
                    assert rewrite._apply_full(h, m) == graph_apply(ref, m)
                    assert list(h.nodes.items()) == list(ref.nodes.items())
                    assert list(h.out_to_in.items()) \
                        == list(ref.out_to_in.items())
                    assert list(h.in_to_out.items()) \
                        == list(ref.in_to_out.items())
                    spliced += 1
    assert spliced > 1000


def test_search_binds_once_per_anchor(monkeypatch):
    # 60 closed units each feeding the left input of a closed product: a
    # product search would bind 60 x 60 pairs
    n = 60
    units = (Gen("eta_C"), Id(Seg.O())) * n
    g = to_port_graph(DiagramTerm((Seg.O(),) * n,
                                  (units, (Gen("mu_C"),) * n)))
    calls = []
    bind = rewrite._bind

    def counting(*args):
        calls.append(args)
        return bind(*args)

    monkeypatch.setattr(rewrite, "_bind", counting)
    ms = find_matches(g, "unitL_C")
    monkeypatch.undo()
    assert len(ms) == n
    assert len(calls) <= n


def test_check_trace_replays_in_place(monkeypatch):
    _, tr = normalize_with_trace(parse_file(CORPUS / "figure1.ocd"))
    assert len(tr.moves) > 10
    copies = []
    copy = PortGraph.copy

    def counting(self):
        copies.append(self)
        return copy(self)

    monkeypatch.setattr(PortGraph, "copy", counting)
    assert check_trace(tr)
    monkeypatch.undo()
    assert copies == []


def test_handle_is_not_a_frobenius_redex():
    # both legs of the pair close onto each other, so the match frontier
    # would sit on matched nodes; convexity forbids it
    g = to_port_graph(parse_file(CORPUS / "torus.ocd"))
    assert find_matches(g, "frobL_C", False) == []
    assert find_matches(g, "frobR_C", False) == []


def test_a_splice_that_closes_a_loop_is_not_a_match():
    # frobR_C's lhs on nodes 0, 2 binds the output of mu_C 1 to source 0
    # and input 0 of that mu_C to target 1; mu_C;Delta_C would join the
    # two, a loop through node 1
    g = to_port_graph(parse("source O, O\nDelta_C | id:O\nid:O | mu_C\n"
                            "cross(O, O)\nmu_C\n"))
    assert find_matches(g, "frobR_C") == []
    assert find_matches(g, "frobR_C", at=(0, 2)) == []
    assert rewrite._kernel("frobR_C", False).links == (
        frozenset({0, 1}), frozenset({0, 1}))


def _kernel_of(monkeypatch, rid, text):
    # the side's pattern is cached under the rule id, so each test names
    # its own
    side = parse(text)
    monkeypatch.setitem(rules(), rid, rewrite.Rule(rid, "test", "-", side,
                                                   side))
    return rewrite._kernel(rid, False)


def test_a_bare_wire_beside_a_node_is_rejected(monkeypatch):
    # only an empty side holds a bare wire, so a search never has to place
    # one beside matched nodes
    with pytest.raises(OcbordError, match="bare wire"):
        _kernel_of(monkeypatch, "test_bare_wire_beside_a_node",
                   "source O, O\nid:O | eps_C\n")


def test_a_disconnected_side_is_rejected(monkeypatch):
    # the kernel's steps reach every node from node 0, so a search can
    # place a whole side from one anchor
    with pytest.raises(OcbordError, match="has a disconnected side"):
        _kernel_of(monkeypatch, "test_disconnected_side",
                   "source O, O\neps_C | eps_C\n")


def test_exhaust_caps_the_moving_steps():
    def moving(k):
        calls = []

        def step(rec):
            calls.append(rec)
            return len(calls) <= k
        return step, calls

    k = 5
    step, calls = moving(k)
    rewrite._exhaust(None, step, k, "counting")
    assert len(calls) == k + 1
    step, calls = moving(k)
    with pytest.raises(rewrite.StrategyStuck,
                       match="counting did not terminate"):
        rewrite._exhaust(None, step, k - 1, "counting")
    assert len(calls) == k


def test_apply_match_leaves_host_untouched():
    g = to_port_graph(parse_file(CORPUS / "figure1.ocd"))
    snapshot = sorted(g.nodes.items())
    wires = sorted(g.wires())
    ms = next(m for rid in sorted(rules()) for rev in (False, True)
              for m in find_matches(g, rid, rev))
    h = apply_match(g, ms)
    assert h is not g
    g.validate()
    assert sorted(g.nodes.items()) == snapshot
    assert sorted(g.wires()) == wires


def test_random_rewrites_preserve_profile():
    rng = random.Random(41)
    rule_ids = sorted(rules())
    for _ in range(25):
        t = random_term(rng, max_gens=14, colors=("*", "a"),
                        connected=False)
        g = to_port_graph(t)
        base = profile_key(invariants(g))
        for _ in range(30):
            rid = rng.choice(rule_ids)
            rev = rng.random() < 0.5
            ms = find_matches(g, rid, rev) or find_matches(g, rid, not rev)
            if ms:
                g = apply_match(g, rng.choice(ms))
        g.validate()
        assert profile_key(invariants(g)) == base


# hand-written shapes: units and counits alone, closed bubbles, a lone
# comultiplication, a crossing, and blocks that meet a zip
HAND_CASES = [
    "source I[*,*]\n",
    "source O\n",
    "source I[*,*], I[*,*]\nmu_A\ncozip\neps_C\n",
    "source I[*,*], I[*,*]\nDelta_A | id:I[*,*]\nid:I[*,*] | mu_A\n",
    "source\neta_A\neps_A\n",
    "source\neta_C\nDelta_C\nmu_C\neps_C\n",
    "source O, O\nmu_C\nDelta_C\n",
    "source I[*,*]\ncozip\nDelta_C\neps_C | id:O\n",
    "source I[*,*], I[*,*], I[*,*]\nmu_A | id:I[*,*]\nmu_A\ncozip\n",
    "source I[*,*]\nDelta_A\ncozip | cozip\nmu_C\n",
    "source I[*,*]\nDelta_A\nmu_A\nDelta_A\nmu_A\neps_A\n",
    "source\neta_A\nDelta_A\ncozip | cozip\nzip | id:O\ncozip | id:O\n"
    "mu_C\n",
    "source I[*,*]\nDelta_A\n",
    "source O\nzip\n",
    "source I[*,*], I[*,*]\ncross(I[*,*], I[*,*])\n",
    "source O, I[*,*]\nid:O | Delta_A\nzip | id:I[*,*] | id:I[*,*]\n"
    "mu_A | id:I[*,*]\nmu_A\ncozip\n",
]


def test_normalize_agrees_with_normal_form():
    rng = random.Random(42)
    terms = [parse(text) for text in HAND_CASES]
    terms += [random_term(rng, max_gens=20, colors=("*", "a", "b"),
                          connected=False) for _ in range(80)]
    for t in terms:
        nf, tr = normalize_with_trace(t)
        assert syntactic_eq(nf, normal_form(t))
        assert check_trace(tr)
        assert syntactic_eq(normalize(t), nf)


# A 19-generator diagram whose comultiplication legs meet one cozip with
# many leaves in between.  The absorption loop once bounded its steps by
# the shrinking current leaf count and gave up halfway.
LEG_ABSORPTION = """\
colors a, b
source I[a,b]
eta_A[a] | id:I[a,b]
mu_A[a,a,b]
eta_C | id:I[a,b]
cross(O,I[a,b])
id:I[a,b] | zip[a]
cross(I[a,b],I[a,a])
cozip[a] | id:I[a,b]
zip[b] | id:I[a,b]
id:I[b,b] | Delta_A[a,b,b]
Delta_A[b,a,b] | id:I[a,b] | id:I[b,b]
id:I[b,a] | id:I[a,b] | id:I[a,b] | eps_A[b]
id:I[b,a] | cross(I[a,b],I[a,b])
id:I[b,a] | id:I[a,b] | Delta_A[a,a,b]
Delta_A[b,b,a] | id:I[a,b] | id:I[a,a] | id:I[a,b]
id:I[b,b] | id:I[b,a] | id:I[a,b] | cross(I[a,a],I[a,b])
Delta_A[b,b,b] | id:I[b,a] | id:I[a,b] | id:I[a,b] | id:I[a,a]
id:I[b,b] | mu_A[b,b,a] | id:I[a,b] | id:I[a,b] | id:I[a,a]
Delta_A[b,a,b] | id:I[b,a] | id:I[a,b] | id:I[a,b] | id:I[a,a]
id:I[b,a] | id:I[a,b] | id:I[b,a] | id:I[a,b] | id:I[a,b] | eps_A[a]
id:I[b,a] | id:I[a,b] | id:I[b,a] | Delta_A[a,a,b] | id:I[a,b]
id:I[b,a] | id:I[a,b] | id:I[b,a] | id:I[a,a] | cross(I[a,b],I[a,b])
id:I[b,a] | id:I[a,b] | mu_A[b,a,a] | id:I[a,b] | id:I[a,b]
id:I[b,a] | mu_A[a,b,a] | id:I[a,b] | id:I[a,b]
Delta_A[b,a,a] | id:I[a,a] | id:I[a,b] | id:I[a,b]
"""


def test_leg_absorption_runs_to_the_end():
    t = parse(LEG_ABSORPTION)
    nf, tr = normalize_with_trace(t)
    assert syntactic_eq(nf, normal_form(t))
    assert check_trace(parse_trace(trace_text(tr)))


def test_heights_on_a_long_chain():
    # 3000 nodes in one chain, deeper than the interpreter's recursion limit
    zz = ((Gen("zip", ("*",)),), (Gen("cozip", ("*",)),))
    g = to_port_graph(DiagramTerm((Seg.O(),), zz * 1500))
    assert heights(g) == {n: 3000 - n for n in range(3000)}


def test_delta_pick_on_a_deep_strip():
    # 1500 windows in a row: the cone of the top Delta_A is 3000 deep
    g = to_port_graph(window_strip(1500))
    deltas = rewrite._of_kind(g, "Delta_A")
    hs = heights(g)
    assert rewrite._least_delta(_Recorder(g), deltas) \
        == min(deltas, key=lambda n: (hs[n], n)) == 2998
    # one window over 3000 nodes with no Delta_A: all of them get counts
    star = ("*", "*", "*")
    g = to_port_graph(DiagramTerm((Seg.I(),), (
        (Gen("Delta_A", star),), (Gen("mu_A", star),))
        + ((Gen("cozip", ("*",)),), (Gen("zip", ("*",)),)) * 1500))
    rec = _Recorder(g)
    assert rewrite._least_delta(rec, [0]) == 0
    assert rec.paths == {n: 3002 - n for n in range(1, 3002)}


@pytest.fixture(scope="module")
def strategy_audit():
    """Normalize every input of ``scripts/trace_digest.py``; after each
    move, compare ``_of_kind`` with a scan of the nodes, and at each
    Delta_A pick of ``_phase_open``, the pick and every kept path count
    with the whole-graph oracle's.  Returns the counts, the mismatches
    and the script's digest lines of those inputs."""
    if str(ROOT / "scripts") not in sys.path:
        sys.path.insert(0, str(ROOT / "scripts"))
    import helpers
    import trace_digest
    audit = {"moves": 0, "picks": 0, "kinds": [], "bad picks": []}
    apply, least_delta = _Recorder.apply, rewrite._least_delta
    label = None

    def audited_apply(rec, m):
        new = apply(rec, m)
        scan = {kind: [] for kind in GEN_ARITY}
        for n, gen in rec.g.nodes.items():
            scan[gen.kind].append(n)
        if any(rewrite._of_kind(rec.g, kind) != sorted(ns)
               for kind, ns in scan.items()):
            audit["kinds"].append((label, audit["moves"]))
        audit["moves"] += 1
        return new

    def audited_least_delta(rec, deltas):
        d = least_delta(rec, deltas)
        hs = heights(rec.g)
        if d != min(deltas, key=lambda n: (hs[n], n)) \
                or any(hs.get(n) != v for n, v in rec.paths.items()):
            audit["bad picks"].append((label, audit["picks"]))
        audit["picks"] += 1
        return d

    def outcomes(inputs):
        nonlocal label
        for label, term in inputs:
            try:
                trace = normalize_with_trace(term)[1]
            except OcbordError as e:
                trace = e       # the digest records it; moves so far count
            yield label, trace

    gen = ladder_gen()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Recorder, "apply", audited_apply)
        mp.setattr(rewrite, "_least_delta", audited_least_delta)
        audit["digests"] = list(trace_digest.digest_lines(
            outcomes(trace_digest._inputs(helpers, gen, parse))))
        # a walk where a move lands below nodes whose counts were kept, so
        # a move that forgot only its own nodes' counts would leave stale
        # ones; it is not among the digested inputs
        list(outcomes([("ladder 36 s53",
                        parse(gen.ladder_walk(36, "s53").text()))]))
    return audit


def test_kind_index_reads_as_a_scan_after_every_move(strategy_audit):
    assert strategy_audit["moves"] > 40000
    assert strategy_audit["kinds"] == []


def test_delta_pick_equals_the_whole_graph_oracle(strategy_audit):
    assert strategy_audit["picks"] > 500
    assert strategy_audit["bad picks"] == []


def test_traces_match_the_pinned_digest(strategy_audit):
    # every trace of scripts/trace_digest.py byte for byte, as its total
    assert strategy_audit["digests"][-1] == (
        "fb811cdced911676f19c32f18536950185b8e379477e919bc71777e03a79057a"
        "  total over 868 traces")


def test_tree_leaves_on_a_deep_comb():
    # a 3000-deep left comb of mu_A over 3001 source strips
    n = 3000
    g = PortGraph([Seg.I()] * (n + 1), [Seg.I()])
    left = ("src", 0)
    for k in range(n):
        nid = g.add_node(Gen("mu_A", ("*", "*", "*")))
        g.wire(left, ("in", nid, 0))
        g.wire(("src", k + 1), ("in", nid, 1))
        left = ("out", nid, 0)
    g.wire(left, ("tgt", 0))
    g.validate()
    spine, leaves = _CombView(_Recorder(g), _MU_A, ("tgt", 0)).walk()
    assert leaves == [("src", i) for i in range(n + 1)]
    assert spine == list(range(n - 1, -1, -1))


def test_comb_walk_on_a_deep_split():
    # the mirror image: a 3000-deep Delta_C spine chained along first
    # legs, walked from the source port it hangs below
    n = 3000
    g = PortGraph([Seg.O()], [Seg.O()] * (n + 1))
    up = ("src", 0)
    for k in range(n):
        nid = g.add_node(Gen("Delta_C", ()))
        g.wire(up, ("in", nid, 0))
        g.wire(("out", nid, 1), ("tgt", n - k))
        up = ("out", nid, 0)
    g.wire(up, ("tgt", 0))
    g.validate()
    spine, leaves = _CombView(_Recorder(g), _DELTA_C, ("src", 0)).walk()
    assert leaves == [("tgt", i) for i in range(n + 1)]
    assert spine == list(range(n))


def test_comb_loops_are_bounded_by_the_input():
    # leg absorption: Delta_A leg 0 straight into a cozip, leg 1 leading
    # a left comb of mu_A over 1001 more strips into a second cozip, so
    # 1001 frobL_A moves
    n = 1001
    star = ("*", "*", "*")
    g = PortGraph([Seg.I()] * (n + 1), [Seg.O(), Seg.O()])
    d = g.add_node(Gen("Delta_A", star))
    cz0 = g.add_node(Gen("cozip", ("*",)))
    g.wire(("src", 0), ("in", d, 0))
    g.wire(("out", d, 0), ("in", cz0, 0))
    g.wire(("out", cz0, 0), ("tgt", 0))
    left = ("out", d, 1)
    for k in range(n):
        m = g.add_node(Gen("mu_A", star))
        g.wire(left, ("in", m, 0))
        g.wire(("src", k + 1), ("in", m, 1))
        left = ("out", m, 0)
    cz1 = g.add_node(Gen("cozip", ("*",)))
    g.wire(left, ("in", cz1, 0))
    g.wire(("out", cz1, 0), ("tgt", 1))
    g.validate()
    rec = _Recorder(g)
    _comult_two_cozips(rec, d, _CombView(rec, _MU_A, ("in", cz0, 0)),
                       _CombView(rec, _MU_A, ("in", cz1, 0)))
    assert [mv.rule for mv in rec.moves] == ["frobL_A"] * n \
        + ["comul_to_cozips"]
    g.validate()

    # split reassociation: a right comb of Delta_C with 5003 legs, each
    # first leg to its own target, takes one move per internal node but
    # the last
    n = 5003
    g = PortGraph([Seg.O()], [Seg.O()] * n)
    up = ("src", 0)
    for k in range(n - 1):
        s = g.add_node(Gen("Delta_C", ()))
        g.wire(up, ("in", s, 0))
        g.wire(("out", s, 0), ("tgt", k))
        up = ("out", s, 1)
    g.wire(up, ("tgt", n - 1))
    g.validate()
    rec = _Recorder(g)
    rewrite._phase_canonical(rec)
    assert [mv.rule for mv in rec.moves] == ["coassoc_C"] * (n - 2)
    spine, leaves = _CombView(rec, _DELTA_C, ("src", 0)).walk()
    assert len(spine) == n - 1
    assert leaves == [("tgt", i) for i in range(n)]


def test_normalize_fixpoint_needs_no_moves():
    rng = random.Random(43)
    for _ in range(20):
        t = random_term(rng, max_gens=15)
        nf, _ = normalize_with_trace(t)
        nf2, tr2 = normalize_with_trace(nf)
        assert syntactic_eq(nf2, nf)
        assert tr2.moves == ()


def test_trace_text_round_trip():
    t = parse_file(CORPUS / "figure1.ocd")
    _, tr = normalize_with_trace(t)
    assert len(tr.moves) > 0
    text = trace_text(tr)
    lines = text.splitlines()
    assert lines[0] == "ocbord-trace 1"
    assert "initial-begin" in lines and "final-begin" in lines
    back = parse_trace(text)
    assert trace_text(back) == text
    assert check_trace(back)


def test_trace_file_round_trip(tmp_path):
    t = parse_file(CORPUS / "mixed_genus.ocd")
    _, tr = normalize_with_trace(t)
    p = tmp_path / "moves.log"
    write_trace(tr, p)
    back = read_trace(p)
    assert trace_text(back) == trace_text(tr)
    assert check_trace(back)


def test_tampered_rule_name_is_rejected():
    _, tr = normalize_with_trace(parse_file(CORPUS / "figure1.ocd"))
    m0 = tr.moves[0]
    wrong = "assoc_A" if m0.rule != "assoc_A" else "assoc_C"
    bad = MoveTrace(tr.initial,
                    (m0._replace(rule=wrong),) + tr.moves[1:],
                    tr.final)
    with pytest.raises(TraceError):
        check_trace(bad)


def test_dropped_move_is_rejected():
    _, tr = normalize_with_trace(parse_file(CORPUS / "figure1.ocd"))
    bad = MoveTrace(tr.initial, tr.moves[1:], tr.final)
    with pytest.raises(TraceError):
        check_trace(bad)


def test_wrong_final_is_rejected():
    _, tr = normalize_with_trace(parse_file(CORPUS / "figure1.ocd"))
    bad = MoveTrace(tr.initial, tr.moves, tr.initial)
    with pytest.raises(TraceError):
        check_trace(bad)


def test_move_line_with_bad_numbers_is_a_trace_error():
    for line in ("x assoc_A fwd 1,2 s0 t0", "1 assoc_A fwd a,b s0 t0"):
        with pytest.raises(TraceError):
            parse_move(line)
    _, tr = normalize_with_trace(parse_file(CORPUS / "strip_hole.ocd"))
    text = trace_text(tr)
    first = next(ln for ln in text.splitlines() if ln.startswith("1 "))
    with pytest.raises(TraceError):
        parse_trace(text.replace(first, "one" + first[1:], 1))


def test_move_at_a_huge_node_id_is_rejected():
    _, tr = normalize_with_trace(parse_file(CORPUS / "strip_hole.ocd"))
    mv = tr.moves[0]._replace(nodes=(10 ** 30,) + tr.moves[0].nodes[1:])
    text = trace_text(MoveTrace(tr.initial, (mv,) + tr.moves[1:], tr.final))
    with pytest.raises(TraceError):
        check_trace(parse_trace(text))


def test_a_bare_wire_move_replays_at_its_recorded_wire():
    # the bare-wire side of unitL_A matches both wires; the endpoints
    # pick one, and a pair that is no host wire, or a step naming a node
    # the side does not have, is refused
    def log(site):
        return ("ocbord-trace 1\ninitial-begin\nsource I, I\n"
                "id:I | id:I\ninitial-end\n"
                f"1 unitL_A rev {site}\nfinal-begin\nsource I, I\n"
                "eta_A | id:I | id:I\nmu_A | id:I\nfinal-end\n")

    assert check_trace(parse_trace(log("- s0 t0")))
    for site in ("- s1 t0", "- s0 t1", "0 s0 t0"):
        with pytest.raises(TraceError, match=re.escape(
                "step 1: unitL_A does not match at the recorded site")):
            check_trace(parse_trace(log(site)))


def test_malformed_trace_text_is_rejected():
    with pytest.raises(TraceError):
        parse_trace("not-a-trace 9\n")
    _, tr = normalize_with_trace(parse_file(CORPUS / "strip_hole.ocd"))
    text = trace_text(tr)
    with pytest.raises(TraceError):
        parse_trace(text.replace("ocbord-trace 1", "ocbord-trace 2", 1))


def _drop(tag):
    return lambda lines: [ln for ln in lines if ln != tag]


def _first_move(change):
    def edit(lines):
        i = lines.index("initial-end") + 1
        lines[i] = " ".join(change(lines[i].split()))
        return lines
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("initial-begin"), "expected 'initial-begin' in move log"),
    (_first_move(lambda f: f[:4] + ["o3"] + f[5:]),
     "bad endpoint 'o3' in move log"),
    (_first_move(lambda f: f[:5]), "bad move line '1 "),
    (_drop("initial-end"), "missing 'initial-end' in move log"),
    (_drop("final-end"), "missing 'final-end' in move log"),
    (_first_move(lambda f: ["2"] + f[1:]), "move steps out of order at '2 "),
    (lambda lines: lines + ["junk"], "trailing junk after move log"),
    (_first_move(lambda f: f[:1] + ["no_such_rule"] + f[2:]),
     "step 1: unknown rule 'no_such_rule'"),
], ids=["no-initial-begin", "endpoint-o3", "five-fields", "no-initial-end",
        "no-final-end", "first-step-2", "trailing-junk", "unknown-rule"])
def test_each_malformed_trace_is_a_trace_error(edit, message):
    _, tr = normalize_with_trace(parse_file(CORPUS / "figure1.ocd"))
    text = "\n".join(edit(trace_text(tr).splitlines())) + "\n"
    with pytest.raises(TraceError, match=re.escape(message)):
        check_trace(parse_trace(text))
