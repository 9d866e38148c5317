"""Tests of the benchmark itself: inputs, output checks, failure counting
and spans.  Run with ``python3 -m pytest perfbench`` from the repository
root."""

import random
import signal

import pytest

import run
import gen
import spans
import speed

ocbord = run.ocbord


@pytest.fixture
def items(tmp_path):
    """Four small desk-style items, two per colour set."""
    rng = random.Random("test-items")
    return [run.make_item(f"{k:03d}", gen.desk_walk(rng, colors, max_gens=8),
                          alg, rng, str(tmp_path))
            for k, (colors, alg) in enumerate(
                [(("*",), "matrix2"), (("a", "b"), "groupoid-pair_z2")] * 2)]


def _pass(items, tmp_path, tracer=None):
    return run.run_pass(items, run.FULL_OPS, 2.0, str(tmp_path), True,
                        tracer)


def _charged(passes, items):
    """Per item ``{kind: s}`` with failures charged 2 s, and the failed
    items."""
    charged, _, bad = run.best_times(passes, len(items), run.FULL_OPS, 2.0)
    return charged, bad


def test_inputs_follow_the_seed():
    a = [w.text() for w, _, _ in run._items("ladder", 7)]
    b = [w.text() for w, _, _ in run._items("ladder", 7)]
    c = [w.text() for w, _, _ in run._items("ladder", 8)]
    assert a == b
    assert a != c
    assert [gen.ladder_walk(n, 7).gens for n in run.LADDER_SIZES] \
        == list(run.LADDER_SIZES)


def test_partners_are_equivalent_and_inequivalent():
    rng = random.Random(3)
    for colors in [("*",), ("a", "b")] * 5:
        w = gen.desk_walk(rng, colors)
        eq, ne = gen.partners(rng, w)
        t = ocbord.parse(w.text())
        assert ocbord.equivalent(t, ocbord.parse(eq.text()))
        assert not ocbord.equivalent(t, ocbord.parse(ne.text()))


def test_strip_is_a_sequence_of_windows():
    t = ocbord.parse(gen.strip(5).text())
    assert gen.strip(5).gens == 10
    assert ocbord.invariants(t).window_count == 5


def test_clean_pass_has_no_failures(items, tmp_path):
    res = _pass(items, tmp_path)
    assert res.attempted == len(items) * 7
    assert (res.failed_ops, res.wrong_ops) == ([], []), res.problems
    assert _charged([res], items)[1] == set()
    again = _pass(items, tmp_path)
    assert run.digest(res, ()) == run.digest(again, ())


def test_wrong_equiv_verdict_is_counted(items, tmp_path, monkeypatch):
    monkeypatch.setattr(ocbord.cli, "equivalent", lambda a, b: True)
    res = _pass(items, tmp_path)
    assert res.wrong_ops == res.failed_ops
    assert len(res.failed_ops) == len(items)
    assert all("equiv.ne" in k for k in res.failed_ops)


def test_wrong_matrix_is_counted(items, tmp_path, monkeypatch):
    real = ocbord.cli.evaluate
    calls = []

    def bumped(t, alg):
        m = real(t, alg)
        calls.append(1)
        if len(calls) == 1:     # the timed eval of the first item only
            data = dict(m.data)
            data[(0, 0)] = data.get((0, 0), 0) + 1
            return type(m)(m.rows, m.cols, data)
        return m

    monkeypatch.setattr(ocbord.cli, "evaluate", bumped)
    res = _pass(items, tmp_path)
    assert res.wrong_ops == res.failed_ops == ["000 eval"]


def test_escaped_exception_is_a_failure_charged_the_limit(items, tmp_path,
                                                          monkeypatch):
    def deep(x):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(ocbord.cli, "invariants", deep)
    res = _pass(items, tmp_path)
    assert res.wrong_ops == []
    assert len(res.failed_ops) == len(items)
    charged, bad = _charged([res], items)
    assert all(d["invariants"] == 2.0 for d in charged)
    assert bad == set(range(len(items)))


def test_failed_operation_is_not_repeated_and_keeps_its_charge(
        items, tmp_path, monkeypatch):
    def deep(x):
        raise RecursionError("maximum recursion depth exceeded")

    first = _pass(items, tmp_path)
    monkeypatch.setattr(ocbord.cli, "invariants", deep)
    failing = _pass(items, tmp_path)
    monkeypatch.undo()
    later = run.run_pass(items, run.FULL_OPS, 2.0, str(tmp_path), False,
                         skip=set(failing.failed_ops))
    assert later.attempted == first.attempted - len(items)
    assert later.failed_ops == []
    assert not any("invariants" in k for k in later.op_s)
    charged, measured, bad = run.best_times([failing, later], len(items),
                                            run.FULL_OPS, 2.0, scale=3.0)
    assert bad == set(range(len(items)))
    assert all(d["invariants"] == 2.0 for d in charged)
    for idx, d in enumerate(charged):
        key = f"{idx:03d} check"
        assert d["check"] == pytest.approx(
            3.0 * (failing.op_s[key][2] + later.op_s[key][2]) / 2)
        assert measured[idx] > d["check"]
    charged, bad = _charged([first, later], items)
    assert bad == set()
    for idx, d in enumerate(charged):
        assert d["invariants"] == first.op_s[f"{idx:03d} invariants"][2]


def test_probe_samples_spread_over_the_pass(items, tmp_path):
    probe = speed.Probe()
    res = run.run_pass(items, run.FULL_OPS, 2.0, str(tmp_path), True,
                       probe=probe)
    ops = sum(dt for _, _, dt in res.op_s.values())
    assert len(probe.times) == 1 + int(ops / run.REF_EVERY) \
        or abs(len(probe.times) - 1 - ops / run.REF_EVERY) < 2
    assert probe.scale() == pytest.approx(
        speed.REF_S * len(probe.times) / sum(probe.times))


def test_timeout_is_a_failure(items, tmp_path, monkeypatch):
    def slow(*args, **kwargs):
        while True:
            pass

    monkeypatch.setattr(ocbord, "normal_form", slow)
    old = signal.signal(signal.SIGALRM, run._alarm)
    try:
        res = run.run_pass(items[:1], ("normal_form",), 0.2, str(tmp_path),
                           True)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert len(res.failed_ops) == 1
    assert "OpTimeout" in res.problems[0]


def test_tracer_wraps_every_namespace_and_restores(items, tmp_path):
    tracer = spans.Tracer()
    parse = ocbord.dsl.parse
    tracer.install()
    try:
        assert ocbord.cli.parse is not parse
        assert ocbord.rewrite.parse is ocbord.cli.parse
        assert ocbord.parse is ocbord.cli.parse
        res = _pass(items, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert ocbord.cli.parse is parse and ocbord.rewrite.parse is parse
    names = {s[2] for s in tracer.spans}
    assert {"cli.run", "dsl.parse", "rewrite.find_matches.search",
            "rewrite.find_matches.pinned", "rewrite.check_trace",
            "tqft.evaluate"} <= names
    own = spans.self_times(tracer.spans)
    assert min(own) > -1e-9
    roots = sum(s[4] - s[3] for s in tracer.spans if s[1] is None)
    assert sum(own) == pytest.approx(roots)
    assert roots <= res.wall


def test_self_times_and_growth():
    spans_ = [[0, None, "a", 0.0, 10.0, 0, False],
              [1, 0, "b", 1.0, 4.0, 0, False],
              [2, 1, "c", 2.0, 3.0, 0, False],
              [3, 0, "b", 5.0, 6.0, 0, False]]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]
    assert spans.growth([(10, 3.0), (20, 12.0), (40, 48.0)]) \
        == pytest.approx(2.0)
    assert spans.growth([(10, 1.0)]) == 0.0


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == pytest.approx(90.0)
