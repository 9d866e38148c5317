"""Benchmark for ocbord: time to verdict of the ``ocbord`` CLI and of the
trace verifier on seeded workloads, plus per-module spans in a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 32 --trace 0

The benchmark is one process with one thread and one operation in flight
(a closed loop).  Each operation calls ``ocbord.cli.run(argv)`` in-process
with stdout and stderr captured; ``replay`` calls ``read_trace`` and
``check_trace``, and ``normal_form`` (canon only) calls the API's
``normal_form`` and ``render`` on the parsed input.  Passes over the
workload's diagrams repeat while the timed part of the next one still
fits in ``--seconds`` (at least one pass).  Each operation's time is the
median of its repeats.  ``attempted`` and ``failed`` count distinct
operations, so they do not depend on how many passes fit in the run.

Times are reported at a reference speed of the host (see ``speed.py``):
the run's measured times are scaled by the speed of a fixed stdlib loop
timed between its operations.  The host is shared and its speed swings
by up to a factor of two between runs; the scaled times do not swing
with it, while a change to ``ocbord`` moves them as much as the measured
ones.  Failure charges are not scaled.  The times as measured are
printed too.

Every output is checked outside the timed region, in full on the first
pass; a later pass must give the same output digest.  An operation that
raises, times out or exits non-zero without a verdict is a failure; one
whose verdict, matrix, normal form, exit code or output digest
contradicts the construction of its inputs is also wrong, and makes
``correct`` false.  Both kinds count in ``failed`` and are charged the
workload's per-operation time limit; an operation that failed is not
repeated.

Human-readable lines come first, with every end-to-end metric that
applies to the workload; the last line of stdout is the JSON result,
holding the metrics of ``BENCHMARK.json``.  With ``--trace 1`` the JSON
metrics are the per-layer ones from a traced run (see ``spans.py``), and
the span log of the last traced pass is written to ``perfbench-out/``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")
HERE = os.path.dirname(os.path.abspath(__file__))

sys.path.insert(0, SRC)
try:
    import ocbord
    import ocbord.cli
except ImportError:
    ocbord = None
else:
    import gen
    import spans
    import speed

# Workload shapes.  Desk is the acceptance-gate scale.  Ladder holds
# thirteen walks of 60 to 141 generators, where match search and
# evaluation planning already grow superlinearly; nine share the middle
# size, so that the median diagram is the median of nine random shapes,
# not one shape.  Canon holds eight read-only walks of one size, where
# parse is quadratic, and a deep strip of window_o.  The sizes keep a pass
# within about half a run on a slow host.
DESK_DIAGRAMS = 300
LADDER_SIZES = (60, 80) + (100,) * 9 + (120, 141)
CANON_SIZES = (250,) * 8
CANON_STRIP = 500

FULL_OPS = ("check", "invariants", "normalize", "replay", "eval", "equiv")
READ_OPS = ("check", "invariants", "equiv", "normal_form")
KINDS = {"desk": FULL_OPS, "ladder": FULL_OPS, "canon": READ_OPS}
OP_LIMIT_S = {"desk": 2.0, "ladder": 10.0, "canon": 10.0}
SETUP_RUNS = 11
# Operation time between two reference samples, in seconds.
REF_EVERY = 0.1

# Which end-to-end metric each layer metric should move, and on which
# workload.  normalize_s, replay_s, eval_s, normal_form_s, diagram_tail_s
# and error_rate are printed where they apply but are not in
# BENCHMARK.json, whose metrics must exist on every workload.
LAYER_MAP = {
    "dsl.parse": "check_s, invariants_s, equiv_s, normal_form_s on canon; "
                 "every per-operation metric on desk; replay_s on ladder; "
                 "setup_s",
    "dsl.render": "normalize_s, normal_form_s",
    "diagram.from_port_graph": "normal_form_s on canon; normalize_s on "
                               "ladder",
    "diagram.to_port_graph": "normalize_s, replay_s",
    "diagram.graph_eq": "normalize_s, replay_s",
    "invariants.invariants": "invariants_s, equiv_s on canon; errors: "
                             "error_rate on canon",
    "invariants.equivalent": "equiv_s",
    "normalform.normal_form": "normal_form_s on canon; normalize_s on ladder",
    "rewrite.find_matches.search": "normalize_s on ladder",
    "rewrite.normalize_with_trace": "normalize_s on ladder",
    "rewrite.moves": "normalize_s on ladder",
    "rewrite.write_trace": "normalize_s",
    "rewrite.find_matches.pinned": "replay_s on ladder and desk",
    "rewrite.apply_match": "replay_s on ladder and desk",
    "rewrite.read_trace": "replay_s",
    "rewrite.parse_trace": "replay_s on ladder and desk",
    "rewrite.check_trace": "replay_s on ladder and desk",
    "tqft.evaluate": "eval_s on ladder",
    "tqft.builtin_algebra": "setup_s, eval_s on desk",
    "cli.run": "every per-operation metric on desk",
}

E2E_UNITS = {
    "setup_s": "s", "diagrams_per_s": "1/s", "diagram_p50_s": "s",
    "check_s": "s", "invariants_s": "s", "equiv_s": "s",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation overruns its time limit.

    A BaseException, so that no ``except Exception`` inside the program
    can swallow it."""


@dataclass
class Item:
    """One input diagram with its partners and output paths."""

    name: str
    gens: int
    algebra: str
    paths: dict
    term: object


@dataclass
class PassResult:
    op_s: dict = field(default_factory=dict)   # key: (item, kind, s)
    wall: float = 0.0
    attempted: int = 0
    failed_ops: list = field(default_factory=list)
    wrong_ops: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    op_digests: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Inputs


def _items(workload, seed):
    """``(walk, algebra, partner rng)`` for each diagram of the workload."""
    out = []
    if workload == "desk":
        rng = random.Random(f"desk/{seed}")
        for k in range(DESK_DIAGRAMS):
            if k % 2 == 0:
                out.append((gen.desk_walk(rng, (gen.STAR,)), "matrix2", rng))
            else:
                out.append((gen.desk_walk(rng, ("a", "b")),
                            "groupoid-pair_z2", rng))
    elif workload == "ladder":
        for k, n in enumerate(LADDER_SIZES):
            out.append((gen.ladder_walk(n, f"{seed}/{k}"), "matrix2",
                        random.Random(f"ladder-partners/{seed}/{k}")))
    elif workload == "canon":
        for k, n in enumerate(CANON_SIZES):
            out.append((gen.ladder_walk(n, f"canon/{seed}/{k}"), "matrix2",
                        random.Random(f"canon-partners/{seed}/{k}")))
        out.append((gen.strip(CANON_STRIP), "matrix2",
                    random.Random(f"canon-strip/{seed}")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def make_item(name, w, algebra, rng, work):
    """Write walk ``w`` and its two partners under ``work``."""
    eq, ne = gen.partners(rng, w)
    base = os.path.join(work, name)
    paths = {"d": base + ".ocd", "eq": base + ".eq.ocd",
             "ne": base + ".ne.ocd", "nf": base + ".nf.ocd",
             "tr": base + ".trace"}
    for key, walk in (("d", w), ("eq", eq), ("ne", ne)):
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(walk.text())
    return Item(name, w.gens, algebra, paths, ocbord.parse(w.text()))


def build_items(workload, seed, work):
    return [make_item(f"{k:03d}", w, alg, rng, work)
            for k, (w, alg, rng) in enumerate(_items(workload, seed))]


def warmup_item(work):
    """A small diagram run once before timing, so that lazy caches in the
    package (rule patterns, the rule catalog) are filled."""
    rng = random.Random("warmup")
    return make_item("warmup", gen.walk(rng, (gen.I_STAR, gen.I_STAR, gen.O),
                                        30), "matrix2", rng, work)


# ---------------------------------------------------------------------------
# Operations


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ocbord.cli.run(argv)
    return code, out.getvalue()


def _ops(item, kinds):
    """``(kind, label, call)`` for each operation on one item."""
    p = item.paths
    table = {
        "check": [("check", lambda: _cli(["check", p["d"]]))],
        "invariants": [("invariants", lambda: _cli(["invariants", p["d"]]))],
        "normalize": [("normalize", lambda: _cli(
            ["normalize", p["d"], "-o", p["nf"], "--trace", p["tr"]]))],
        "replay": [("replay", lambda: _replay(p["tr"]))],
        "eval": [("eval", lambda: _cli(
            ["eval", "--algebra", item.algebra, p["d"]]))],
        "equiv": [("equiv.eq", lambda: _cli(["equiv", p["d"], p["eq"]])),
                  ("equiv.ne", lambda: _cli(["equiv", p["d"], p["ne"]]))],
        "normal_form": [("normal_form", lambda: (
            0, ocbord.render(ocbord.normal_form(item.term))))],
    }
    return [(kind, label, call)
            for kind in kinds for label, call in table[kind]]


def _replay(path):
    return (0 if ocbord.check_trace(ocbord.read_trace(path)) else 1), ""


def _matrix_lines(stdout):
    return [ln for ln in stdout.splitlines() if not ln.startswith("file = ")]


def check_output(item, label, code, stdout, first):
    """``(failures, wrong answers)`` of one operation, as message lists.

    A failure is a refusal: a non-zero exit without a verdict.  A wrong
    answer is a verdict, matrix or normal form that contradicts how the
    inputs were built, or an exit code outside the 0/1/2 contract.  The
    checks that cost a parse or an evaluation run on the ``first`` pass
    only; later passes are held to the first pass's output digest."""
    if code not in (0, 1, 2):
        return [], [f"exit code {code} outside the 0/1/2 contract"]
    if label.startswith("equiv."):
        verdicts = {"equivalent\n": 0, "not equivalent\n": 1}
        if stdout not in verdicts:
            return [f"exit code {code} without a verdict"], []
        want = 0 if label == "equiv.eq" else 1
        if (verdicts[stdout], code) != (want, want):
            return [], [f"verdict {stdout.strip()!r} with exit code {code}"]
        return [], []
    if code != 0:
        return [f"exit code {code}"], []
    if not first:
        return [], []
    if label == "normalize":
        with open(item.paths["nf"], encoding="utf-8") as fh:
            nf = ocbord.parse(fh.read())
        if not ocbord.equivalent(item.term, nf):
            return [], ["normal form on disk is not equivalent to the input"]
    elif label == "normal_form":
        if not ocbord.equivalent(item.term, ocbord.parse(stdout)):
            return [], ["normal_form is not equivalent to the input"]
    elif label == "eval":
        pcode, pout = _cli(["eval", "--algebra", item.algebra,
                            item.paths["eq"]])
        if pcode != 0 or _matrix_lines(pout) != _matrix_lines(stdout):
            return [], ["eval differs from eval of the equivalent partner"]
    return [], []


def _alarm(signum, frame):
    raise OpTimeout()


def run_pass(items, kinds, limit, work, first, tracer=None, skip=(),
             probe=None):
    """One pass over ``items``; checks run outside the timed region.

    Operations whose key is in ``skip`` (they failed on an earlier pass)
    are not run again.  Each operation's digest
    covers its exit code and stdout, and the files ``normalize`` writes.
    With a ``probe`` (a :class:`speed.Probe`), a reference sample is taken
    at the start and after every ``REF_EVERY`` seconds of operations."""
    res = PassResult()
    clock = time.perf_counter
    untimed = 0.0
    due = 0.0
    t_start = clock()
    if probe is not None:
        untimed += probe.sample()
    for idx, item in enumerate(items):
        for kind, label, call in _ops(item, kinds):
            key = f"{item.name} {label}"
            if key in skip:
                res.op_digests.append((key, "failed"))
                continue
            if probe is not None and due >= REF_EVERY:
                untimed += probe.sample()
                due = 0.0
            if tracer is not None:
                tracer.item = idx
                tracer.on = True
            signal.setitimer(signal.ITIMER_REAL, limit)
            t0 = clock()
            try:
                code, stdout = call()
                err = None
            except (Exception, OpTimeout) as e:
                err = f"{type(e).__name__}: {e}"
            finally:
                dt = clock() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.on = False
            c0 = clock()
            res.attempted += 1
            res.op_s[key] = (idx, kind, dt)
            due += dt
            if err is None:
                failures, wrong = check_output(item, label, code, stdout,
                                               first)
            else:
                failures, wrong = [err], []
            if failures or wrong:
                res.failed_ops.append(key)
                res.problems += [f"{key}: {m}" for m in failures + wrong]
                if wrong:
                    res.wrong_ops.append(key)
                res.op_digests.append((key, "failed"))
            else:
                h = hashlib.sha256(f"{code}\n".encode())
                h.update(stdout.replace(work, "<work>").encode())
                if label == "normalize":
                    for path in (item.paths["tr"], item.paths["nf"]):
                        with open(path, "rb") as fh:
                            h.update(fh.read())
                res.op_digests.append((key, h.hexdigest()))
            untimed += clock() - c0
    res.wall = clock() - t_start - untimed
    return res


def digest(res, skip):
    """One SHA-256 over the operation digests of a pass, leaving out the
    operations in ``skip``."""
    h = hashlib.sha256()
    for key, d in res.op_digests:
        if key not in skip:
            h.update(f"{key} {d}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up time

_SETUP_CHILD = r"""
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
import speed
refs = [speed.sample() for _ in range(3)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import ocbord
ocbord.rules()
for name in sys.argv[3:]:
    ocbord.builtin_algebra(name)
dt = time.perf_counter() - t0
refs += [speed.sample() for _ in range(3)]
print(dt, dt * speed.REF_S / statistics.fmean(refs))
"""


def setup_seconds(algebras, runs=SETUP_RUNS):
    """Median time, as measured and at the reference speed, for a fresh
    interpreter to import ocbord, load the rule catalog and build
    ``algebras``; one unmeasured run first fills the bytecode cache."""
    times = []
    for k in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, HERE, SRC, *algebras],
            capture_output=True, text=True, timeout=60, check=True)
        if k:
            times.append([float(x) for x in proc.stdout.split()])
    return tuple(statistics.median(col) for col in zip(*times))


# ---------------------------------------------------------------------------
# Metrics


def tail(samples):
    """``(value, percentile)`` of the highest percentile with at least 10
    samples beyond it, or None with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def best_times(passes, n, kinds, limit, scale=1.0):
    """For each of the ``n`` items, ``{kind: s}`` with each operation at
    the median of its repeats times ``scale`` and a failed one charged
    ``limit``; per item, the scaled time of its operations, failed ones
    included; and the set of items that failed.

    The first pass ran every operation; later ones skip those that failed.
    """
    failed = {k for p in passes for k in p.failed_ops}
    charged = [dict.fromkeys(kinds, 0.0) for _ in range(n)]
    measured = [0.0] * n
    bad = set()
    for key, (idx, kind, _) in passes[0].op_s.items():
        dt = scale * statistics.median(p.op_s[key][2] for p in passes
                                       if key in p.op_s)
        measured[idx] += dt
        if key in failed:
            charged[idx][kind] += limit
            bad.add(idx)
        else:
            charged[idx][kind] += dt
    return charged, measured, bad


def e2e_metrics(passes, n, setup_s, kinds, limit, scale=1.0):
    """End-to-end metrics from each operation's median repeat, with the
    measured times multiplied by ``scale``.

    ``diagrams_per_s`` divides the diagrams whose operations all
    succeeded by the time of one pass; the other timings charge failed
    operations the time limit."""
    charged, measured, bad = best_times(passes, n, kinds, limit, scale)
    item_s = [sum(d.values()) for d in charged]
    m = {
        "setup_s": setup_s,
        "diagrams_per_s": (len(charged) - len(bad)) / sum(measured),
        "diagram_p50_s": statistics.median(item_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for kind in kinds:
        m[f"{kind}_s"] = sum(d[kind] for d in charged)
    return m, item_s


def layer_metrics(passes, items, ref_wall):
    """Per-layer metrics from the traced passes, medians over passes."""
    per_pass = []
    per_item = {}
    for spans_, counts, res in passes:
        own = spans.self_times(spans_)
        m = {f"{n}.self_s": 0.0 for n in spans.SPAN_NAMES}
        calls = {n: 0 for n in spans.SPAN_NAMES}
        errors = {n: 0 for n in spans.SPAN_NAMES}
        roots = 0.0
        for s, o in zip(spans_, own):
            m[f"{s[2]}.self_s"] += o
            calls[s[2]] += 1
            errors[s[2]] += s[6]
            per_item[s[2], s[5]] = per_item.get((s[2], s[5]), 0.0) + o
            if s[1] is None:
                roots += s[4] - s[3]
        for n in ("dsl.parse", "invariants.invariants",
                  "rewrite.find_matches.search",
                  "rewrite.find_matches.pinned", "tqft.evaluate"):
            m[f"{n}.calls"] = calls[n]
        m["invariants.invariants.errors"] = errors["invariants.invariants"]
        m["dsl.parse.gens"] = counts["parse_gens"]
        m["rewrite.moves"] = counts["moves"]
        search = calls["rewrite.find_matches.search"]
        m["rewrite.find_matches.search.hit_ratio"] = (
            counts["search_hits"] / search if search else 0.0)
        m["bench.self_s"] = res.wall - roots
        m["trace.wall_s"] = res.wall
        per_pass.append(m)
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out["trace.overhead"] = out["trace.wall_s"] / ref_wall - 1.0
    # growth: self time per diagram (mean over passes) against its size
    for n in ("dsl.parse", "diagram.from_port_graph",
              "rewrite.find_matches.search", "tqft.evaluate"):
        out[f"{n}.growth"] = spans.growth(
            [(item.gens, per_item.get((n, idx), 0.0) / len(passes))
             for idx, item in enumerate(items)])
    return out


def layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".growth"):
        return "exponent"
    if name.endswith((".hit_ratio", ".overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Running a workload


def load_digests():
    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, work, log):
    """Run the workload for ``seconds``; return the result object with
    per-metric units under ``"units"``."""
    kinds = KINDS[workload]
    limit = OP_LIMIT_S[workload]
    items = build_items(workload, seed, work)
    algebras = sorted({it.algebra for it in items}) if "eval" in kinds else []
    setup_raw, setup_s = setup_seconds(algebras)
    run_pass([warmup_item(work)], kinds, limit, work, True)
    # A CLI process holds one diagram; keep the collector from rescanning
    # every workload input on each full collection.
    gc.collect()
    gc.freeze()

    tracer = spans.Tracer() if trace else None
    probe = None if trace else speed.Probe()
    passes, traced = [], []
    skip = set()
    if trace:
        # an untraced reference pass, for the tracing overhead
        passes.append(run_pass(items, kinds, limit, work, True))
        tracer.install()
    try:
        while True:
            if tracer is not None:
                tracer.reset()
            res = run_pass(items, kinds, limit, work, not passes, tracer,
                           skip, probe)
            passes.append(res)
            if not trace:
                # a failed operation keeps its charge and is not repeated;
                # the traced run repeats it, so that its spans count
                skip.update(res.failed_ops)
            if tracer is not None:
                traced.append((tracer.spans, {
                    "parse_gens": tracer.parse_gens, "moves": tracer.moves,
                    "search_hits": tracer.search_hits}, res))
            # --seconds bounds the timed part; checks come on top
            rerun = sum(dt for key, (_, _, dt) in res.op_s.items()
                        if key not in skip)
            if sum(p.wall for p in passes) + 1.1 * rerun > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    # distinct operations, however many passes fitted in the run
    attempted = passes[0].attempted
    failed = len({k for p in passes for k in p.failed_ops})
    wrong = len({k for p in passes for k in p.wrong_ops})
    recorded = load_digests().get(workload, {}).get(str(seed))
    unchecked = set(recorded["failed"] if recorded else passes[0].failed_ops)
    digests = {digest(p, unchecked) for p in passes}
    ours = digest(passes[0], unchecked)
    correct = not wrong and len(digests) == 1 \
        and (recorded is None or recorded["digest"] == ours)

    log(f"workload = {workload}, seed = {seed}, diagrams = {len(items)}, "
        f"generators = {sum(it.gens for it in items)}, "
        f"passes = {len(passes)}, correct = {correct}")
    log(f"operations = {attempted}, failed = {failed}, wrong = {wrong}, "
        f"error_rate = {failed / attempted:.6g} ratio")
    for msg in sorted({m for p in passes for m in p.problems})[:20]:
        log(f"problem: {msg}")
    log("failed operations = " + json.dumps(
        sorted({k for p in passes for k in p.failed_ops})))
    log(f"output digest = {ours}" + (
        ", not recorded for this seed" if recorded is None else
        ", as recorded" if recorded["digest"] == ours else
        f", recorded {recorded['digest']}")
        + ("" if len(digests) == 1 else ", differs between passes"))

    if trace:
        metrics = layer_metrics(traced, items, passes[0].wall)
        tracer.dump(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl"))
        units = {k: layer_units(k) for k in metrics}
        covered = sum(v for k, v in metrics.items()
                      if k.endswith(".self_s") and k != "bench.self_s")
        log(f"traced passes = {len(traced)}, traced pass wall = "
            f"{metrics['trace.wall_s']:.6g} s = layer self times "
            f"{covered:.6g} s + the benchmark's own share "
            f"{metrics['bench.self_s']:.6g} s; tracing overhead "
            f"{100 * metrics['trace.overhead']:.3g} %")
        shown = metrics
        for layer, target in LAYER_MAP.items():
            log(f"{layer} should move {target}")
    else:
        raw, _ = e2e_metrics(passes, len(items), setup_raw, kinds, limit)
        log("as measured, before scaling to the reference speed: " + ", ".join(
            f"{k} = {raw[k]:.6g}" for k in sorted(raw)
            if k != "peak_rss_mb"))
        log(f"host speed = {probe.scale():.4g} of the reference, from "
            f"{len(probe.times)} samples")
        shown, samples = e2e_metrics(passes, len(items), setup_s, kinds,
                                     limit, probe.scale())
        t = tail(samples)
        if workload == "desk" and t is not None:
            log(f"diagram_tail_s = {t[0]:.6g} s (p{t[1]:.3g} of "
                f"{len(samples)} diagrams)")
        units = {k: E2E_UNITS.get(k, "s") for k in shown}
        metrics = {k: shown[k] for k in E2E_UNITS}
    for k in sorted(shown):
        log(f"{k} = {shown[k]:.6g} {units[k]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "units": units}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk", "ladder", "canon"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ocbord is None or os.path.dirname(os.path.abspath(ocbord.__file__)) \
            != os.path.join(SRC, "ocbord"):
        print(f"error: no ocbord package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        res = measure(ns.workload, ns.seed, ns.seconds, ns.trace, work,
                      print)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = res.pop("units")
    res["metrics"] = {k: {"value": v, "unit": units[k]}
                      for k, v in res["metrics"].items()}
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
