"""Layer timings on growing inputs, before and after a change.

For each layer of the pipeline this times the layer's function on each
series of inputs, size by size, in one or two checkouts, fits a log-log
growth exponent per series and checkout, and writes ``BENCH_<layer>.json``
with the machine, the Python version, the sizes, the seconds and the
exponents.

Every input is built once, by this checkout, and written as ``.ocd`` text,
so both checkouts time the same diagrams.  Each timing runs in a fresh
child process that imports the checkout's ``src/``, reads the file and,
for every layer but ``parse``, parses it and does the layer's other
set-up (untimed), then times the layer: repeated up to twenty times
while under a second in all, keeping the fastest run.  The checkouts'
children alternate size by size, ``ROUNDS`` times over, the first side
swapping each round, and each side keeps its fastest time, so a swing in
the host's speed reaches both sides alike.  A size that exceeds
``TIMEOUT_S`` seconds is recorded as ``null`` and ends its series for
that side, so a slow checkout still finishes.

Usage, from any directory::

    python3 scripts/bench.py [CHECKOUT] [--before OTHER] [--layer NAME]...

``CHECKOUT`` (the "after" side) defaults to the checkout holding this
script; ``--before`` adds a second checkout to compare against.  Each
layer of :data:`LAYERS` named by ``--layer``, or every layer when none is
named, is timed and written to ``BENCH_<layer>.json`` in this checkout.
Standard library only.
"""

import argparse
import atexit
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
TIMEOUT_S = 60.0
ROUNDS = 3


def _ladder(n):
    import gen
    return gen.ladder_walk(n, str(n)).text()


def _bare(n):
    # as a hand-written file: opened by a comment, no spaces around |
    return "# a ladder walk\n" + _ladder(n).replace(" | ", "|")


def _wide(n):
    import helpers
    return helpers.wide_text(n)


def _closed(n):
    import helpers
    return helpers.closed_surface(n)


def _crowns(n):
    import helpers
    from ocbord.dsl import parse, render
    crown = parse(helpers.crown_text(n))
    return render(helpers.tensor(crown, crown))


def _crown(n):
    import helpers
    return helpers.crown_text(n)


def _strip(n):
    import helpers
    from ocbord.dsl import render
    return render(helpers.window_strip(n))


def _handles(n):
    import helpers
    return helpers.handle_comb_text(n)


def _parse(text):
    from ocbord.dsl import parse
    return lambda: parse(text)


def _to_port_graph(term):
    from ocbord.diagram import to_port_graph
    return lambda: to_port_graph(term)


def _from_port_graph(term):
    from ocbord.diagram import from_port_graph, to_port_graph
    g = to_port_graph(term)
    return lambda: from_port_graph(g)


def _eval_matrix2(term):
    from ocbord.tqft import builtin_algebra, evaluate
    alg = builtin_algebra("matrix2")
    return lambda: evaluate(term, alg)


def _canonical_key(term):
    from ocbord.diagram import canonical_key, to_port_graph
    return lambda: canonical_key(to_port_graph(term))


def _invariants(term):
    from ocbord.invariants import invariants
    return lambda: invariants(term)


def _equivalent(term):
    from ocbord.invariants import equivalent
    return lambda: equivalent(term, term)


def _normal_form(term):
    from ocbord.normalform import normal_form
    return lambda: normal_form(term)


def _normalize_with_trace(term):
    from ocbord.rewrite import normalize_with_trace
    return lambda: normalize_with_trace(term)


def _check_trace(term):
    from ocbord.rewrite import check_trace, normalize_with_trace
    trace = normalize_with_trace(term)[1]
    return lambda: check_trace(trace)


def _cli_check(term):
    # a fresh interpreter of the same checkout, as a user's shell starts
    # one, on the term written out untimed
    import ocbord
    from ocbord.dsl import render
    tmp = tempfile.TemporaryDirectory()
    atexit.register(tmp.cleanup)    # after the last call, not by the GC
    with open(os.path.join(tmp.name, "in.ocd"), "w", encoding="utf-8") as fh:
        fh.write(render(term))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(ocbord.__file__)))
    argv = [sys.executable, "-m", "ocbord.cli", "check", "in.ocd"]
    return lambda: subprocess.run(argv, cwd=tmp.name, env=env, check=True,
                                  stdout=subprocess.DEVNULL)


# the series of the layers that read a diagram in: long walks, deep
# strips and rows n atoms wide
_READ_SERIES = {
    "ladder": ("perfbench/gen.ladder_walk(n, str(n))", _ladder,
               (200, 400, 800, 1600, 3200)),
    "strip": ("render(tests/helpers.window_strip(n))", _strip,
              (300, 600, 1200, 2400)),
    "wide": ("tests/helpers.wide_text(n)", _wide, (500, 1000, 2000, 4000)),
}

# the series of the layers that name a port graph up to node ids
_CANON_SERIES = {
    "closed": ("tests/helpers.closed_surface(n)", _closed,
               (100, 200, 400, 800, 1600)),
    "ladder": ("perfbench/gen.ladder_walk(n, str(n))", _ladder,
               (200, 400, 800, 1600, 3200)),
}

# one crown: a closed torus whose n-fold rotation symmetry keeps n
# lockstep walks live to the end
_CROWN = ("tests/helpers.crown_text(n)", _crown, (100, 200, 400, 800))

# the series of the layers that read closed components as a multiset:
# the canon series and two crowns, each with a k-fold rotation symmetry
_MULTISET_SERIES = {
    **_CANON_SERIES,
    "crowns": ("render(tests/helpers.tensor(crown, crown)), crown = "
               "parse(tests/helpers.crown_text(n))", _crowns,
               (50, 100, 200, 400, 800, 1600)),
}

# the series of the layout: long walks, deep strips, closed surfaces and
# a crown, whose input-less nodes are placed in canonical order
_LAYOUT_SERIES = {"ladder": _READ_SERIES["ladder"],
                  "strip": _READ_SERIES["strip"],
                  "closed": _CANON_SERIES["closed"], "crown": _CROWN}

# the series of the rewrite layers: moves on long walks and deep strips
_REWRITE_SERIES = {
    "ladder": ("perfbench/gen.ladder_walk(n, str(n))", _ladder,
               (200, 400, 800, 1600, 3200)),
    "strip": ("render(tests/helpers.window_strip(n))", _strip,
              (300, 600, 1200)),
}

# the normalizer alone also runs the handle comb, whose closed tidying
# makes about n^2 moves
_NORMALIZE_SERIES = {
    **_REWRITE_SERIES,
    "handles": ("tests/helpers.handle_comb_text(n)", _handles,
                (40, 80, 160)),
}

# layer -> (the call timed; in the child, a function that imports the
# checkout, does any untimed set-up on a parsed term, or on the file's
# text for parse, and returns the call to time; {series: (the input,
# builder, sizes)})
LAYERS = {
    "parse": ("ocbord.dsl.parse(text)", _parse, {
        **_READ_SERIES,
        "bare": ("'# a ladder walk' line, then perfbench/gen.ladder_walk("
                 "n, str(n)) with bare |", _bare,
                 (200, 400, 800, 1600, 3200)),
    }),
    "to_port_graph": ("ocbord.diagram.to_port_graph(term)", _to_port_graph,
                      _READ_SERIES),
    "eval": ("ocbord.tqft.evaluate(term, builtin_algebra('matrix2'))",
             _eval_matrix2, {
                 "ladder": ("perfbench/gen.ladder_walk(n, str(n))", _ladder,
                            (50, 100, 200, 400, 800, 1600)),
                 "wide": ("tests/helpers.wide_text(n)", _wide,
                          (100, 200, 400, 800, 1500)),
             }),
    "canonical_key": ("ocbord.diagram.canonical_key(to_port_graph(term))",
                      _canonical_key, {**_CANON_SERIES, "crown": _CROWN}),
    # the free-boundary layers also walk the deep strip, mostly windows
    "invariants": ("ocbord.invariants.invariants(term)", _invariants,
                   {**_CANON_SERIES, "crown": _CROWN,
                    "strip": _READ_SERIES["strip"]}),
    "equivalent": ("ocbord.invariants.equivalent(term, term)", _equivalent,
                   {**_MULTISET_SERIES, "strip": _READ_SERIES["strip"]}),
    "normal_form": ("ocbord.normalform.normal_form(term)", _normal_form,
                    _MULTISET_SERIES),
    "from_port_graph": ("ocbord.diagram.from_port_graph(g), g made "
                        "untimed by to_port_graph(term)", _from_port_graph,
                        _LAYOUT_SERIES),
    "normalize_with_trace": ("ocbord.rewrite.normalize_with_trace(term)",
                             _normalize_with_trace, _NORMALIZE_SERIES),
    "check_trace": ("ocbord.rewrite.check_trace(trace), the trace made "
                    "untimed by the checkout's normalize_with_trace(term)",
                    _check_trace, _REWRITE_SERIES),
    "cli_check": ("a fresh `python3 -m ocbord.cli check FILE` process, "
                  "FILE written untimed from render(term)", _cli_check,
                  _READ_SERIES),
}


def _child(layer, path):
    from ocbord.dsl import parse_file
    if layer == "parse":
        with open(path, encoding="utf-8") as fh:
            arg = fh.read()
    else:
        arg = parse_file(path)
    call = LAYERS[layer][1](arg)
    best, spent = math.inf, 0.0
    for _ in range(20):
        t0 = time.perf_counter()
        call()
        dt = time.perf_counter() - t0
        best, spent = min(best, dt), spent + dt
        if spent >= 1.0:
            break
    print(repr(best))


def _time(checkout, layer, path):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", layer,
             path], capture_output=True, text=True, env=env,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"{layer} on {path} failed:\n{proc.stderr}")
    return round(float(proc.stdout), 5)


def growth(sizes, seconds):
    """``perfbench/spans.growth`` over the sizes that finished, to three
    places; None below two."""
    import spans
    pts = [(n, s) for n, s in zip(sizes, seconds) if s]
    return round(spans.growth(pts), 3) if len(pts) >= 2 else None


def _machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"system": platform.system(), "arch": platform.machine(),
            "cpu": model, "cpus": os.cpu_count()}


def _bench(layer, sides, tmp):
    call, _, series = LAYERS[layer]
    doc = {"layer": layer, "call": call,
           "machine": _machine(), "python": platform.python_version(),
           "timeout_s": TIMEOUT_S, "series": {}}
    for name, (what, build, sizes) in series.items():
        entry = {"input": what, "sizes": list(sizes)}
        paths = []
        for n in sizes:
            paths.append(os.path.join(tmp, f"{layer}-{name}-{n}.ocd"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(build(n))
        seconds = {side: [] for side, _ in sides}
        for n, path in zip(sizes, paths):
            # a side that timed out on a smaller size is skipped
            best = {side: math.inf for side, _ in sides
                    if not seconds[side] or seconds[side][-1] is not None}
            for r in range(ROUNDS):
                for side, checkout in sides[::-1] if r % 2 else sides:
                    if best.get(side) is not None:     # still running
                        s = _time(checkout, layer, path)
                        best[side] = None if s is None \
                            else min(best[side], s)
            for side, _ in sides:
                s = best.get(side)
                seconds[side].append(s)
                shown = ("skipped" if side not in best else
                         "timeout" if s is None else f"{s:.4f} s")
                print(f"{layer} {name} n={n} {side}: {shown}", flush=True)
        for side, _ in sides:
            entry[side] = {"seconds": seconds[side],
                           "exponent": growth(sizes, seconds[side])}
        doc["series"][name] = entry
    out = os.path.join(ROOT, f"BENCH_{layer}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=ROOT)
    ap.add_argument("--before")
    ap.add_argument("--layer", action="append", choices=list(LAYERS))
    args = ap.parse_args(argv)
    sides = [("after", os.path.abspath(args.checkout))]
    if args.before:
        sides.insert(0, ("before", os.path.abspath(args.before)))

    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests",
                                                     "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        for layer in args.layer or LAYERS:
            _bench(layer, sides, tmp)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(*sys.argv[2:4])
    else:
        sys.exit(main(sys.argv[1:]))
