"""Spans around the public functions of each ocbord module.

:class:`Tracer` replaces each function listed in :data:`LAYERS` by a
wrapper in every ``ocbord`` module namespace that binds it (``cli`` and
``rewrite`` import ``parse``, ``render`` and others by name), so calls
made inside the package are recorded too.  A span is
``[id, parent id, name, start, end, item, error]``; spans stay in memory
until :meth:`Tracer.dump`.
"""

import json
import math
import sys
import time

# (module, function) pairs wrapped by the tracer.  ``find_matches`` spans
# are split by whether ``at=`` pinned the match site.
LAYERS = (
    ("cli", "run"),
    ("dsl", "parse"),
    ("dsl", "render"),
    ("diagram", "to_port_graph"),
    ("diagram", "from_port_graph"),
    ("diagram", "graph_eq"),
    ("invariants", "invariants"),
    ("invariants", "equivalent"),
    ("normalform", "normal_form"),
    ("rewrite", "find_matches"),
    ("rewrite", "apply_match"),
    ("rewrite", "normalize_with_trace"),
    ("rewrite", "write_trace"),
    ("rewrite", "read_trace"),
    ("rewrite", "parse_trace"),
    ("rewrite", "check_trace"),
    ("tqft", "evaluate"),
    ("tqft", "builtin_algebra"),
)

SPAN_NAMES = tuple(
    n for mod, fn in LAYERS
    for n in ((f"{mod}.{fn}.search", f"{mod}.{fn}.pinned")
              if fn == "find_matches" else (f"{mod}.{fn}",)))


def _gens(term):
    return sum(1 for row in term.slices for f in row
               if type(f).__name__ == "Gen")


class Tracer:
    """Records spans while :attr:`on` is true, between :meth:`install`
    and :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.on = False
        self.item = None
        self.parse_gens = 0
        self.moves = 0
        self.search_hits = 0
        self._patched = []

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span_name = name
            if name == "rewrite.find_matches":
                pinned = kwargs.get("at", args[3] if len(args) > 3 else None)
                span_name += ".search" if pinned is None else ".pinned"
            stack = tracer.stack
            span = [len(tracer.spans), stack[-1][0] if stack else None,
                    span_name, 0.0, 0.0, tracer.item, False]
            tracer.spans.append(span)
            stack.append(span)
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[4] = clock()
                span[6] = True
                raise
            else:
                span[4] = clock()
            finally:
                stack.pop()
            if span_name == "dsl.parse":
                tracer.parse_gens += _gens(out)
            elif span_name == "rewrite.normalize_with_trace":
                tracer.moves += len(out[1].moves)
            elif span_name == "rewrite.find_matches.search" and out:
                tracer.search_hits += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = {k: v for k, v in sys.modules.items()
                if k == "ocbord" or k.startswith("ocbord.")}
        for mod, fn in LAYERS:
            orig = getattr(mods[f"ocbord.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", orig)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def reset(self):
        self.spans = []
        self.parse_gens = self.moves = self.search_hits = 0

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end",
                                 "item", "error"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def growth(points):
    """Least-squares slope of log(y) against log(x) over the points with
    positive coordinates; 0.0 when fewer than two distinct x remain."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
