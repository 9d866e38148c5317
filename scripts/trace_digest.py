"""SHA-256 digests of the normalizer's move traces on a fixed sample.

For every input below this runs ``ocbord.rewrite.normalize_with_trace``
in-process, takes the trace text (``trace_text``), or the error if the
normalizer gave up, and replays the trace with ``check_trace``.  The
inputs are:

- the 500 criterion-3 diagrams of ``tests/test_acceptance.py``;
- 360 further ``tests/helpers.random_term``s, 40 per seed 1-3 in each of
  the colour sets ``*``, ``*,a`` and ``*,a,b`` (``max_gens=30``, not
  necessarily connected);
- ``perfbench/gen.ladder_walk(n, str(n))`` for n = 200, 400, .., 3200;
- ``tests/helpers.mu_c_comb_text(101)`` and ``reversed_merge_text(101)``;
- ``tests/helpers.handle_comb_text(40)``.

The script prints one digest per trace and a total over all of them, so
two checkouts give the same total exactly when every trace is
byte-identical.  It exits 1 if a trace does not replay.

Usage, from any directory::

    python3 scripts/trace_digest.py [CHECKOUT]

``CHECKOUT`` is the root of the checkout whose ``src/``, ``tests/`` and
``perfbench/`` are used; it defaults to the one holding this script.
Standard library only.
"""

import hashlib
import os
import random
import sys

COLOR_SETS = (("*",), ("*", "a"), ("*", "a", "b"))
LADDER_SIZES = (200, 400, 800, 1600, 3200)


def _inputs(helpers, gen, parse):
    rng = random.Random(314159)
    for i in range(500):
        yield f"criterion-3 {i}", helpers.random_term(rng, max_gens=25,
                                                      max_width=6)
    for colors in COLOR_SETS:
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            for i in range(40):
                yield (f"random {','.join(colors)} seed {seed} {i}",
                       helpers.random_term(rng, max_gens=30, colors=colors,
                                           connected=False))
    for n in LADDER_SIZES:
        yield f"ladder {n}", parse(gen.ladder_walk(n, str(n)).text())
    yield "mu_c_comb 101", parse(helpers.mu_c_comb_text(101))
    yield "reversed_merge 101", parse(helpers.reversed_merge_text(101))
    yield "handle_comb 40", parse(helpers.handle_comb_text(40))


def digest_lines(outcomes):
    """Yield one ``"{digest}  {label}"`` line per ``(label, outcome)``,
    then the ``"{total}  total over {count} traces"`` line.  An outcome is
    a move trace, digested as its ``trace_text``, or the ``OcbordError``
    the normalizer raised, digested as ``error: {type}: {message}``."""
    from ocbord.rewrite import trace_text

    total = hashlib.sha256()
    count = 0
    for label, outcome in outcomes:
        text = (f"error: {type(outcome).__name__}: {outcome}\n"
                if isinstance(outcome, Exception) else trace_text(outcome))
        line = f"{hashlib.sha256(text.encode()).hexdigest()}  {label}"
        total.update(f"{line}\n".encode())
        count += 1
        yield line
    yield f"{total.hexdigest()}  total over {count} traces"


def main(argv):
    root = os.path.abspath(argv[0] if argv else
                           os.path.join(os.path.dirname(__file__), ".."))
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, os.path.join(root, sub))
    import gen
    import helpers
    from ocbord.diagram import OcbordError
    from ocbord.dsl import parse
    from ocbord.rewrite import check_trace, normalize_with_trace

    failed = 0

    def outcomes():
        nonlocal failed
        for label, term in _inputs(helpers, gen, parse):
            try:
                outcome = normalize_with_trace(term)[1]
            except OcbordError as e:
                outcome = e
            else:
                try:
                    check_trace(outcome)
                except OcbordError as e:
                    print(f"{label}: trace does not replay: {e}",
                          file=sys.stderr)
                    failed += 1
            yield label, outcome

    for line in digest_lines(outcomes()):
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
