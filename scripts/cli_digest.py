"""SHA-256 digests of the ``ocbord`` CLI's outputs on the corpus.

For every ``corpus/*.ocd`` file this runs ``ocbord.cli.run`` in-process
for ``check``, ``invariants``, ``normalize --trace``, ``eval`` under
``matrix2`` and ``groupoid-pair_z2``, and ``equiv`` on every pair of
files; then ``axioms`` on every builtin algebra and every
``algebras/*.kfa`` file, and ``examples --corpus corpus``; each with and
without ``--json``.  One output is the exit code,
stdout, stderr and, for ``normalize``, the trace file.  The script prints
one digest per output and a total over all of them, so two checkouts give
the same total exactly when every output is byte-identical.

Usage, from any directory::

    python3 scripts/cli_digest.py [CHECKOUT]

``CHECKOUT`` is the root of the checkout whose ``src/``, ``corpus/`` and
``algebras/`` are used; it defaults to the one holding this script.
Standard library only.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile

ALGEBRAS = ("matrix2", "groupoid-pair_z2")


def _invocations(files, algebras, trace):
    for f in files:
        yield ["check", f]
        yield ["invariants", f]
        yield ["normalize", f, "--trace", trace]
        for alg in ALGEBRAS:
            yield ["eval", f, "--algebra", alg]
    for a, b in itertools.combinations(files, 2):
        yield ["equiv", a, b]
    for alg in algebras:
        yield ["axioms", alg]
    yield ["examples", "--corpus", "corpus"]


def _output(run, argv, tmp, trace):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    parts = [str(code), out.getvalue(), err.getvalue()]
    if trace in argv and os.path.exists(trace):
        with open(trace, encoding="utf-8") as fh:
            parts.append(fh.read())
        # removed, so that a run that writes no trace shows as such
        os.remove(trace)
    # the temporary directory's name differs from run to run
    return "\0".join(parts).replace(tmp, "<tmp>")


def main(argv):
    root = os.path.abspath(argv[0] if argv else
                           os.path.join(os.path.dirname(__file__), ".."))
    sys.path.insert(0, os.path.join(root, "src"))
    from ocbord.cli import run
    from ocbord.tqft import BUILTIN_ALGEBRAS

    os.chdir(root)
    files = sorted(os.path.join("corpus", f) for f in os.listdir("corpus")
                   if f.endswith(".ocd"))
    algebras = list(BUILTIN_ALGEBRAS) + sorted(
        os.path.join("algebras", f) for f in os.listdir("algebras")
        if f.endswith(".kfa"))
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.log")
        for args in _invocations(files, algebras, trace):
            for cmd in (args, args[:1] + ["--json"] + args[1:]):
                digest = hashlib.sha256(
                    _output(run, cmd, tmp, trace).encode()).hexdigest()
                label = " ".join(cmd).replace(tmp, "<tmp>")
                print(f"{digest}  {label}")
                total.update(f"{digest}  {label}\n".encode())
                count += 1
    print(f"{total.hexdigest()}  total over {count} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
