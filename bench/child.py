"""Answering process for the library workload and for traced runs.

Reads one JSON request per line on stdin and writes one JSON answer per line
on stdout.  The parent sends the next request only after it has read the
answer, so there is one closed-loop client.

Library requests call ``cnotswap.synthesis.find_word``.  CLI requests (traced
runs only) replay the argv through ``cnotswap.cli.main`` in this process.

With ``--trace`` every request is answered twice, once with span recorders
installed and once without, in alternating order; the answer reports both
wall times so the parent can state the tracing overhead.  Requests that reach
the synthesis layer are answered a third time with tracemalloc on inside the
search, for its peak allocation.  Recorders wrap the
package's functions at the sites where they are called; the package source is
not touched.  Spans stay in memory and are written as the last line when
stdin closes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import tracemalloc
import traceback

import oracle


class Tracer:
    """Span recorder: (name, start, end, parent span, answer, detail)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.answer = -1
        self.installed: list = []

    def wrap(self, name, fn, detail=None, alloc=False):
        def recorded(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                info = {}
                if alloc:
                    info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans[sid] = [name, start, end, parent, self.answer, info]
            if detail is not None:
                info.update(detail(args, result))
            return result

        return recorded

    def patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self.installed.append((owner, attr, original, self.wrap(name, original, **kw)))

    def install(self):
        for owner, attr, _, wrapped in self.installed:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self.installed:
            setattr(owner, attr, original)


def build_tracers(pkg) -> tuple[Tracer, Tracer]:
    """Span recorders for every layer, and tracemalloc recorders for searches.

    Allocation tracing slows every Python allocation, so it runs in a pass of
    its own and does not inflate the layer times.
    """
    tracer, alloc = Tracer(), Tracer()
    points_of_result = lambda args, result: {"points": len(result)}  # noqa: E731
    points_of_self = lambda args, result: {"points": len(args[0])}  # noqa: E731
    tracer.patch(pkg.cli, "main", "cli.main")
    for owner in (pkg.cli, pkg.synthesis, pkg.feasibility):
        for attr in ("gate_perm", "cnot1_perm", "cnot2_perm", "swap_perm"):
            if hasattr(owner, attr):
                tracer.patch(owner, attr, "gates.build", detail=points_of_result)
    for owner, attr in ((pkg.cli, "find_word"), (pkg.cli, "enumerate_group"),
                        (pkg.synthesis, "find_word")):
        tracer.patch(owner, attr, "synthesis.search")
        alloc.patch(owner, attr, "synthesis.search", alloc=True)
    tracer.patch(pkg.cli, "decide", "feasibility.decide")
    tracer.patch(pkg.perm.Perm, "signature", "perm.signature", detail=points_of_self)
    tracer.patch(pkg.perm.Perm, "cycle_type", "perm.cycle_type", detail=points_of_self)
    return tracer, alloc


def answer_with(tracer: Tracer, pkg, request: dict) -> tuple[dict, float]:
    tracer.install()
    try:
        return answer(pkg, request)
    finally:
        tracer.uninstall()


def answer_cli(pkg, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is an answer the parent counts as failed
            traceback.print_exc()
            code = None
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def answer_library(pkg, request: dict) -> tuple[dict, float]:
    d = request["d"]
    target = pkg.perm.Perm(oracle.image_table(tuple(request["target"]), d))
    start = time.perf_counter()
    try:
        result = pkg.synthesis.find_word(d, target, max_dimension=request["max_dimension"])
    except Exception:
        return {"error": traceback.format_exc(limit=1).strip()}, time.perf_counter() - start
    seconds = time.perf_counter() - start
    word = None if result.word is None else [letter.name for letter in result.word.letters]
    return {"outcome": result.outcome.value, "word": word}, seconds


def answer(pkg, request: dict) -> tuple[dict, float]:
    if "argv" in request:
        start = time.perf_counter()
        response = answer_cli(pkg, request["argv"])
        return response, time.perf_counter() - start
    return answer_library(pkg, request)


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    import cnotswap.cli
    import cnotswap.perm
    import cnotswap.synthesis

    pkg = cnotswap
    tracer, alloc = build_tracers(pkg) if trace else (None, None)
    proto = sys.stdout
    proto.write(json.dumps({"ready": True}) + "\n")
    proto.flush()
    for number, line in enumerate(sys.stdin):
        request = json.loads(line)
        if tracer is None:
            response, seconds = answer(pkg, request)
        else:
            tracer.answer = alloc.answer = number
            before = len(tracer.spans)
            if number % 2:
                response, seconds = answer_with(tracer, pkg, request)
                _, untraced_seconds = answer(pkg, request)
            else:
                _, untraced_seconds = answer(pkg, request)
                response, seconds = answer_with(tracer, pkg, request)
            if any(span[0] == "synthesis.search" for span in tracer.spans[before:]):
                answer_with(alloc, pkg, request)
            response["untraced_seconds"] = untraced_seconds
        response["seconds"] = seconds
        proto.write(json.dumps(response) + "\n")
        proto.flush()
    if tracer is not None:
        proto.write(json.dumps({"spans": tracer.spans, "alloc_spans": alloc.spans}) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
