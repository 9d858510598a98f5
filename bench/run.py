"""End-to-end and per-layer benchmark for cnotswap.

    python3 bench/run.py --workload closure_swap --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nothing needs building.  Workloads
(see README.md next to this file):

  closure_swap    CLI ``synth``/``group`` over SL(2, Z_d) closures, d <= 48
  parity_large_d  CLI ``decide``/``analyze`` at d in [100, 1000]
  reachable_words library ``find_word`` on reachable targets, d in [16, 40]

One closed-loop client sends the next request only after the previous answer
arrived.  CLI answers run one ``python -m cnotswap`` child at a time; library
answers run in one child interpreter.  The run issues whole rounds of inputs
(see workloads.py) and stops before a round that would end after --seconds.

Every answer is checked against the oracle in oracle.py, which does not use
the code under test.  The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The line before it is the full report (inputs, environment,
error rate, tail percentile); it is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import re
import resource
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "cnotswap"
OUT = Path(__file__).resolve().parent / "out"

SETUP_EVERY_S = 2.0
SETUP_MIN_SAMPLES = 5
IMPORTTIME_SAMPLES = 5
HARD_LIMIT_S = 140  # stop issuing answers after this long, whatever --seconds says

END_TO_END_UNITS = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "init.import_s": "s",
    "init.numpy_import_s": "s",
    "cli.main_s": "s/answer",
    "cli.self_s": "s/answer",
    "cli.stdout_bytes": "bytes/answer",
    "feasibility.decide_s": "s/answer",
    "feasibility.calls": "calls/answer",
    "gates.build_s": "s/answer",
    "gates.builds": "calls/answer",
    "gates.points_per_s": "1/s",
    "perm.signature_s": "s/answer",
    "perm.cycle_type_s": "s/answer",
    "perm.points_per_s": "1/s",
    "synthesis.search_s": "s/answer",
    "synthesis.calls": "calls/answer",
    "synthesis.elements_per_s": "1/s",
    "synthesis.peak_alloc_mb": "MiB",
    "synthesis.bytes_per_element": "bytes",
    "synthesis.elements_per_answer": "count/answer",
    "trace.overhead_share": "share",
}
# derived from the oracle's census, not measured inside the program
COMPUTED = ["synthesis.elements_per_s", "synthesis.bytes_per_element",
            "synthesis.elements_per_answer"]


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class SetupSampler:
    """Wall time of fresh interpreters that only ``import cnotswap.cli``.

    Samples are spread through the run, one whenever SETUP_EVERY_S of
    answering has passed, so their median does not hinge on how fast the
    machine happened to be during the first seconds.
    """

    def __init__(self, env: dict):
        self.env = env
        self.argv = [sys.executable, "-c", "import cnotswap.cli"]
        self.samples: list[float] = []
        self.due = 0.0
        subprocess.run(self.argv, env=env, cwd=ROOT, check=True, capture_output=True)

    def take(self, busy: float) -> None:
        if busy < self.due:
            return
        start = time.perf_counter()
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True, capture_output=True)
        self.samples.append(time.perf_counter() - start)
        self.due = busy + SETUP_EVERY_S


def importtime_samples(env: dict, samples: int) -> tuple[float, float]:
    """Medians of the in-interpreter import of cnotswap.cli and of numpy."""
    code = ("import time; t = time.perf_counter(); import cnotswap.cli; "
            "print(time.perf_counter() - t)")
    argv = [sys.executable, "-X", "importtime", "-c", code]
    total, numpy_s = [], []
    for _ in range(samples):
        proc = subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True)
        total.append(float(proc.stdout))
        match = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*numpy\s*$",
                          proc.stderr, re.MULTILINE)
        numpy_s.append(int(match.group(1)) / 1e6 if match else 0.0)
    return statistics.median(total), statistics.median(numpy_s)


class CliClient:
    """One ``python -m cnotswap`` child per answer, run to completion."""

    def __init__(self, env: dict):
        self.env = env

    def ask(self, request: dict, deadline: float) -> dict:
        argv = [sys.executable, "-m", "cnotswap", *request["argv"]]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            return {"error": "timed out", "seconds": time.perf_counter() - start}
        seconds = time.perf_counter() - start
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                "seconds": seconds}

    def close(self):
        return None


class ChildClient:
    """One long-lived child.py interpreter answering one request at a time."""

    def __init__(self, env: dict, trace: bool):
        argv = [sys.executable, str(Path(__file__).with_name("child.py"))]
        argv += ["--trace"] if trace else []
        self.proc = subprocess.Popen(argv, env=env, cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = self.proc.stdout.readline()
        if not ready:
            self.proc.wait()
            raise RuntimeError("answering child failed to start")
        self.spans, self.alloc_spans = [], []

    def ask(self, request: dict, deadline: float) -> dict:
        start = time.perf_counter()
        line = ""
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        else:
            ready, _, _ = select.select([self.proc.stdout], [], [], max(1.0, deadline - start))
            if ready:
                line = self.proc.stdout.readline()
            else:
                self.proc.kill()
        if not line:
            return {"error": "answering child died or timed out",
                    "seconds": time.perf_counter() - start}
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        for line in self.proc.stdout:
            recorded = json.loads(line)
            self.spans, self.alloc_spans = recorded["spans"], recorded["alloc_spans"]
        self.proc.wait()


def run_rounds(workload: str, seed: int, seconds: float, client, censuses, sampler=None):
    """Answer whole rounds until the next one would end after ``seconds``.

    Returns the (request, answer) pairs, the answering wall time (input
    generation and set-up samples excluded) and the SHA-256 of each round.
    """
    answered = []
    busy = 0.0
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    round_hashes = []
    while True:
        requests = workloads.round_requests(workload, seed, len(round_hashes), censuses)
        round_hashes.append(workloads.inputs_digest(requests))
        round_busy = 0.0
        for request in requests:
            if time.perf_counter() > hard_deadline:
                break
            if sampler is not None:
                sampler.take(busy + round_busy)
            start = time.perf_counter()
            answered.append((request, client.ask(request, hard_deadline)))
            round_busy += time.perf_counter() - start
        busy += round_busy
        if busy + round_busy > seconds or time.perf_counter() > hard_deadline:
            return answered, busy, round_hashes


def score(workload: str, answered, censuses) -> list[dict]:
    """Oracle check of every answer, run off the clock after all are in."""
    failures = []
    for i, (request, response) in enumerate(answered):
        reason = workloads.check(workload, request, response, censuses)
        if reason:
            failures.append({"answer": i, "request": request, "reason": reason})
    return failures


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least ten samples above
    it (nearest rank); with ten samples or fewer, the median at 50."""
    n = len(values)
    if n <= 10:
        return statistics.median(values), 50
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return sorted(values)[rank - 1], pct


def environment() -> dict:
    try:
        top, commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError, ValueError):
        top, commit = None, None  # checkouts made for benchmarking need not be git repos
    if top is None or Path(top).resolve() != ROOT:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "rss_source": "resource.getrusage(RUSAGE_CHILDREN).ru_maxrss of this "
        "process's waited-for children (KiB on Linux)",
        "machine_settings": "no kernel, cgroup or cache setting was changed "
        "to take the measurement",
    }


def layer_metrics(answered, censuses, spans, alloc_spans) -> dict:
    n = len(answered)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def total(name):
        return sum(s[2] - s[1] for s in by_name.get(name, []))

    def points(*names):
        return sum(s[5].get("points", 0) for name in names for s in by_name.get(name, []))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    child_time: dict[int, float] = {}
    for span in spans:
        child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
    cli_self = sum(s[2] - s[1] - child_time.get(i, 0.0)
                   for i, s in enumerate(spans) if s[0] == "cli.main")

    elements = {i: workloads.elements_built(req, censuses) for i, (req, _) in enumerate(answered)}
    searches = by_name.get("synthesis.search", [])
    searched = sum(elements[s[4]] for s in searches)
    peak = max(alloc_spans, key=lambda s: s[5]["peak_bytes"], default=None)
    traced = sum(resp.get("seconds", 0.0) for _, resp in answered)
    untraced = sum(resp.get("untraced_seconds", 0.0) for _, resp in answered)
    return {
        "cli.main_s": total("cli.main") / n,
        "cli.self_s": cli_self / n,
        "cli.stdout_bytes": sum(len(r.get("stdout", "").encode()) for _, r in answered) / n,
        "feasibility.decide_s": total("feasibility.decide") / n,
        "feasibility.calls": len(by_name.get("feasibility.decide", [])) / n,
        "gates.build_s": total("gates.build") / n,
        "gates.builds": len(by_name.get("gates.build", [])) / n,
        "gates.points_per_s": rate(points("gates.build"), total("gates.build")),
        "perm.signature_s": total("perm.signature") / n,
        "perm.cycle_type_s": total("perm.cycle_type") / n,
        "perm.points_per_s": rate(points("perm.signature", "perm.cycle_type"),
                                  total("perm.signature") + total("perm.cycle_type")),
        "synthesis.search_s": total("synthesis.search") / n,
        "synthesis.calls": len(searches) / n,
        "synthesis.elements_per_s": rate(searched, total("synthesis.search")),
        "synthesis.peak_alloc_mb": peak[5]["peak_bytes"] / 2**20 if peak else 0.0,
        "synthesis.bytes_per_element": peak[5]["peak_bytes"] / elements[peak[4]] if peak else 0.0,
        "synthesis.elements_per_answer": searched / n,
        "trace.overhead_share": traced / untraced - 1 if untraced > 0 else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no cnotswap source under {SOURCE.parent}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    trace = bool(args.trace)
    censuses = functools.lru_cache(maxsize=None)(oracle.census)

    if trace:
        import_s, numpy_import_s = importtime_samples(env, IMPORTTIME_SAMPLES)
        sampler = None
    else:
        sampler = SetupSampler(env)

    cli = workloads.WORKLOADS[args.workload]
    client = ChildClient(env, trace) if trace or not cli else CliClient(env)
    try:
        answered, busy, round_hashes = run_rounds(
            args.workload, args.seed, args.seconds, client, censuses, sampler)
    finally:
        client.close()
    while sampler is not None and len(sampler.samples) < SETUP_MIN_SAMPLES:
        sampler.take(sampler.due)
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    failures = score(args.workload, answered, censuses)
    attempted, failed = len(answered), len(failures)
    latencies = [resp["seconds"] for _, resp in answered]
    tail_s, tail_pct = tail(latencies)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "one closed-loop client; "
        + ("one python -m cnotswap child per answer" if cli and not trace
           else "one answering child interpreter"),
        "inputs": {
            "rounds": len(round_hashes),
            "round_sha256": round_hashes,
            "sha256": workloads.inputs_digest([req for req, _ in answered]),
            "d_values": [req["d"] for req, _ in answered],
        },
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "latency_tail_percentile": tail_pct,
        "latency_samples": attempted,
        "latencies_s": latencies,
        "workload_wall_s": busy,
    }
    if trace:
        metrics = layer_metrics(answered, censuses, client.spans, client.alloc_spans)
        metrics["init.import_s"] = import_s
        metrics["init.numpy_import_s"] = numpy_import_s
        units = PER_LAYER_UNITS
        report["computed_metrics"] = COMPUTED
        report["spans"] = len(client.spans)
    else:
        metrics = {
            "setup_s": statistics.median(sampler.samples),
            "answers_per_s": (attempted - failed) / busy if busy > 0 else 0.0,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "peak_rss_mb": peak_rss,
        }
        report["setup_samples_s"] = sampler.samples
        units = END_TO_END_UNITS
    report["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if trace:
        spans = {"spans": client.spans, "alloc_spans": client.alloc_spans,
                 "fields": ["name", "start", "end", "parent", "answer", "detail"]}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
