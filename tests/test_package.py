"""The package's public surface: its exports, its console script, and the
names the benchmark harness in ``bench/`` calls and wraps."""

import functools
import importlib
import tomllib
from pathlib import Path

import pytest

import cnotswap
# build_tracers reads these submodules as attributes of the package, and
# cnotswap.cli alone no longer loads the numpy-backed cnotswap.perm
import cnotswap.cli  # noqa: F401
import cnotswap.perm  # noqa: F401
import cnotswap.synthesis  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

EXPORTS = [
    "CostGuardError", "Decision", "GENERATORS", "GateKind", "GateWord", "GroupCensus",
    "GroupTooLarge", "ParityReport", "Perm", "SearchOutcome", "SynthesisResult", "Verdict",
    "__version__", "apply_word", "as_linear_map", "decide", "enumerate_group", "find_word",
    "gate_perm", "sl2_order", "swap_signature_formula",
]


def test_exports_resolve_and_the_console_script_is_callable():
    names = cnotswap.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cnotswap, name), name
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"cnotswap": "cnotswap.cli:main"}
    module, _, attr = scripts["cnotswap"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_exports_are_exactly_the_public_list():
    # adding or removing an export has to be an edit here as well
    assert sorted(cnotswap.__all__) == EXPORTS


# where each export is defined; Perm is the one the package resolves on access
DEFINED_IN = {
    "cnotswap.guards": ["CostGuardError"],
    "cnotswap.perm": ["Perm"],
    "cnotswap.gates": ["GENERATORS", "GateKind", "as_linear_map", "gate_perm"],
    "cnotswap.feasibility": ["Decision", "ParityReport", "Verdict", "decide",
                             "swap_signature_formula"],
    "cnotswap.synthesis": ["GateWord", "GroupCensus", "GroupTooLarge", "SearchOutcome",
                           "SynthesisResult", "apply_word", "enumerate_group", "find_word",
                           "sl2_order"],
}


def test_star_import_and_dir_give_every_export():
    namespace = {}
    exec("from cnotswap import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert set(EXPORTS) <= set(dir(cnotswap))


def test_each_export_is_the_object_of_its_defining_module():
    assert sorted(["__version__", *(name for names in DEFINED_IN.values() for name in names)]) \
        == EXPORTS
    for module, names in DEFINED_IN.items():
        for name in names:
            assert getattr(cnotswap, name) is getattr(importlib.import_module(module), name), name


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        cnotswap.no_such_export  # noqa: B018


def test_the_benchmark_child_wraps_and_calls_what_exists(monkeypatch):
    # bench/child.py wraps these attributes for --trace 1 and calls
    # find_word(d, Perm(list), max_dimension=...) for the library workload
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    child = importlib.import_module("child")
    tracer, alloc = child.build_tracers(cnotswap)
    patched = {(owner.__name__, attr) for owner, attr, _, _ in tracer.installed}
    assert patched == {
        ("cnotswap.cli", name)
        for name in ("main", "find_word", "enumerate_group", "decide", "gate_perm")
    } | {
        ("cnotswap.feasibility", "gate_perm"), ("cnotswap.synthesis", "find_word"),
        ("Perm", "signature"), ("Perm", "cycle_type"),
    }
    assert {(owner.__name__, attr) for owner, attr, _, _ in alloc.installed} == {
        ("cnotswap.cli", "find_word"), ("cnotswap.cli", "enumerate_group"),
        ("cnotswap.synthesis", "find_word"),
    }

    # the matrix of CNOT2 then CNOT1, in circuit time; answer_library builds
    # its Perm from a list table
    request = {"d": 16, "target": [1, 1, 1, 2], "max_dimension": 40}
    response, _ = child.answer_with(tracer, cnotswap, request)
    assert response == {"outcome": "FOUND", "word": ["CNOT2", "CNOT1"]}
    assert [span[0] for span in tracer.spans] == ["synthesis.search"]

    # the per-layer gates.builds metric counts these spans: decide builds
    # all three gates, analyze its one gate and synth its SWAP target
    for argv, builds in (("decide --d 7", 3), ("analyze --d 7 --gate swap", 1),
                         ("synth --d 2", 1)):
        tracer.spans.clear()
        response, _ = child.answer_with(tracer, cnotswap, {"argv": argv.split()})
        assert response["code"] in (0, 1) and not response["stderr"], response
        assert [span[0] for span in tracer.spans].count("gates.build") == builds, argv


def test_a_library_benchmark_round_passes_the_bench_oracle(monkeypatch):
    # round 0 of seed 1: 100 find_word requests over d in [16, 40], answered
    # one after another in this process, as bench/child.py answers them
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    child = importlib.import_module("child")
    oracle = importlib.import_module("oracle")
    workloads = importlib.import_module("workloads")
    censuses = functools.lru_cache(maxsize=None)(oracle.census)
    requests = workloads.reachable_words_round(1, 0, censuses)
    assert len(requests) == 100
    for request in requests:
        response, _ = child.answer_library(cnotswap, request)
        assert workloads.check_word(request, response, censuses) is None, request
