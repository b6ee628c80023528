"""Tests of the benchmark itself, on small seeded inputs.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository
root.  Each oracle must agree with the real CLI, a wrong output or exit code
must count as a failure, and one seed must always give the same input bytes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import oracles
import run
import tracing
import workloads

SMALL_SPARSE = dict(n=30, epsilon=None)
SMALL_COPIES = dict(component_n=6, copies=4, copy_pairs=6, epsilon=None)


@pytest.fixture
def runner(tmp_path):
    return run.ChildRunner(tmp_path)


def errors(runner, prepared):
    return [runner.run(argv, check).error for argv, check in prepared.cases]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_oracle_agrees_with_upto(tmp_path, runner, seed):
    prepared = workloads.prepare_sparse_bisim(seed, tmp_path, **SMALL_SPARSE)
    assert errors(runner, prepared) == [None]
    # the oracle's epsilon is the one `upto strata` reports
    aut = tmp_path / "sparse.aut"
    system = workloads.pinned_system("sparse-bisim", seed, 30, None)
    epsilon = len(oracles.partition_chain(system)) - 1
    expected_last = f"epsilon = {epsilon}".encode()
    check = lambda rc, out: None if out.splitlines()[-1] == expected_last else out.splitlines()[-1]
    assert runner.run(("strata", str(aut)), check).error is None


def test_pinned_epsilon_is_met():
    system = workloads.pinned_system("sparse-bisim", 3, 200, 3)
    assert len(oracles.partition_chain(system)) - 1 == 3


def test_ladder_oracle_agrees_with_upto(tmp_path, runner):
    prepared = workloads.prepare_ladder_strata(4, tmp_path, n=5)
    assert errors(runner, prepared) == [None]


def test_ladder_oracle_line_sizes():
    n = 7
    _, perm = inputs.ladder_system(inputs.rng_for("ladder-strata", 0), n)
    lines = oracles.expected_ladder_strata(n, perm).decode().splitlines()
    assert lines[-1] == f"epsilon = {n}"
    for g, line in enumerate(lines[:-1]):
        assert line.startswith(f"~{g} = ")
        assert line.count("(") == oracles.ladder_line_pairs(n, g)


def test_copies_oracle_agrees_with_upto(tmp_path, runner):
    prepared = workloads.prepare_check_upto_copies(5, tmp_path, **SMALL_COPIES)
    assert errors(runner, prepared) == [None]


def test_verify_oracle_agrees_with_upto(tmp_path, runner):
    prepared = workloads.prepare_verify(6, tmp_path, samples=20, shared=(1,))
    assert [argv[2] for argv, _ in prepared.cases] == ["6", "6", "1"]
    assert errors(runner, prepared) == [None, None, None]


def test_wrong_output_or_exit_code_is_a_failure(tmp_path, runner):
    prepared = workloads.prepare_sparse_bisim(0, tmp_path, **SMALL_SPARSE)
    _, check = prepared.cases[0]
    good = oracles.expected_bisim(workloads.pinned_system("sparse-bisim", 0, 30, None))
    assert check(0, good) is None
    assert check(0, good.replace(b"(0,0)", b"(0,1)")) is not None
    assert check(0, good[:-2] + b"\n") is not None
    assert check(1, good) is not None
    # through a real child: a nonexistent input exits with code 2
    assert runner.run(("bisim", str(tmp_path / "missing.aut")), check).error == "exit code 2, expected 0"
    # and T_1 is not the T_0 the setup probe expects
    assert runner.run(("gallery", "1"), workloads.setup_check).error is not None


def test_verify_check_rejects_failures_and_drift():
    (_, check), = workloads.prepare_verify(0, Path("."), samples=1, shared=()).cases[1:]
    report = b"upto verification report\nseed = 0\n\nresult: 27 checks, 27 passed, 0 failed\n"
    assert check(0, report) is None
    assert check(0, report) is None
    assert check(0, report.replace(b"seed = 0", b"seed = 1")) is not None
    assert check(1, report) is not None
    assert check(0, report.replace(b"27 passed, 0 failed", b"26 passed, 1 failed")) is not None


@pytest.mark.parametrize(
    "prepare",
    [
        lambda seed, d: workloads.prepare_sparse_bisim(seed, d, **SMALL_SPARSE),
        lambda seed, d: workloads.prepare_ladder_strata(seed, d, n=5),
        lambda seed, d: workloads.prepare_check_upto_copies(seed, d, **SMALL_COPIES),
    ],
)
def test_same_seed_same_input_hashes(tmp_path, prepare):
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir(), (tmp_path / "c").mkdir()
    first = prepare(7, tmp_path / "a").input_sha256
    assert first and prepare(7, tmp_path / "b").input_sha256 == first
    assert prepare(8, tmp_path / "c").input_sha256 != first


def test_sparse_generator_edge_count():
    n, triples = inputs.sparse_system(inputs.rng_for("t", 0), 50, ("a", "b"), 2.4)
    for label in ("a", "b"):
        edges = [(p, q) for p, a, q in triples if a == label]
        assert len(edges) == len(set(edges)) == 120
        assert all(0 <= p < n and 0 <= q < n for p, q in edges)


def test_benchmark_json_lists_the_workloads_and_layers():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w for w in workloads.WORKLOADS if w != "ladder-strata"]
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.PER_LAYER
    ]


def _traced(tmp_path, bindings):
    prepared = workloads.prepare_ladder_strata(1, tmp_path, n=6)
    (argv, check), = prepared.cases
    inv = tracing.traced_invocation(list(argv), bindings)
    assert inv.error is None and check(inv.exit_code, inv.stdout) is None
    return inv.metrics


def test_traced_self_times_add_up(tmp_path):
    m = _traced(tmp_path, tracing.resolve_bindings())
    self_times = sum(
        m[x.name] for x in tracing.PER_LAYER if x.unit == "s" and not x.name.startswith("trace.")
    )
    assert self_times == pytest.approx(m["trace.wall_s"], rel=1e-6)
    assert m["lts.states"] == 7 and m["strata.epsilon"] == 6 and m["lts.progress_calls"] == 7


def test_missing_binding_reports_layer_absent(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.BINDINGS, "lts.progress", ("upto.strata.no_such_function",))
    bindings = tracing.resolve_bindings()
    assert "lts.progress" not in bindings
    m = _traced(tmp_path, bindings)
    values = tracing.summarize([m], {}, 0.0, bindings)
    assert "lts.progress_s" not in values and "lts.progress_calls" not in values
    assert "strata.self_s" in values


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(f, bench)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-strata", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
