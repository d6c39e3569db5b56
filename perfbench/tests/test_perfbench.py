"""Tests of the benchmark itself, on the toy-size workloads."""

import itertools
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import SMOKE, WORKLOADS, write_edge_file  # noqa: E402

cli, scheduler = bench.load_program(ROOT)
END_TO_END = bench.declared(ROOT, "end_to_end")
PER_LAYER = bench.declared(ROOT, "per_layer")


def run(name, seed, trace=False):
    """A toy-size run with no timed loop and one set-up sample."""
    return bench.run(SMOKE[name], seed, 0, trace, setup_repeats=1)


def test_declared_workloads_are_runnable():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert list(SMOKE) == list(WORKLOADS)


def test_smoke_mode_runs_every_workload(capsys):
    start = time.perf_counter()
    assert bench.main(["--smoke"]) == 0
    elapsed = time.perf_counter() - start
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == len(SMOKE)
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    assert elapsed < 10  # about 2 s; generous for a loaded host


@pytest.mark.parametrize("name", list(SMOKE))
def test_untraced_run_reports_every_end_to_end_metric(name):
    details, result = run(name, 3)
    assert result["correct"], details["problems"]
    assert result["attempted"] == 2 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(details["setup_s"]) == 1


def test_set_up_samples_are_spread_over_the_run(monkeypatch):
    events = []
    command = bench.run_command

    def counted(cli, argv):
        events.append("c")
        return command(cli, argv)

    monkeypatch.setattr(bench, "run_command", counted)
    details, result = bench.run(SMOKE["verify-n512"], 3, 0.5, False, setup_repeats=5,
                                time_setup=lambda root, config: events.append("s") or 0.1)
    assert result["correct"], details["problems"]
    assert events.count("s") == 5 and result["metrics"]["setup_s"]["value"] == 0.1
    timed = "".join(events[1:])  # after the reference command
    assert timed.startswith("s") and "csc" in timed  # some run between commands


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_run_restores_names_and_keeps_digests(name):
    originals = [(module, attr, getattr(module, attr))
                 for _, module, attr in bench.trace_targets(cli, scheduler)]
    plain, _ = run(name, 5)
    traced, result = run(name, 5, trace=True)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)
    assert traced["unwrapped"] == []
    # Each traced command's digest is checked against the untraced
    # reference command inside the run; across runs the digests agree too.
    assert result["correct"], traced["problems"]
    assert traced["digest"] == plain["digest"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER


DECLARED = [w["name"] for w in
            json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", DECLARED)
def test_declared_workloads_report_every_layer(name):
    # A traced run reports every per-layer metric; on a declared workload
    # none may read 0, as a layer the command does not use would.
    details, result = run(name, 1, trace=True)
    assert result["correct"], details["problems"]
    zero = [k for k, m in result["metrics"].items() if not m["value"] > 0]
    assert zero == []


def test_layer_spans_match_the_workload():
    verify = run("verify-n512", 1, trace=True)[0]["layer_self_s"]
    ingest = run("ingest-300k", 1, trace=True)[0]["layer_self_s"]
    for label in ("fw.reference", "fw.blocked", "graphs.gen", "graphs.layout",
                  "scheduler.functional"):
        assert verify[label] > 0 and label not in ingest
    assert ingest["graphs.load_edge_list"] > 0 and ingest["cli.report"] > 0
    assert "graphs.load_edge_list" not in verify


@pytest.mark.parametrize("name", ["verify-m32", "sweep-channels"])
def test_model_values_repeat_exactly(name):
    first = run(name, 1, trace=True)[0]["model"]
    second = run(name, 2, trace=True)[0]["model"]
    assert first == second and first


def test_shared_kernel_bug_is_caught_by_the_oracle(monkeypatch):
    # fw_reference and simulate_functional return the same wrong matrix, as
    # a bug in one kernel shared by both would: the CLI's verify still passes.
    def corrupt(d):
        d = d.copy()
        d[0, -1] = 1 if d[0, -1] != 1 else 2
        return d

    reference, functional = cli.fw_reference, cli.simulate_functional
    monkeypatch.setattr(cli, "fw_reference", lambda d: corrupt(reference(d)))

    def wrong_functional(*args, **kwargs):
        d, result = functional(*args, **kwargs)
        return corrupt(d), result

    monkeypatch.setattr(cli, "simulate_functional", wrong_functional)
    details, result = run("verify-n512", 3)
    assert not result["correct"]
    assert result["failed"] == 1 and details["fail_ratio"] == 0.5
    assert details["problems"][0].startswith("reference command: oracle:")


def test_output_that_changes_between_commands_fails(monkeypatch):
    simulate, calls = cli.simulate, itertools.count()
    points = len(SMOKE["sweep-channels"].values)

    def drifting(*args, **kwargs):
        result = simulate(*args, **kwargs)
        if next(calls) >= points:  # every command after the reference one
            result.total_cycles += 1
        return result

    monkeypatch.setattr(cli, "simulate", drifting)
    details, result = run("sweep-channels", 3)
    assert result["failed"] == 1 and details["fail_ratio"] == 0.5
    assert "digest" in details["problems"][0]


def test_crashing_command_fails(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "build_report", broken)
    details, result = run("ingest-300k", 3)
    assert result["failed"] == result["attempted"] == 2
    assert "RuntimeError: injected" in details["problems"][0]


def test_tracer_counts_self_time_and_restores_after_an_error():
    module = types.ModuleType("fake")

    def inner():
        time.sleep(0.01)
        return 7

    def outer():
        return module.inner() + 1

    module.inner, module.outer = inner, outer
    tracer = spans.Tracer([("in", module, "inner"), ("out", module, "outer"),
                           ("gone", module, "absent")])
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert module.outer() == 8
            raise RuntimeError
    assert module.inner is inner and module.outer is outer
    assert tracer.missing == ["fake.absent"]
    self_s, calls, wrapped = tracer.take()
    assert calls == {"in": 1, "out": 1}
    assert self_s["in"] >= 0.01 > self_s["out"]
    assert wrapped == pytest.approx(self_s["in"] + self_s["out"])
    assert tracer.take() == ({}, {}, 0.0)


def test_edge_file_is_seeded_and_covers_every_parser_branch(tmp_path):
    from fwsim.graphs import load_edge_list

    paths = [tmp_path / name for name in ("a", "b", "c")]
    for path, seed in zip(paths, (7, 7, 8)):
        write_edge_file(path, seed, 5000, 300)
    assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()
    lines = paths[0].read_text().splitlines()
    data = [line for line in lines if line and not line.startswith("#")]
    fields = [line.split() for line in data]
    assert len(data) == 5000 and "" in lines and lines[0].startswith("#")
    assert any("\t" in line for line in data) and any(" " in line for line in data)
    assert {len(f) for f in fields} == {2, 3}
    assert any(f[0] == f[1] for f in fields)
    pairs = [frozenset(f[:2]) for f in fields if f[0] != f[1]]
    assert len(set(pairs)) < len(pairs)
    assert max(int(f[0]) for f in fields) > 300  # raw ids are sparse
    assert load_edge_list(paths[0], directed=False).num_vertices == 300


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n512",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
