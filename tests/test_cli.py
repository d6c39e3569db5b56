"""CLI exit-code contract: 0 success, 1 verification failure, 2 usage or
configuration error, and never a traceback."""

import json

import numpy as np
import pytest

from fwsim import cli, default_config, scheduler

RUN = ["run", "--nodes", "64", "--block-size", "16"]
SWEEP = ["sweep", "--nodes", "64", "--block-size", "16", "--param", "channels",
         "--values", "4,8"]
VERIFY = ["verify", "--nodes", "24", "--block-size", "8", "--trials", "2"]
COMPARE = ["compare", "--report", "{tmp}/report.json", "--baseline-runtime", "1"]
# A report whose time and energy are the least subnormal float: a 1e300
# baseline over either overflows.
COMPARE_TINY = ["compare", "--report", "{tmp}/tiny.json", "--baseline-runtime"]


def invoke(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def files(tmp_path):
    (tmp_path / "not_json.json").write_text("[1")
    (tmp_path / "partial.json").write_text('{"calibrated": {}}')
    (tmp_path / "zero_time.json").write_text(
        '{"calibrated": {"total_time_seconds": 0, "energy_joules": 1.0}}')
    (tmp_path / "wrong_type.json").write_text('{"channels": "8"}')
    (tmp_path / "report.json").write_text(
        '{"calibrated": {"total_time_seconds": 1.0, "energy_joules": 1.0}}')
    for name, doc in CONFIG_DOCS.items():
        (tmp_path / f"{name}.json").write_text(doc)
    for name, (seconds, joules) in REPORT_VALUES.items():
        (tmp_path / f"report-{name}.json").write_text(
            '{"calibrated": {"total_time_seconds": %s, "energy_joules": %s}}' % (seconds, joules))
    (tmp_path / "tiny.json").write_text(
        '{"calibrated": {"total_time_seconds": 5e-324, "energy_joules": 5e-324}}')
    (tmp_path / "edges.txt").write_text("0 1 2\n1 2\n")
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "not_utf8.txt").write_bytes(b"0 1 2\n\xff 3\n")
    (tmp_path / "directory").mkdir()
    return tmp_path


# Config documents of the right JSON types that validation must still reject.
CONFIG_DOCS = {
    "t-rc-overflow": '{"timing": {"t_rc_ns": 1e400}}',
    "e-tsv-overflow": '{"energy": {"e_tsv_bit_pj": 1e400}}',
    "t-rc-nan": '{"timing": {"t_rc_ns": NaN}}',
    "channels-huge": '{"channels": 99999999999999999999}',
    "channels-1e9": '{"channels": 1000000000}',
    "removed-key": '{"row_bits": 8192}',
    # Past the interpreter's limit on the digits of an int read from text.
    "channels-5000-digits": '{"channels": %s}' % ("1" * 5000),
    # Valid values whose modeled time or energy overflows a float in seconds
    # or joules.
    "clock-period-1e400": '{"clock_period_ps": 1%s}' % ("0" * 400),
    "operand-bits-1e400": '{"pim": {"operand_bits": 1%s}}' % ("0" * 400),
    "e-activate-1e305": '{"energy": {"e_activate_pj": 1e305}}',
}

# Report values compare must refuse: not finite, or a JSON bool (a Python int).
REPORT_VALUES = {
    "time-inf": ("Infinity", "1.0"),
    "time-nan": ("NaN", "1.0"),
    "time-true": ("true", "1.0"),
    "energy-inf": ("1.0", "Infinity"),
    "energy-false": ("1.0", "false"),
}

BAD_INPUTS = {
    "run-nodes-0": ["run", "--nodes", "0", "--block-size", "8"],
    "run-block-size-0": ["run", "--nodes", "8", "--block-size", "0"],
    "run-no-workload": ["run", "--block-size", "8"],
    "run-graph-and-nodes": ["run", "--graph", "{tmp}/edges.txt", "--nodes", "5",
                            "--block-size", "2"],
    "run-graph-not-utf8": ["run", "--graph", "{tmp}/not_utf8.txt", "--block-size", "2"],
    "run-undirected-without-graph": ["run", "--nodes", "16", "--block-size", "4",
                                     "--undirected"],
    "run-config-not-utf8": RUN + ["--config", "{tmp}/not_utf8.json"],
    "run-config-directory": RUN + ["--config", "{tmp}/directory"],
    "run-config-missing": RUN + ["--config", "{tmp}/missing.json"],
    "run-config-wrong-type": RUN + ["--config", "{tmp}/wrong_type.json"],
    **{f"run-config-{name}": RUN + ["--config", f"{{tmp}}/{name}.json"]
       for name in CONFIG_DOCS},
    "run-out-directory": RUN + ["--out", "{tmp}/directory"],
    "run-wavefront-violated": ["run", "--nodes", "8192", "--block-size", "256"],
    "run-nodes-1e200": ["run", "--nodes", str(10**200), "--block-size", str(10**200)],
    # Schedules whose cycle counts could pass 2^63 - 1, the scheduler's int64.
    "run-nodes-1e7": ["run", "--nodes", "10000000", "--block-size", "10000000"],
    "run-relaxed-m-1e12": ["run", "--nodes", str(10**12), "--block-size", "1",
                           "--relax-wavefront"],
    "verify-nodes-0": ["verify", "--nodes", "0", "--block-size", "8"],
    "verify-block-size-0": ["verify", "--nodes", "8", "--block-size", "0"],
    "verify-no-nodes": ["verify", "--block-size", "8"],
    "verify-config-not-utf8": VERIFY + ["--config", "{tmp}/not_utf8.json"],
    "verify-trials-0": VERIFY[:5] + ["--trials", "0"],
    "verify-density-2": VERIFY + ["--density", "2"],
    "verify-graph": VERIFY + ["--graph", "{tmp}/missing.txt"],
    "verify-undirected": VERIFY + ["--undirected"],
    "verify-seed-negative": VERIFY + ["--seed", "-1"],
    "verify-relax-wavefront": VERIFY + ["--relax-wavefront"],
    # The functional guard (padded n <= 4096) trips before the graph is built.
    "verify-nodes-4097": ["verify", "--nodes", "4097", "--block-size", "4097",
                          "--trials", "1", "--density", "0.0001"],
    "sweep-block-size-0": ["sweep", "--nodes", "64", "--block-size", "0",
                           "--param", "channels", "--values", "4"],
    "sweep-value-0": ["sweep", "--nodes", "64", "--param", "block_size", "--values", "0,8"],
    "sweep-no-nodes": ["sweep", "--block-size", "8", "--param", "channels",
                       "--values", "4"],
    "sweep-no-block-size": ["sweep", "--nodes", "64", "--param", "channels", "--values", "4"],
    # The swept parameter's own flag would be ignored, so it is refused.
    "sweep-n-with-nodes": ["sweep", "--nodes", "999", "--block-size", "8",
                           "--param", "n", "--values", "16,32"],
    "sweep-block-size-with-block-size": ["sweep", "--nodes", "64", "--block-size", "999",
                                         "--param", "block_size", "--values", "4,8"],
    "sweep-not-increasing": SWEEP[:-1] + ["8,4"],
    "sweep-values-empty": SWEEP[:-1] + [""],
    "sweep-parallel": SWEEP + ["--parallel", "2"],
    "sweep-graph": SWEEP + ["--graph", "{tmp}/missing.txt"],
    "sweep-undirected": SWEEP + ["--undirected"],
    "project-zero": ["project", "--measured-seconds", "0", "--measured-n", "8",
                     "--target-n", "16"],
    "project-target-1e200": ["project", "--measured-seconds", "1", "--measured-n", "1",
                             "--target-n", str(10**200)],
    "compare-report-directory": ["compare", "--report", "{tmp}/directory",
                                 "--baseline-runtime", "1"],
    "compare-report-missing": ["compare", "--report", "{tmp}/missing.json",
                               "--baseline-runtime", "1"],
    "compare-report-not-json": ["compare", "--report", "{tmp}/not_json.json",
                                "--baseline-runtime", "1"],
    "compare-report-incomplete": ["compare", "--report", "{tmp}/partial.json",
                                  "--baseline-runtime", "1"],
    "compare-report-zero-time": ["compare", "--report", "{tmp}/zero_time.json",
                                 "--baseline-runtime", "1"],
    **{f"compare-report-{name}": COMPARE[:2] + [f"{{tmp}}/report-{name}.json"] + COMPARE[3:]
       for name in REPORT_VALUES},
    "compare-speedup-overflow": COMPARE_TINY + ["1e300"],
    "compare-energy-ratio-overflow": COMPARE_TINY + ["1e-300", "--baseline-energy", "1e300"],
    "compare-runtime-0": ["compare", "--report", "{tmp}/partial.json",
                          "--baseline-runtime", "0"],
    "compare-runtime-nan": COMPARE[:-1] + ["nan"],
    "compare-runtime-inf": COMPARE[:-1] + ["inf"],
    "compare-energy-nan": COMPARE + ["--baseline-energy", "nan"],
    "compare-energy-inf": COMPARE + ["--baseline-energy", "inf"],
    "compare-energy-negative": COMPARE + ["--baseline-energy", "-1"],
    "unknown-command": ["frobnicate"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_a_usage_error(argv, files, capsys):
    code, _, err = invoke([a.format(tmp=files) for a in argv], capsys)
    assert code == cli.EXIT_USAGE, err
    assert "Traceback" not in err
    assert err.strip()


def test_verify_checks_the_guard_before_building_a_graph(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("gen_synthetic called past the functional guard")

    monkeypatch.setattr(cli, "gen_synthetic", refuse)
    code, _, err = invoke(["verify", "--nodes", scheduler.FUNCTIONAL_GUARD + 1,
                           "--block-size", "8", "--trials", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "guarded" in err


def test_verify_checks_the_config_before_building_a_graph(monkeypatch, files, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("gen_synthetic called with an invalid config")

    monkeypatch.setattr(cli, "gen_synthetic", refuse)
    code, _, err = invoke(VERIFY + ["--config", files / "channels-huge.json"], capsys)
    assert code == cli.EXIT_USAGE
    assert "channels * bank_groups_per_channel" in err


def test_sweep_names_an_invalid_point(capsys):
    code, out, err = invoke(SWEEP[:-1] + ["0,8"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "error: channels must be >= 1, got 0\n"
    assert out == ""


def test_verify_guards_the_padded_size(monkeypatch, capsys):
    """n = 4096 passes the guard unpadded, but b = 4095 pads it to 8190: the
    kernels would work on 8190 x 8190 copies. verify refuses it before any
    graph is built; at b = 64 nothing is padded and the guard passes."""
    def refuse(*args, **kwargs):
        raise AssertionError("gen_synthetic called past the functional guard")

    monkeypatch.setattr(cli, "gen_synthetic", refuse)
    code, _, err = invoke(["verify", "--nodes", "4096", "--block-size", "4095",
                           "--trials", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "guarded" in err and "8190" in err
    assert "Traceback" not in err
    scheduler.check_functional_size(4096, 64)


def test_run_checks_the_timing_guard_before_scheduling(monkeypatch, capsys):
    """m = 100,000 tiles per row would build an m^2 bank-group map (74.5 GiB)
    and then run m^3 tile updates. run refuses it before the first cost
    quote; at m = TIMING_GUARD the guard passes."""
    def refuse(*args, **kwargs):
        raise AssertionError("tile_update_cost called past the timing guard")

    monkeypatch.setattr(scheduler, "tile_update_cost", refuse)
    code, _, err = invoke(["run", "--nodes", "100000", "--block-size", "1",
                           "--relax-wavefront"], capsys)
    assert code == cli.EXIT_USAGE
    assert "guarded" in err and "m=100000" in err
    assert "Traceback" not in err
    with pytest.raises(AssertionError, match="past the timing guard"):
        scheduler.simulate(scheduler.TIMING_GUARD, 1, default_config())


@pytest.mark.parametrize("message", ["Unable to allocate 64.0 GiB for an array", ""])
@pytest.mark.parametrize("kernel", ["fw_reference", "fw_blocked"])
def test_out_of_memory_is_a_usage_error(monkeypatch, capsys, kernel, message):
    """A kernel that cannot allocate its working copy ends verify with one
    error line and exit 2, not a traceback; a MemoryError without a message
    still says what went wrong."""
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli if kernel == "fw_reference" else scheduler, kernel, exhausted)
    code, out, err = invoke(VERIFY, capsys)
    assert code == cli.EXIT_USAGE
    assert err == f"error: {message or 'out of memory'}\n"
    assert "PASS" not in out


def test_verify_mismatch_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "fw_reference", lambda d: np.zeros_like(d))
    code, out, err = invoke(VERIFY, capsys)
    assert code == cli.EXIT_VERIFY_FAILED
    assert err.startswith("verify FAIL: trial 0")
    assert "PASS" not in out


def test_run_and_compare(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert invoke(RUN + ["--out", report], capsys)[0] == cli.EXIT_OK
    modeled = json.loads(report.read_text())["modeled"]
    assert modeled["utilization"]["max"] > 0
    code, out, _ = invoke(["compare", "--report", report, "--baseline-runtime", "1",
                           "--baseline-energy", "1"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["speedup"] > 0
    assert json.loads(out)["energy_ratio"] > 0


def test_verify_passes(capsys):
    code, out, _ = invoke(VERIFY, capsys)
    assert code == cli.EXIT_OK
    assert out.startswith("verify PASS: 2 trials")


def test_sweep(capsys):
    code, out, _ = invoke(SWEEP, capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[0].startswith("parameter,value,total_cycles")
    assert len(out.splitlines()) == 3


def test_sweep_over_n_needs_no_nodes(capsys):
    code, out, _ = invoke(["sweep", "--block-size", "8", "--param", "n",
                           "--values", "16,32"], capsys)
    assert code == cli.EXIT_OK
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("name, flag", [("sweep-n-with-nodes", "--nodes"),
                                        ("sweep-block-size-with-block-size", "--block-size")])
def test_sweep_refuses_the_flag_of_its_parameter(name, flag, capsys):
    code, out, err = invoke(BAD_INPUTS[name], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and line.endswith(f"not {flag}")


def test_undirected_needs_a_graph(files, capsys):
    code, out, err = invoke(BAD_INPUTS["run-undirected-without-graph"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --undirected needs --graph\n"
    # With a graph it reads the same vertex count either way.
    graph = ["run", "--graph", files / "edges.txt", "--block-size", "2"]
    directed = invoke(graph, capsys)
    assert directed[0] == cli.EXIT_OK
    assert invoke(graph + ["--undirected"], capsys) == directed


def test_sweep_with_a_late_bad_point_writes_nothing(capsys):
    # n = 512 is valid at b = 64; n = 4096 stages 128 wavefront tiles on 32
    # bank-groups, which the default config rejects.
    code, out, err = invoke(["sweep", "--block-size", "64", "--param", "n",
                             "--values", "512,4096"], capsys)
    assert code == cli.EXIT_USAGE
    assert "parallelism constraint violated" in err
    assert out == ""


def test_project(capsys):
    code, out, _ = invoke(["project", "--measured-seconds", "2", "--measured-n",
                           "10", "--target-n", "20"], capsys)
    assert code == cli.EXIT_OK
    assert float(out) == 16.0
