"""Benchmark of the fwsim CLI: host time and memory per command, and a traced
run that splits command time over the program's layers.

    python3 perfbench/run.py --workload verify-n512 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source tree; the program is imported from ./src.
Each run is one single-threaded process that calls ``fwsim.cli.main(argv)``
in-process until --seconds have passed, after one untimed reference command
(on the verify workloads also checked against scipy once the timed commands
are done). Every command's output must be correct and hash to the reference
command's digest. The metric names and units are those BENCHMARK.json declares.

The last line of stdout is the result: with --trace 0 the end-to-end metrics
(set-up, median command time, peak memory), with --trace 1 the per-layer
metrics. The line before it holds the details: every sample, digests, the
input checksum, failures and the environment.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import importlib.metadata
import io
import json
import platform
import resource
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import Tracer
from workloads import SMOKE, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent

# Fresh interpreters started per untraced run to time set-up, spread evenly
# over the run; the median is reported.
SETUP_REPEATS = 31

SETUP_CODE = "import fwsim.cli as cli; cli.load_config({config!r})"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def declared(root: Path, kind: str) -> dict[str, str]:
    """Name -> unit of the metrics of one kind ("end_to_end" or "per_layer")
    that BENCHMARK.json under root declares."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        return {m["name"]: m["unit"] for m in spec[kind]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the {kind} metrics of BENCHMARK.json: {exc!r}")


def load_program(root: Path):
    """Import the CLI and the scheduler from the source tree under root."""
    src = root / "src"
    if not (src / "fwsim" / "cli.py").is_file():
        raise BenchError(f"no fwsim source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from fwsim import cli, scheduler

    return cli, scheduler


def trace_targets(cli, scheduler) -> list:
    """The spans of a traced command: each public function where the CLI or
    the scheduler calls it. perf is called only from inside the scheduler,
    so its time counts in scheduler.*."""
    return [
        ("graphs.load_edge_list", cli, "load_edge_list"),
        ("graphs.gen", cli, "gen_synthetic"),
        ("graphs.gen", cli, "build_distance_matrix"),
        ("fw.reference", cli, "fw_reference"),
        ("scheduler.simulate", cli, "simulate"),
        ("scheduler.functional", cli, "simulate_functional"),
        ("scheduler.utilization", cli, "utilization_report"),
        ("cli.report", cli, "build_report"),
        ("hbm.load_config", cli, "load_config"),
        ("fw.blocked", scheduler, "fw_blocked"),
        ("graphs.layout", scheduler, "to_tile_major"),
        ("graphs.layout", scheduler, "from_tile_major"),
        ("scheduler.simulate", scheduler, "simulate"),
    ]


def run_command(cli, argv: list[str]) -> Outcome:
    """One in-process CLI invocation with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = None
            traceback.print_exc()
        seconds = perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, faults)


def measure_setup(root: Path, config: str) -> float:
    """Wall-clock seconds for a fresh interpreter that imports the CLI and
    loads the workload's config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(config=config)],
                   cwd=root, env=env, check=True, capture_output=True, timeout=60)
    return perf_counter() - start


def speed_probe() -> float:
    """Seconds for a fixed amount of pure-Python work. Taken before every
    command, it shows how fast the host ran during a run; metrics are not
    divided by it."""
    start = perf_counter()
    acc = 0
    for i in range(500_000):
        acc ^= i * 7
    return perf_counter() - start


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0")
        source.update(path.read_bytes())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(root),
        "source_sha256": source.hexdigest(),
    }


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_medians(takes) -> dict[str, float]:
    """Median over traced commands of each span label's self time per command."""
    labels = sorted({label for t in takes for label in t["self"]})
    return {label: median(t["self"].get(label, 0.0) for t in takes) for label in labels}


def layer_metrics(workload, takes, plain_s, model) -> dict:
    """Per-layer metrics from the traced commands' spans: medians over
    commands of each layer's self time per command, work counts divided by
    those times, and the model outputs at the workload's design point."""
    layer = layer_medians(takes)

    def med(*labels):
        return sum(layer.get(label, 0.0) for label in labels)

    reference = med("fw.reference")
    blocked = med("fw.blocked")
    simulate = med("scheduler.simulate")
    return {
        "graphs.gen_s": med("graphs.gen"),
        "graphs.layout_s": med("graphs.layout"),
        "fw.reference_s": reference,
        "fw.blocked_s": blocked,
        "fw.reference_relax_per_s": _rate(workload.reference_relax, reference),
        "fw.blocked_relax_per_s": _rate(workload.blocked_relax, blocked),
        "scheduler.simulate_s": simulate,
        "scheduler.tileops_per_s": _rate(workload.tileops, simulate),
        "scheduler.functional_self_s": med("scheduler.functional"),
        "cli.self_s": median(t["seconds"] - t["wrapped"] for t in takes),
        "hbm.load_config_s": med("hbm.load_config"),
        "trace.overhead_ratio": median(t["seconds"] for t in takes) / median(plain_s),
        **model,
    }


def run(workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, time_setup=measure_setup,
        root: Path = ROOT) -> tuple[dict, dict]:
    """One benchmark run. Untraced, it reports the end-to-end metrics and
    calls time_setup(root, config) setup_repeats times; traced, it reports
    the per-layer metrics. Returns (details, result)."""
    units = declared(root, "per_layer" if trace else "end_to_end")
    cli, scheduler = load_program(root)

    def command(argv):
        return run_command(cli, argv)

    tracer = Tracer(trace_targets(cli, scheduler))
    plain_s, plain_faults, takes, problems, probe_s, setup_s = [], [], [], [], [], []

    def take_setup(until: int):
        while len(setup_s) < until:
            setup_s.append(time_setup(root, workload.config))

    model = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            inputs = workload.prepare(seed, workdir)
            ref, check_reference = workload.reference(seed, command, cli)
            attempted, failed = 1, 0
            start = perf_counter()
            deadline = start + seconds
            i = 0
            while True:
                i += 1
                if not trace:
                    # Set-up samples are spread over the run, between
                    # commands, so they see the same drift of the host.
                    share = (perf_counter() - start) / seconds if seconds else 0
                    take_setup(min(setup_repeats, int(setup_repeats * share) + 1))
                argv = workload.argv(seed + i)
                probe_s.append(speed_probe())
                # A traced run alternates untraced and traced commands, so
                # both medians see the same drift of the host.
                if trace and i % 2 == 0:
                    with tracer.installed():
                        outcome = command(argv)
                    self_s, calls, wrapped = tracer.take()
                    takes.append({"self": self_s, "calls": calls, "wrapped": wrapped,
                                  "seconds": outcome.seconds})
                else:
                    outcome = command(argv)
                    plain_s.append(outcome.seconds)
                    plain_faults.append(outcome.faults)
                attempted += 1
                problem = workload.problem(outcome)
                if problem is None and outcome.digest != ref.digest:
                    problem = (f"output digest {outcome.digest[:16]} differs from "
                               f"the reference command's {ref.digest[:16]}")
                if problem:
                    failed += 1
                    problems.append(f"command {i}: {problem}")
                if perf_counter() >= deadline and (not trace or takes):
                    break
            if not trace:
                take_setup(setup_repeats)
            # Read before the reference check, whose memory (scipy on
            # verify) belongs to the benchmark, not to the program.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            checked, ref_problems = check_reference()
            if ref_problems:
                failed += 1
                problems[:0] = [f"reference command: {p}" for p in ref_problems]
            if trace and not ref_problems:
                model, model_problems = workload.model(ref, command, workdir)
                attempted += 1
                if model_problems:
                    failed += 1
                    problems += [f"model: {p}" for p in model_problems]
        finally:
            os.chdir(cwd)

    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": workload.argv(seed + 1),
        "inputs": inputs,
        "reference": checked,
        "digest": ref.digest,
        "samples": len(plain_s),
        "cmd_s": plain_s,
        "cmd_faults": plain_faults,
        "setup_s": setup_s,
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
        "probe_s": probe_s,
        "env": environment(root),
    }
    if trace:
        metrics = layer_metrics(workload, takes, plain_s, model)
        details["layer_self_s"] = layer_medians(takes)
        details["traced_cmd_s"] = [t["seconds"] for t in takes]
        details["calls"] = takes[0]["calls"]
        details["model"] = model
        details["unwrapped"] = tracer.missing
    else:
        metrics = {
            "setup_s": median(setup_s),
            "cmd_p50_s": median(plain_s),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # A metric is missing only from a failed run: the model values are
        # not taken when the reference command is wrong.
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, one timed command each")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        load_program(ROOT)
        if args.smoke:
            # The toy workloads share one config, so one set-up sample serves all.
            time_setup = functools.cache(measure_setup)
            ok = True
            for workload in SMOKE.values():
                details, result = run(workload, args.seed, 0, bool(args.trace), 1,
                                      time_setup)
                ok &= result["correct"]
                print(json.dumps({"details": details}, sort_keys=True))
                print(json.dumps(result))
            return 0 if ok else 1
        details, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
