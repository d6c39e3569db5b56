"""Command-line interface: run simulations, verify against the reference,
sweep design parameters, project runtimes cubically, and compare against
user-supplied baselines.

Exit codes: 0 success, 1 verification failure, 2 configuration/usage error.
All randomness flows from explicit seeds; reports carry no timestamps, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import FwsimError, ConfigError
from .fw import fw_reference
from .graphs import build_distance_matrix, gen_synthetic, load_edge_list
from .hbm import HbmConfig, config_to_dict, load_config
from .scheduler import (SimResult, check_functional_size, simulate, simulate_functional,
                        tiles_per_row, utilization_report)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

SWEEP_PARAMS = ("channels", "bpes_per_bank", "block_size", "n")


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def build_report(result: SimResult, cfg: HbmConfig, graph_path=None) -> dict:
    """Assemble the JSON run report, separating modeled quantities (cycles,
    counts) from calibrated ones (seconds, joules) and stamping the constants
    used for the latter."""
    u = utilization_report(result)
    return {
        "tool": {"name": "fwsim", "version": __version__},
        "workload": {
            "n": result.n,
            "block_size": result.block_size,
            "tiles_per_row": result.tiles_per_row,
            "padded_n": result.tiles_per_row * result.block_size,
            "graph": graph_path,
        },
        "config": config_to_dict(cfg),
        "modeled": {
            "total_cycles": result.total_cycles,
            "bulk_load_cycles": result.bulk_load_cycles,
            "op_counts": dataclasses.asdict(result.counts),
            "per_bank_group_busy_cycles": result.per_bank_group_busy,
            "utilization": {"max": u["max"], "min": u["min"], "mean": u["mean"]},
        },
        "calibrated": {
            "clock_period_ps": cfg.clock_period_ps,
            "total_time_seconds": result.total_time_seconds,
            "energy": result.energy.as_dict(),
            "energy_joules": result.energy.total_joules,
            "energy_params_pj": dataclasses.asdict(cfg.energy),
        },
    }


def _simulate(n: int, b: int, cfg: HbmConfig, relax_wavefront: bool) -> SimResult:
    """simulate(), refused unless relax_wavefront when the pivot-row/column
    wavefront stages more tiles, 2M for M tiles per row, than the stack has
    bank-groups. The scheduler models such a run; the paper's design avoids it."""
    m = tiles_per_row(n, b)
    if 2 * m > cfg.total_bank_groups and not relax_wavefront:
        raise ConfigError(f"parallelism constraint violated: the wavefront stages "
                          f"2M = {2 * m} pivot-row/column tiles but the stack "
                          f"has only C*G = {cfg.total_bank_groups} bank-groups")
    return simulate(n, b, cfg)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    n = args.nodes
    if args.graph is not None:
        n = load_edge_list(args.graph, directed=not args.undirected).num_vertices
    elif args.undirected:
        raise ConfigError("--undirected needs --graph")
    result = _simulate(n, args.block_size, cfg, args.relax_wavefront)
    _write_text(args.out, _json_dumps(build_report(result, cfg, args.graph)))
    return EXIT_OK


def cmd_verify(args) -> int:
    """Generate random graphs, run the blocked pipeline, and compare every
    element against the reference (INF entries included)."""
    cfg = load_config(args.config)
    n, b = args.nodes, args.block_size
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    check_functional_size(n, b)
    failures = []
    for trial in range(args.trials):
        edges = gen_synthetic(n, args.density, seed=args.seed + trial)
        d = build_distance_matrix(edges)
        got, _ = simulate_functional(d, b, cfg)
        expected = fw_reference(d)
        if not np.array_equal(expected, got):
            i, j = map(int, np.argwhere(expected != got)[0])
            failures.append(
                {
                    "trial": trial,
                    "seed": args.seed + trial,
                    "i": i,
                    "j": j,
                    "expected": int(expected[i, j]),
                    "got": int(got[i, j]),
                }
            )
            break
    report = {
        "n": n,
        "block_size": b,
        "density": args.density,
        "trials_run": args.trials if not failures else failures[0]["trial"] + 1,
        "status": "pass" if not failures else "fail",
        "failures": failures,
    }
    if args.out:
        _write_text(args.out, _json_dumps(report))
    if failures:
        f = failures[0]
        print(
            f"verify FAIL: trial {f['trial']} (seed {f['seed']}): "
            f"d[{f['i']}][{f['j']}] expected {f['expected']}, got {f['got']}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    print(f"verify PASS: {args.trials} trials, n={n}, b={b}, density={args.density}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    # n and block_size set the workload; every other parameter is an HbmConfig field.
    workload = {"n": args.nodes, "block_size": args.block_size}
    for name, flag in (("n", "--nodes"), ("block_size", "--block-size")):
        if args.param == name and workload[name] is not None:
            raise ConfigError(f"sweep --param {name} takes {name} from --values, not {flag}")
        if args.param != name and workload[name] is None:
            raise ConfigError(f"sweep needs {flag} unless it sweeps {name}")
    values = args.values
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep values must be strictly increasing")

    points = [({**workload, args.param: v}, cfg) if args.param in workload
              else (workload, dataclasses.replace(cfg, **{args.param: v})) for v in values]
    results = [_simulate(w["n"], w["block_size"], point_cfg, args.relax_wavefront)
               for w, point_cfg in points]

    rows = []
    base_time = results[0].total_time_seconds
    for value, res in zip(values, results):
        rows.append(
            {
                "parameter": args.param,
                "value": value,
                "total_cycles": res.total_cycles,
                "total_time_seconds": res.total_time_seconds,
                "energy_total_fj": res.energy.total_fj,
                "time_ratio_vs_first": res.total_time_seconds / base_time,
            }
        )
    if args.format == "json":
        _write_text(args.out, _json_dumps({"sweep": rows}))
    else:
        lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def project_runtime(t_measured: float, n_measured: int, n_target: int) -> float:
    """Cubic-complexity projection: t * (n_target / n_measured)^3."""
    if t_measured <= 0 or n_measured <= 0 or n_target <= 0:
        raise ConfigError("projection inputs must all be positive")
    try:
        seconds = t_measured * (n_target / n_measured) ** 3
    except OverflowError:
        seconds = math.inf
    if not math.isfinite(seconds):
        raise ConfigError("the projected runtime is not a finite float")
    return seconds


def cmd_project(args) -> int:
    seconds = project_runtime(args.measured_seconds, args.measured_n, args.target_n)
    out = {
        "measured_seconds": args.measured_seconds,
        "measured_n": args.measured_n,
        "target_n": args.target_n,
        "projected_seconds": seconds,
    }
    if args.out:
        _write_text(args.out, _json_dumps(out))
    print(repr(seconds))
    return EXIT_OK


def cmd_compare(args) -> int:
    for flag, value in (("--baseline-runtime", args.baseline_runtime),
                        ("--baseline-energy", args.baseline_energy)):
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"{flag} must be finite and positive, got {value}")
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            calibrated = json.load(fh)["calibrated"]
        sim_seconds = calibrated["total_time_seconds"]
        sim_joules = calibrated["energy_joules"]
        # As for the flags; JSON true would compare as 1.
        valid = (0 < sim_seconds < math.inf and 0 <= sim_joules < math.inf
                 and bool not in (type(sim_seconds), type(sim_joules)))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{args.report} is not a run report: {exc!r}") from None
    if not valid:
        raise ConfigError(f"{args.report}: the simulated time must be finite and positive "
                          "and the energy finite and non-negative")
    out = {
        "baseline": {
            "name": args.baseline_name,
            "runtime_seconds": args.baseline_runtime,
            "energy_joules": args.baseline_energy,
            "source": "user-supplied (external measurement, not modeled here)",
        },
        "simulated": {
            "total_time_seconds": sim_seconds,
            "energy_joules": sim_joules,
        },
        "speedup": args.baseline_runtime / sim_seconds,
        "energy_ratio": (
            args.baseline_energy / sim_joules
            if args.baseline_energy is not None and sim_joules > 0
            else None
        ),
    }
    for ratio in ("speedup", "energy_ratio"):
        if out[ratio] == math.inf:
            raise ConfigError(f"the {ratio} against that baseline overflows a float")
    _write_text(args.out, _json_dumps(out))
    return EXIT_OK


def _add_workload_flags(p, verify=False):
    p.add_argument("--config", default="default",
                   help="config JSON path, or 'default'")
    p.add_argument("--out", help="output path (default: stdout)")
    if verify:
        p.add_argument("--density", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=10)
    else:
        p.add_argument("--relax-wavefront", action="store_true",
                       help="allow 2M > bank-groups (oversubscribed staging)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwsim",
        description="Blocked Floyd-Warshall on an in-memory-compute HBM3 stack: "
                    "functional verification and cycle/energy modeling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload, emit a JSON report")
    workload = p_run.add_mutually_exclusive_group(required=True)
    workload.add_argument("--nodes", type=int, help="synthetic workload size N")
    workload.add_argument("--graph", help="edge-list file (u v [w], '#' comments)")
    p_run.add_argument("--block-size", type=int, required=True, help="tile dimension B")
    _add_workload_flags(p_run)
    p_run.add_argument("--undirected", action="store_true",
                       help="treat the edge list as undirected; needs --graph (the "
                            "report is the same either way: only the vertex count is read)")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check the blocked result against the reference")
    p_verify.add_argument("--nodes", type=int, required=True, help="synthetic workload size N")
    p_verify.add_argument("--block-size", type=int, required=True, help="tile dimension B")
    _add_workload_flags(p_verify, verify=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one design parameter, emit CSV/JSON")
    p_sweep.add_argument("--nodes", type=int,
                         help="synthetic workload size N (not needed to sweep n)")
    p_sweep.add_argument("--block-size", type=int,
                         help="tile dimension B (not needed to sweep block_size)")
    _add_workload_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         type=lambda s: [int(v) for v in s.split(",")],
                         help="comma-separated values, strictly increasing")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_project = sub.add_parser("project", help="cubic runtime projection")
    p_project.add_argument("--measured-seconds", type=float, required=True)
    p_project.add_argument("--measured-n", type=int, required=True)
    p_project.add_argument("--target-n", type=int, required=True)
    p_project.add_argument("--out")
    p_project.set_defaults(func=cmd_project)

    p_compare = sub.add_parser("compare", help="speedup/energy vs a user-supplied baseline")
    p_compare.add_argument("--report", required=True, help="run report JSON path")
    p_compare.add_argument("--baseline-runtime", type=float, required=True,
                           help="baseline runtime, seconds")
    p_compare.add_argument("--baseline-energy", type=float,
                           help="baseline energy, joules (optional)")
    p_compare.add_argument("--baseline-name", default="baseline")
    p_compare.add_argument("--out")
    p_compare.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (FwsimError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
