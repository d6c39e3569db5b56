"""The benchmark's workloads: the CLI command each one times, the inputs it
generates from the seed, and the checks that its outputs are correct.

Every command runs with the run's work directory as the current directory,
so input and config files are named by fixed relative paths and a report's
bytes do not depend on where the work directory was created.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer

INF = int(np.iinfo(np.uint32).max)


@dataclass
class Outcome:
    """One CLI invocation: exit code (None if it raised), captured stdout and
    stderr, host wall-clock seconds and minor page faults."""

    code: int | None
    out: str
    err: str
    seconds: float
    faults: int = 0

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out.encode()).hexdigest()


def tile_ops(n: int, b: int) -> int:
    """Tile operations the blocked schedule performs: m(1 + 2(m-1) + (m-1)^2)."""
    m = -(-n // b)
    return m * (1 + 2 * (m - 1) + (m - 1) ** 2)


def model_from_report(report: dict) -> dict:
    """The modeled-hardware outputs of one `run` report."""
    modeled = report["modeled"]
    ops = modeled["op_counts"]
    return {
        "model.total_cycles": modeled["total_cycles"],
        "model.energy_fj": report["calibrated"]["energy"]["total_fj"],
        "model.minplus_ops": ops["minplus_ops"],
        "model.tsv_bits": ops["tsv_bits"],
        "model.row_activations": ops["row_activations"],
        "model.bg_busy_max": max(modeled["per_bank_group_busy_cycles"]),
    }


class Workload:
    """A timed CLI command. Subclasses say what it is and how to check it."""

    name = ""
    config = "default"       # the config the command loads
    tileops = 0              # scheduler tile operations per command
    reference_relax = 0      # min-plus relaxations of fw_reference per command
    blocked_relax = 0        # min-plus relaxations of fw_blocked per command

    def prepare(self, seed: int, workdir: Path) -> dict:
        """Write the inputs for `seed` into workdir; describe them."""
        return {}

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def problem(self, outcome: Outcome) -> str | None:
        """Why this command's output is wrong, or None."""
        if outcome.code != 0:
            tail = outcome.err.strip().splitlines()[-1:] or [""]
            return f"exit code {outcome.code}: {tail[0]}"
        return None

    def reference(self, seed: int, command, cli) -> tuple[Outcome, object]:
        """Run the first, untimed command. Returns its outcome and a check of
        it that is independent of the CLI: a callable returning what was
        checked and the problems found. The check is called after the timed
        commands, so the memory it needs stays out of the run's peak."""
        outcome = command(self.argv(seed))

        def check():
            problem = self.problem(outcome)
            return {}, [problem] if problem else []

        return outcome, check

    def model(self, outcome: Outcome, command, workdir: Path) -> tuple[dict, list[str]]:
        """The model.* values behind a correct output, and any problems."""
        return {}, []


def apsp_scipy(d: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths by scipy, in fwsim's uint32/INF encoding.

    scipy's dense input reads 0 as "no edge". Edge weights are >= 1, so only
    the zero diagonal and the INF entries need masking.
    """
    from scipy.sparse.csgraph import floyd_warshall

    dense = d.astype(np.float64)
    dense[d == INF] = 0.0
    np.fill_diagonal(dense, 0.0)
    dist = floyd_warshall(dense, directed=True)
    out = np.full(d.shape, INF, dtype=np.uint32)
    finite = np.isfinite(dist)
    out[finite] = dist[finite].astype(np.uint32)
    return out


class Verify(Workload):
    """`verify` on a seeded random graph: the only path through the functional
    kernels. The first command's result is also checked against scipy."""

    def __init__(self, name: str, nodes: int, block: int, density: float):
        self.name = name
        self.nodes, self.block, self.density = nodes, block, density
        padded = -(-nodes // block) * block
        self.tileops = tile_ops(nodes, block)
        self.reference_relax = nodes ** 3
        self.blocked_relax = padded ** 3

    def argv(self, seed):
        return ["verify", "--nodes", str(self.nodes), "--block-size", str(self.block),
                "--density", str(self.density), "--trials", "1", "--seed", str(seed)]

    def problem(self, outcome):
        problem = super().problem(outcome)
        if problem is None and not outcome.out.startswith("verify PASS"):
            problem = f"verify status is not pass: {outcome.out.strip()!r}"
        return problem

    def reference(self, seed, command, cli):
        # The CLI compares fw_blocked with fw_reference; a bug shared by both
        # would pass it. Capture the graph the CLI built and the matrix
        # simulate_functional returned, and compare with scipy instead. They
        # are saved to the work directory (the current directory) rather than
        # held: live matrices left on the heap would keep malloc from trimming
        # it, and the timed commands would reuse memory that a fresh CLI
        # process faults in anew.
        seen = {}

        def keep(key):
            def save(args, kwargs, result):
                result = result[0] if isinstance(result, tuple) else result
                path = Path(f"oracle-{key}.npy")
                np.save(path, np.asarray(result))
                seen[key] = path
            return save

        capture = Tracer(
            [("input", cli, "build_distance_matrix"),
             ("output", cli, "simulate_functional")],
            {"input": keep("input"), "output": keep("output")},
        )
        with capture.installed():
            outcome = command(self.argv(seed))
        return outcome, lambda: self.check(outcome, seen)

    def check(self, outcome, seen):
        problems = [p for p in [self.problem(outcome)] if p]
        if "input" not in seen or "output" not in seen:
            problems.append("oracle: the graph or the result was not captured")
            return {}, problems
        got = np.load(seen["output"])
        expected = apsp_scipy(np.load(seen["input"]))
        info = {
            "oracle": "scipy.sparse.csgraph.floyd_warshall",
            "entries": int(expected.size),
            "inf_share": float(np.mean(expected == INF)),
            "matrix_sha256": hashlib.sha256(got.astype(np.uint32).tobytes()).hexdigest(),
        }
        if got.shape != expected.shape:
            problems.append(f"oracle: result shape {got.shape}, expected {expected.shape}")
        else:
            bad = np.argwhere(got != expected)
            if len(bad):
                i, j = map(int, bad[0])
                problems.append(
                    f"oracle: {len(bad)} of {expected.size} entries differ from scipy, "
                    f"first d[{i}][{j}] = {int(got[i, j])}, scipy {int(expected[i, j])}")
        return info, problems


    def model(self, outcome, command, workdir):
        # verify prints no model outputs; a `run` report at the same design
        # point gives those of the simulation each verify command makes.
        report = command(["run", "--nodes", str(self.nodes), "--block-size",
                          str(self.block), "--relax-wavefront"])
        problem = Workload.problem(self, report)
        if problem:
            return {}, [f"run at the verify design point: {problem}"]
        return model_from_report(json.loads(report.out)), []


class Sweep(Workload):
    """`sweep --param channels` of the timing model alone."""

    def __init__(self, name: str, nodes: int, block: int, values: tuple):
        self.name = name
        self.nodes, self.block, self.values = nodes, block, tuple(values)
        self.tileops = len(self.values) * tile_ops(nodes, block)

    def argv(self, seed):
        return ["sweep", "--param", "channels",
                "--values", ",".join(map(str, self.values)),
                "--nodes", str(self.nodes), "--block-size", str(self.block),
                "--relax-wavefront"]

    def rows(self, outcome):
        return list(csv.DictReader(io.StringIO(outcome.out)))

    def problem(self, outcome):
        problem = super().problem(outcome)
        if problem is None:
            got = [row.get("value") for row in self.rows(outcome)]
            if got != [str(v) for v in self.values]:
                problem = f"sweep rows are for values {got}"
        return problem

    def model(self, outcome, command, workdir):
        # The CSV has cycles and energy only. A `run` report per point gives
        # the counters; its cycles and energy must equal the CSV row's.
        points, problems = [], []
        for row in self.rows(outcome):
            config = f"channels-{row['value']}.json"
            (workdir / config).write_text(json.dumps({"channels": int(row["value"])}))
            point = command(["run", "--nodes", str(self.nodes),
                             "--block-size", str(self.block),
                             "--relax-wavefront", "--config", config])
            problem = Workload.problem(self, point)
            if problem:
                problems.append(f"run for channels={row['value']}: {problem}")
                continue
            values = model_from_report(json.loads(point.out))
            if (values["model.total_cycles"] != int(row["total_cycles"])
                    or values["model.energy_fj"] != int(row["energy_total_fj"])):
                problems.append(f"run report for channels={row['value']} "
                                f"disagrees with the sweep row")
            points.append(values)
        totals = {key: (max if key == "model.bg_busy_max" else sum)(p[key] for p in points)
                  for key in (points[0] if points else ())}
        return totals, problems


def write_edge_file(path: Path, seed: int, records: int, vertices: int) -> dict:
    """Write a SNAP-style edge list drawn from `seed`; return its size and
    sha256.

    It has '#' comments, blank lines, sparse raw vertex ids, tab and space
    separators, duplicate pairs (some reversed), self-loops and records
    without a weight, so every non-error branch of the parser runs. The
    first `vertices` records name every vertex once as a source, so the
    graph has exactly `vertices` vertices.
    """
    rng = np.random.default_rng(seed)
    raw_ids = rng.choice(2**31 - 1, size=vertices, replace=False)
    u = rng.integers(0, vertices, size=records)
    v = rng.integers(0, vertices, size=records)
    u[:vertices] = rng.permutation(vertices)
    later = np.arange(records) >= vertices
    loop = later & (rng.random(records) < 0.01)
    v[loop] = u[loop]
    dup = np.flatnonzero(later & ~loop & (rng.random(records) < 0.05))
    earlier = rng.integers(0, dup)
    flip = rng.random(len(dup)) < 0.5
    u[dup], v[dup] = (np.where(flip, v[earlier], u[earlier]),
                      np.where(flip, u[earlier], v[earlier]))
    weight = rng.integers(1, 1001, size=records)
    has_weight = rng.random(records) >= 0.1
    tab = rng.random(records) < 0.8

    # Formatted a block at a time, so the lines of the whole file are never
    # held at once.
    block = 50_000
    digest, size = hashlib.sha256(), 0
    with open(path, "wb") as fh:

        def write(text):
            nonlocal size
            data = text.encode()
            digest.update(data)
            size += fh.write(data)

        write(f"# Undirected weighted graph drawn from seed {seed}\n"
              f"# Nodes: {vertices} Edges: {records}\n"
              "# FromNodeId\tToNodeId\tWeight\n\n")
        for first in range(0, records, block):
            if first:
                write(f"\n# records from {first}\n")
            part = slice(first, first + block)
            lines = []
            for src, dst, w, weighted, tabbed in zip(
                    raw_ids[u[part]].tolist(), raw_ids[v[part]].tolist(),
                    weight[part].tolist(), has_weight[part].tolist(),
                    tab[part].tolist()):
                sep = "\t" if tabbed else " "
                lines.append(f"{src}{sep}{dst}{sep}{w}\n" if weighted
                             else f"{src}{sep}{dst}\n")
            write("".join(lines))
    return {"bytes": size, "sha256": digest.hexdigest()}


class Ingest(Workload):
    """`run --graph` on a generated edge file: ingest, then the timing model
    with the timeline kept, then the report."""

    FILE = "edges.tsv"

    def __init__(self, name: str, records: int, vertices: int, block: int):
        self.name = name
        self.records, self.vertices, self.block = records, vertices, block
        self.tileops = tile_ops(vertices, block)

    def prepare(self, seed, workdir):
        # Written by a child process. Large blocks that this process frees
        # raise glibc's mmap threshold, and the program then pays for far
        # fewer page faults than in a process of its own.
        args = [workdir / self.FILE, seed, self.records, self.vertices]
        proc = subprocess.run([sys.executable, __file__, *map(str, args)],
                              check=True, capture_output=True, text=True, timeout=120)
        return {"file": self.FILE, "records": self.records, "vertices": self.vertices,
                **json.loads(proc.stdout)}

    def argv(self, seed):
        return ["run", "--graph", self.FILE, "--undirected",
                "--block-size", str(self.block)]

    def problem(self, outcome):
        problem = super().problem(outcome)
        if problem is None:
            try:
                n = json.loads(outcome.out)["workload"]["n"]
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable report: {exc!r}"
            if n != self.vertices:
                problem = f"report has n={n}, the file has {self.vertices} vertices"
        return problem

    def model(self, outcome, command, workdir):
        return model_from_report(json.loads(outcome.out)), []


# Only the verify workloads are declared in BENCHMARK.json: every traced run
# reports every per-layer metric, and sweep-channels and ingest-300k use
# neither the fw nor the graph-generation layer. On a shared 2-core host
# ingest-300k also spreads too widely between runs (0.14 to 0.39 of the
# median over ten 30 s runs). Both stay runnable by name.
WORKLOADS = {w.name: w for w in (
    Verify("verify-n512", nodes=512, block=64, density=0.005),
    Verify("verify-m32", nodes=256, block=8, density=0.01),
    Sweep("sweep-channels", nodes=8192, block=256, values=(4, 8, 16)),
    Ingest("ingest-300k", records=300_000, vertices=4096, block=256),
)}

# The same workloads at toy size, for the smoke mode and the tests.
SMOKE = {w.name: w for w in (
    Verify("verify-n512", nodes=64, block=16, density=0.05),
    Verify("verify-m32", nodes=32, block=4, density=0.1),
    Sweep("sweep-channels", nodes=512, block=64, values=(4, 8, 16)),
    Ingest("ingest-300k", records=3000, vertices=256, block=32),
)}


if __name__ == "__main__":
    # python3 workloads.py PATH SEED RECORDS VERTICES: write an edge file.
    print(json.dumps(write_edge_file(Path(sys.argv[1]), *map(int, sys.argv[2:]))))
