"""fwsim run, sweep and verify output against a golden captured before the
seven config values the model never read were deleted.

cli_golden.json holds, per command, the sha256 of its stdout. For the `run`
reports the golden was taken with row_bits, rows_per_bank, stack_height,
timing.t_rrd_ns, timing.t_ccds_ns, timing.t_ccdl_ns and
pim.cpe_reduce_per_tile dropped from the report's config section and the
report re-serialized as the CLI serializes it, so the only change it allows is
those keys' removal. Every other output is pinned byte for byte.

Regenerate (only from a commit whose outputs are trusted) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from fwsim import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
CALIBRATED = str(ROOT / "configs" / "calibrated_592s.json")

COMMANDS = {
    "run-default-m4": ["run", "--nodes", "64", "--block-size", "16"],
    "run-default-m16-padded": ["run", "--nodes", "250", "--block-size", "16"],
    "run-calibrated-m8": ["run", "--nodes", "512", "--block-size", "64",
                          "--config", CALIBRATED],
    "run-calibrated-m1": ["run", "--nodes", "300", "--block-size", "300",
                          "--config", CALIBRATED],
    "run-relaxed-m24": ["run", "--nodes", "192", "--block-size", "8",
                        "--relax-wavefront"],
    "sweep-csv-bpes": ["sweep", "--nodes", "512", "--block-size", "64",
                       "--param", "bpes_per_bank", "--values", "1,4,16,32"],
    "sweep-csv-block-size": ["sweep", "--nodes", "256",
                             "--param", "block_size", "--values", "16,32,64",
                             "--config", CALIBRATED],
    "sweep-json-channels": ["sweep", "--nodes", "128", "--block-size", "16",
                            "--param", "channels", "--values", "1,2,8",
                            "--relax-wavefront", "--format", "json"],
    "sweep-json-n": ["sweep", "--block-size", "16", "--param", "n",
                     "--values", "16,100,256", "--format", "json"],
    "verify": ["verify", "--nodes", "40", "--block-size", "8", "--trials", "2",
               "--density", "0.1", "--out", "-"],
}


def output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == cli.EXIT_OK
    return buf.getvalue()


def capture() -> dict:
    return {name: hashlib.sha256(output(argv).encode()).hexdigest()
            for name, argv in COMMANDS.items()}


def test_cli_output_reproduces_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = capture()
    assert got.keys() == golden.keys()
    for name, expected in golden.items():
        assert got[name] == expected, name


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=0, sort_keys=True) + "\n")
