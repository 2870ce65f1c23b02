"""CLI output, byte for byte, against the files under ``tests/golden``.

Each file is one run at the config's own seed.  A change that moves any
byte of one changes what users read, so it comes with a re-recorded file and
a reason.  Re-record a file by running its CLI line from the repo root with
``--out tests/golden/<stem>.csv`` (and ``--trace`` for simulate).  The two
parameter sweeps over n and xi are large, so only their sha256 is kept.
"""

import hashlib
from pathlib import Path

import pytest

from fedpart.harness.cli import main
from fedpart.harness.sweeps import MECH_AXES

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

# (golden file stem, CLI arguments); simulate also writes its trace
RUNS = [
    (f"{cmd}_{cfg}", [cmd, f"configs/{cfg}.json"])
    for cfg in ("mechanism_heterogeneous", "generated_decomposed", "two_devices",
                "threshold_large_peers")
    for cmd in ("solve-gpm", "solve-sgpm", "simulate")
] + [
    ("compare_two_devices", ["compare", "configs/two_devices.json", "--n-list", "2,4"]),
    ("solver_comparison", ["compare", "configs/two_devices.json", "--n-list", "2,4,6,8,10"]),
] + [
    (f"mechanism_{axis}", ["mechanism", "configs/two_devices.json", "--sweep", axis])
    for axis in MECH_AXES
] + [
    (f"threshold_{peers}", ["mechanism", f"configs/threshold_{peers}.json", "--sweep", "s1"])
    for peers in ("small_peers", "large_peers")
]

# (CLI arguments, sha256 of the output)
HASHED_RUNS = [
    (["mechanism", "configs/generated_decomposed.json", "--sweep", "n"],
     "0c6ee2c2510e3153638d4fee64bb1b68ad2cdcb6420424f156c470c1da894a89"),
    (["mechanism", "configs/two_devices.json", "--sweep", "xi"],
     "eaa1f3204b3b4ce3877a1de76be023aa811a515e9a7a68e632bf5c210358afdd"),
]


@pytest.fixture
def at_repo_root(monkeypatch):
    monkeypatch.delenv("FEDPART_OUT_DIR", raising=False)
    monkeypatch.chdir(REPO)


def _trace_stem(stem: str, argv: list[str]) -> str | None:
    return f"simulate-trace_{stem.split('_', 1)[1]}" if argv[0] == "simulate" else None


def test_every_golden_file_is_checked():
    checked = {stem for stem, _ in RUNS} | {_trace_stem(s, a) for s, a in RUNS} - {None}
    assert checked == {p.stem for p in GOLDEN.glob("*.csv")}


@pytest.mark.parametrize("stem, argv", RUNS, ids=[stem for stem, _ in RUNS])
def test_cli_output_is_byte_identical(stem, argv, tmp_path, at_repo_root):
    out = tmp_path / "out.csv"
    trace = _trace_stem(stem, argv)
    extra = ["--trace", str(tmp_path / "trace.csv")] if trace else []
    assert main([*argv, "--out", str(out), *extra]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()
    if trace:
        assert (tmp_path / "trace.csv").read_bytes() == (GOLDEN / f"{trace}.csv").read_bytes()


@pytest.mark.parametrize("argv, sha256", HASHED_RUNS, ids=["sweep-n", "sweep-xi"])
def test_large_sweep_output_hash(argv, sha256, tmp_path, at_repo_root):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
