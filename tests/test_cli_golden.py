"""CLI and script output, byte for byte, against the files under ``tests/golden``.

Each file is one run at the config's own seed.  A change that moves any
byte of one changes what users read, so it comes with a re-recorded file and
a reason.  Re-record a CLI file by running its CLI line from the repo root
with ``--out tests/golden/<stem>.csv`` (and ``--trace`` for simulate), and a
script's files by running the script with ``--out tests/golden``.  The two
parameter sweeps over n and xi are large, so only their sha256 is kept.
"""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from fedpart.harness.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

# (golden file stem, CLI arguments); simulate also writes its trace
RUNS = [
    (f"{cmd}_{cfg}", [cmd, f"configs/{cfg}.json"])
    for cfg in ("mechanism_heterogeneous", "generated_decomposed", "two_devices",
                "threshold_large_peers")
    for cmd in ("solve-gpm", "solve-sgpm", "simulate")
] + [("compare_two_devices", ["compare", "configs/two_devices.json", "--n-list", "2,4"])]

# (CLI arguments, sha256 of the output)
HASHED_RUNS = [
    (["mechanism", "configs/generated_decomposed.json", "--sweep", "n"],
     "0c6ee2c2510e3153638d4fee64bb1b68ad2cdcb6420424f156c470c1da894a89"),
    (["mechanism", "configs/two_devices.json", "--sweep", "xi"],
     "eaa1f3204b3b4ce3877a1de76be023aa811a515e9a7a68e632bf5c210358afdd"),
]

# (script, extra arguments, the files it writes)
SCRIPTS = [
    ("run_threshold_sweeps.py", [],
     ["threshold_small_peers.csv", "threshold_large_peers.csv"]),
    ("run_mechanism_sweeps.py", [],
     [f"mechanism_{axis}.csv"
      for axis in ("theta", "a_d", "b_d", "a_e", "b_e", "sigma", "rho", "s0", "r0")]),
    ("run_solver_comparison.py", ["--n-list", "2", "4", "6", "8", "10", "--reps", "30"],
     ["solver_comparison.csv"]),
]


@pytest.fixture
def at_repo_root(monkeypatch):
    monkeypatch.delenv("FEDPART_OUT_DIR", raising=False)
    monkeypatch.chdir(REPO)


@pytest.mark.parametrize("stem, argv", RUNS, ids=[stem for stem, _ in RUNS])
def test_cli_output_is_byte_identical(stem, argv, tmp_path, at_repo_root):
    out = tmp_path / "out.csv"
    extra = ["--trace", str(tmp_path / "trace.csv")] if argv[0] == "simulate" else []
    assert main([*argv, "--out", str(out), *extra]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()
    if extra:
        trace = (GOLDEN / f"simulate-trace_{stem.split('_', 1)[1]}.csv").read_bytes()
        assert (tmp_path / "trace.csv").read_bytes() == trace


@pytest.mark.parametrize("argv, sha256", HASHED_RUNS, ids=["sweep-n", "sweep-xi"])
def test_large_sweep_output_hash(argv, sha256, tmp_path, at_repo_root):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("script, args, files", SCRIPTS, ids=[s for s, _, _ in SCRIPTS])
def test_script_output_is_byte_identical(script, args, files, tmp_path, at_repo_root,
                                         monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path), *args])
    runpy.run_path(str(REPO / "scripts" / script), run_name="__main__")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
