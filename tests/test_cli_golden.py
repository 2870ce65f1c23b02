"""CLI output, byte for byte, against the files under ``tests/golden``.

Each file is one CLI run at the config's own seed.  A change that moves any
byte of one changes what users read, so it comes with a re-recorded file and
a reason.  Re-record a file by running its CLI line from the repo root with
``--out tests/golden/<stem>.csv`` (and ``--trace`` for simulate).
"""

from pathlib import Path

import pytest

from fedpart.harness.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

# (golden file stem, CLI arguments); simulate also writes its trace
RUNS = [
    (f"{cmd}_{cfg}", [cmd, f"configs/{cfg}.json"])
    for cfg in ("mechanism_heterogeneous", "generated_decomposed")
    for cmd in ("solve-gpm", "solve-sgpm", "simulate")
] + [("compare_two_devices", ["compare", "configs/two_devices.json", "--n-list", "2,4"])]


@pytest.mark.parametrize("stem, argv", RUNS, ids=[stem for stem, _ in RUNS])
def test_cli_output_is_byte_identical(stem, argv, tmp_path, monkeypatch):
    monkeypatch.delenv("FEDPART_OUT_DIR", raising=False)
    monkeypatch.chdir(REPO)
    out = tmp_path / "out.csv"
    extra = ["--trace", str(tmp_path / "trace.csv")] if argv[0] == "simulate" else []
    assert main([*argv, "--out", str(out), *extra]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()
    if extra:
        trace = (GOLDEN / f"simulate-trace_{stem.split('_', 1)[1]}.csv").read_bytes()
        assert (tmp_path / "trace.csv").read_bytes() == trace
