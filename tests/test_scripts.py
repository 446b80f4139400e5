"""Smoke runs of the experiment scripts, which import the public API."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, header, rows",
    [
        # four default noise levels, the known and the blind solver each
        ("snr_sweep.py", "snr_db,solver,rsnr_db,ssim,cc,uiqi,rmse,ergas,sam_rad", 8),
        # the initial objective and one value per iteration
        ("convergence_compare.py", "iteration,plain,accelerated", 6),
    ],
)
def test_script_runs_and_writes_its_csv(tmp_path, script, header, rows):
    out = tmp_path / "table.csv"
    args = ["--dims", "8", "8", "8", "--rank", "2", "--iters", "5", "--csv", str(out)]
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
