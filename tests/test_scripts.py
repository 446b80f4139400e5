"""Runs of ``scripts/trace_compare.py``, which records the solvers' traces,
SRIs and metrics and compares two recordings.  The noise-level study runs
through the CLI (README, "Experiment scripts"), whose tests are in
``test_cli.py``."""

import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_trace_compare_fails_on_groups_above_the_tolerance(tmp_path):
    # two recordings whose accelerated unregularized noisy traces, whose
    # criterion-1 fuse SRIs and whose R-SNR differ by 1e-9 relative, whose
    # regularized traces (rising once) agree and whose cli96 estimates agree
    old, new = tmp_path / "old.npz", tmp_path / "new.npz"
    trace = np.array([4.0, 2.0, 1.0])
    arrays = {
        "noisy0/fuse/accel/none/trace": trace,
        "noisy0/fuse_blind/accel/reg/trace": np.array([4.0, 2.0, 3.0]),
        "noisy0/fuse/accel/none/metrics/rsnr_db": np.array(20.0),
        "criterion1/fuse/accel/none/sri": np.ones((2, 2, 2)),
        "cli96/estimate": np.ones((2, 2, 2)),
    }
    np.savez(old, **arrays)
    np.savez(new, **{**arrays,
                     "noisy0/fuse/accel/none/trace": trace * (1 + 1e-9),
                     "noisy0/fuse/accel/none/metrics/rsnr_db": np.array(20.0 * (1 + 1e-9)),
                     "criterion1/fuse/accel/none/sri": np.full((2, 2, 2), 1 + 1e-9)})

    def compare(*extra, new=new):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "trace_compare.py"), "--compare", str(old), str(new),
             *extra],
            capture_output=True, text=True, timeout=120,
        )

    strict = compare("--max-rel-diff", "1e-12")
    assert strict.returncode == 1, strict.stderr
    failed = [line for line in strict.stdout.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 3
    assert failed[0].startswith("FAIL criterion1 fuse SRIs:")
    assert failed[1].startswith("FAIL noisy fuse accel/none traces:")
    assert failed[2].startswith("FAIL metric rsnr_db:")
    rises = [line.split() for line in strict.stdout.splitlines() if line.startswith("rises")]
    assert sorted(line[-3:] for line in rises) == [["0", "->", "0"], ["1", "->", "1"]]
    for run in (compare("--max-rel-diff", "1e-6"), compare()):
        assert run.returncode == 0, run.stderr
        assert not any(line.startswith("FAIL") for line in run.stdout.splitlines())

    # a trace one sweep longer, and an array only one recording holds, fail
    # any tolerance: no difference can be read from them
    mismatched = tmp_path / "mismatched.npz"
    np.savez(mismatched, **{**arrays, "noisy0/fuse/accel/none/trace": np.append(trace, 0.5),
                            "noisy1/fuse/accel/none/trace": trace})
    run = compare("--max-rel-diff", "1e6", new=mismatched)
    assert run.returncode == 1, run.stderr
    failed = [line for line in run.stdout.splitlines() if line.startswith("FAIL")]
    assert failed == [
        "FAIL array noisy0/fuse/accel/none/trace (shapes differ: (3,) vs (4,)): "
        "max_rel_diff inf > 1.000e+06",
        f"FAIL array noisy1/fuse/accel/none/trace (only in {mismatched}): "
        "max_rel_diff inf > 1.000e+06",
    ]
    assert compare(new=mismatched).returncode == 0
