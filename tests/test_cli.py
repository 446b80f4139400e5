import configparser
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrfuse import cli
from hsrfuse.cli import OVERRIDES, _build_parser, _run_config, main
from hsrfuse.fileio import read_htf, write_htf
from hsrfuse.solver import _noise_energy
from hsrfuse.tensors import unfold

SIMULATE_CFG = """
[synthesis]
dims = 16,16,8

[model]
rank = 2
term_rank = 2

[blur]
kernel_width = 5
sigma = 1.0
ratio = 2

[spectral]
bands = 0-1,2-3,4-5,6-7

[noise]
snr_db = {snr}

[run]
seed = {seed}
out = {out}
"""

FUSE_CFG = """
[inputs]
hsi = {d}/HSI.htf
msi = {d}/MSI.htf
p1 = {d}/P1.csv
p2 = {d}/P2.csv
pm = {d}/PM.csv
reference = {d}/SRI.htf

[model]
rank = 2

[blur]
kernel_width = 5
sigma = 1.0
ratio = 2

[solver]
ridge_weight = 1e-6
max_iters = {iters}
rel_tol = 0

[run]
seed = 5
out = {out}
"""


def _simulate(tmp_path, out="sim", seed=1, snr="inf"):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIMULATE_CFG.format(out=tmp_path / out, seed=seed, snr=snr))
    assert main(["simulate", "--config", str(cfg)]) == 0
    return tmp_path / out


def _fuse_config(tmp_path, sim_dir, out="fused", iters=400):
    cfg = tmp_path / f"fuse_{out}.cfg"
    cfg.write_text(FUSE_CFG.format(d=sim_dir, out=tmp_path / out, iters=iters))
    return cfg


def test_simulate_writes_expected_artifacts(tmp_path):
    out = _simulate(tmp_path)
    for name in ("SRI.htf", "HSI.htf", "MSI.htf", "P1.csv", "P2.csv", "PM.csv", "manifest.json"):
        assert (out / name).is_file()
    hsi = read_htf(out / "HSI.htf")
    msi = read_htf(out / "MSI.htf")
    assert hsi.shape == (8, 8, 8)
    assert msi.shape == (16, 16, 4)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["op_dims"]["p1"] == [8, 16]
    assert manifest["recoverability"]["satisfied"] is True
    # noiseless images: zero noise energy reads +inf dB
    assert manifest["snr_db_realized"] == {"hsi": math.inf, "msi": math.inf}


def test_simulate_same_seed_byte_identical(tmp_path):
    out_a = _simulate(tmp_path, out="a", seed=9, snr="30")
    out_b = _simulate(tmp_path, out="b", seed=9, snr="30")
    for name in ("SRI.htf", "HSI.htf", "MSI.htf", "P1.csv", "P2.csv", "PM.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_simulate_seed_override_changes_noise(tmp_path):
    out_a = _simulate(tmp_path, out="a", seed=1, snr="20")
    cfg = tmp_path / "sim2.cfg"
    cfg.write_text(SIMULATE_CFG.format(out=tmp_path / "c", seed=1, snr="20"))
    assert main(["simulate", "--config", str(cfg), "--seed", "2"]) == 0
    assert (out_a / "HSI.htf").read_bytes() != (tmp_path / "c" / "HSI.htf").read_bytes()


def test_simulate_noise_level_leaves_the_sri_alone(tmp_path):
    # a noise-level study reruns simulate at one seed: the truth is drawn
    # before the noise, so SRI.htf is the same at every level (inf draws no
    # noise at all) while the noisy images differ between finite levels
    outs = {snr: _simulate(tmp_path, out=f"snr-{snr}", seed=3, snr=snr)
            for snr in ("20", "40", "inf")}
    sri = {(out / "SRI.htf").read_bytes() for out in outs.values()}
    assert len(sri) == 1
    for name in ("HSI.htf", "MSI.htf"):
        assert (outs["20"] / name).read_bytes() != (outs["40"] / name).read_bytes(), name


@pytest.mark.parametrize("command", ["fuse", "blind-fuse"])
def test_report_names_the_images_it_scored(tmp_path, command):
    # a noise-level study changes the HSI and MSI files, not the config: each
    # report records their SHA-256, which tells two levels apart and reads
    # the same for a repeat of one level
    hashes = {}
    for run, snr in (("a", "20"), ("b", "40"), ("again", "20")):
        sim = _simulate(tmp_path, out=f"sim-{run}", seed=3, snr=snr)
        cfg = _fuse_config(tmp_path, sim, out=f"fused-{run}", iters=2)
        assert main([command, "--config", str(cfg)]) == 0
        hashes[run] = json.loads((tmp_path / f"fused-{run}" / "report.json").read_text())[
            "inputs_sha256"]
    assert hashes["a"] == {
        name: hashlib.sha256((tmp_path / "sim-a" / f"{name.upper()}.htf").read_bytes()).hexdigest()
        for name in ("hsi", "msi")
    }
    assert hashes["again"] == hashes["a"]
    assert all(hashes["b"][name] != hashes["a"][name] for name in ("hsi", "msi"))


def test_simulate_realized_snr_recorded(tmp_path):
    out = _simulate(tmp_path, snr="25")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["snr_db_realized"]["hsi"] == pytest.approx(25.0, abs=1e-9)
    assert manifest["snr_db_realized"]["msi"] == pytest.approx(25.0, abs=1e-9)


def test_simulate_rejects_undefined_noise_level_before_writing(tmp_path, capsys):
    # NaN and -inf give no noise scale; the run must stop before SRI.htf is written
    for label, snr, flags in (("cfg", "nan", []), ("flag", "30", ["--snr=-inf"])):
        cfg = tmp_path / f"{label}.cfg"
        out = tmp_path / label
        cfg.write_text(SIMULATE_CFG.format(out=out, seed=1, snr=snr))
        assert main(["simulate", "--config", str(cfg), *flags]) == 2
        assert "snr_db" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("snr", ["4000", "-4000"])
def test_simulate_refuses_snr_beyond_double_range(tmp_path, capsys, snr):
    # 10^(snr/10) is no finite nonzero double: refused by name before any compute
    cfg = tmp_path / "sim.cfg"
    out = tmp_path / "out"
    cfg.write_text(SIMULATE_CFG.format(out=out, seed=1, snr="30"))
    assert main(["simulate", "--config", str(cfg), f"--snr={snr}"]) == 2
    err = capsys.readouterr().err
    assert "noise.snr_db" in err and snr in err
    assert not out.exists()


def test_simulate_from_a_given_sri_writes_it_bit_for_bit(tmp_path):
    # [inputs] sri takes the place of the drawn model: SRI.htf is the given
    # file's tensor, bit for bit, and the images have its degraded sizes
    sri = np.random.default_rng(3).uniform(size=(16, 16, 8))
    write_htf(tmp_path / "given.htf", sri)
    text = SIMULATE_CFG.format(out=tmp_path / "out", seed=1, snr="inf")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text.replace("[synthesis]\ndims = 16,16,8\n",
                                f"[inputs]\nsri = {tmp_path / 'given.htf'}\n"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "SRI.htf").read_bytes() == (tmp_path / "given.htf").read_bytes()
    assert np.array_equal(read_htf(out / "SRI.htf"), sri)
    assert read_htf(out / "HSI.htf").shape == (8, 8, 8)
    assert read_htf(out / "MSI.htf").shape == (16, 16, 4)


def test_simulate_warns_when_unrecoverable(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    text = SIMULATE_CFG.format(out=tmp_path / "w", seed=1, snr="inf")
    text = text.replace("term_rank = 2", "term_rank = 8").replace("rank = 2", "rank = 8")
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg)]) == 0  # warning is non-fatal
    assert "recovery conditions not satisfied" in capsys.readouterr().err


def test_fuse_end_to_end_with_metrics(tmp_path):
    sim = _simulate(tmp_path)
    cfg = _fuse_config(tmp_path, sim)
    assert main(["fuse", "--config", str(cfg)]) == 0
    fused = tmp_path / "fused"
    report = json.loads((fused / "report.json").read_text())
    assert report["mode"] == "fuse"
    metrics = report["metrics"]
    for key in ("rsnr_db", "ssim", "cc", "uiqi", "rmse", "ergas", "sam_rad"):
        assert key in metrics
    assert metrics["rsnr_db"] > 30.0
    trace = (fused / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iteration,objective,elapsed"
    assert len(trace) == report["iterations"] + 2
    # rel_tol = 0 runs every sweep and estimates no noise
    assert report["iterations"] == 400 and report["stop_reason"] == "max_iters"
    assert report["converged"] is False and report["noise_energy"] is None
    sri = read_htf(fused / "SRI.htf")
    assert sri.shape == (16, 16, 8)


def test_fuse_reports_the_noise_level_stop(tmp_path):
    sim = _simulate(tmp_path, snr="30")
    cfg = _fuse_config(tmp_path, sim)
    cfg.write_text(cfg.read_text().replace("rel_tol = 0\n", ""))
    assert main(["fuse", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "fused" / "report.json").read_text())
    assert report["stop_reason"] == "noise_level" and report["converged"] is True
    assert report["iterations"] < 400
    # the estimates the run compared its fit with, one per image: read from
    # the images divided by the data scale, and reported in the images' units
    scale = report["data_scale"]
    assert report["noise_energy"] == {
        name: _noise_energy(unfold(read_htf(sim / f"{name.upper()}.htf")) / scale, 2)
        * scale * scale
        for name in ("hsi", "msi")
    }


def test_fuse_same_seed_deterministic_results(tmp_path):
    sim = _simulate(tmp_path)
    cfg_a = _fuse_config(tmp_path, sim, out="fa", iters=60)
    cfg_b = _fuse_config(tmp_path, sim, out="fb", iters=60)
    assert main(["fuse", "--config", str(cfg_a)]) == 0
    assert main(["fuse", "--config", str(cfg_b)]) == 0
    a, b = tmp_path / "fa", tmp_path / "fb"
    assert (a / "SRI.htf").read_bytes() == (b / "SRI.htf").read_bytes()
    report_a = json.loads((a / "report.json").read_text())
    report_b = json.loads((b / "report.json").read_text())
    report_a.pop("timing"), report_b.pop("timing")
    assert report_a == report_b  # includes the config fingerprint and metrics
    # trace rows match on iteration and objective; elapsed is wall time
    rows_a = [line.split(",")[:2] for line in (a / "trace.csv").read_text().splitlines()]
    rows_b = [line.split(",")[:2] for line in (b / "trace.csv").read_text().splitlines()]
    assert rows_a == rows_b


def test_blind_fuse_ignores_spatial_ops_with_warning(tmp_path, capsys):
    sim = _simulate(tmp_path)
    cfg = _fuse_config(tmp_path, sim, out="blind", iters=300)
    assert main(["blind-fuse", "--config", str(cfg)]) == 0
    assert "ignores the provided p1/p2" in capsys.readouterr().err
    report = json.loads((tmp_path / "blind" / "report.json").read_text())
    assert report["mode"] == "blind-fuse"
    assert np.isfinite(report["metrics"]["rsnr_db"])
    sri = read_htf(tmp_path / "blind" / "SRI.htf")
    assert sri.shape == (16, 16, 8)


@pytest.mark.parametrize("command, flag, value, setting", [
    ("simulate", "--ratio", "0", "ratio"),
    ("simulate", "--rank", "0", "rank"),
    ("simulate", "--term-rank", "0", "term_rank"),
    ("simulate", "--seed", "-1", "seed"),
    ("simulate", "--snr", "nan", "snr_db"),
    *[(command, flag, value, setting)
      for command in ("fuse", "blind-fuse")
      for flag, value, setting in (("--max-iters", "-1", "max_iters"),
                                   ("--rank", "0", "rank"))],
])
def test_bad_flag_value_is_config_error_before_any_write(
        tmp_path, capsys, command, flag, value, setting):
    # a flag value is validated like the file value it replaces: exit 2, nothing written
    if command == "simulate":
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIMULATE_CFG.format(out=tmp_path / "out", seed=1, snr="inf"))
    else:
        cfg = _fuse_config(tmp_path, _simulate(tmp_path), out="out")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), flag, value]) == 2
    assert f"{setting} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_only_simulate_takes_the_seed_flag(tmp_path, capsys):
    # the solvers draw nothing, so fuse and blind-fuse have no --seed; the
    # run.seed key stays valid for them and report.json records it
    sim = _simulate(tmp_path)
    cfg = _fuse_config(tmp_path, sim, out="out", iters=2)
    for command in ("fuse", "blind-fuse"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(cfg), "--seed", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    for command in ("fuse", "blind-fuse"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 5
    sim_cfg = tmp_path / "sim.cfg"
    assert main(["simulate", "--config", str(sim_cfg), "--seed", "1",
                 "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "HSI.htf").read_bytes() == (sim / "HSI.htf").read_bytes()


@pytest.mark.parametrize("command", ["fuse", "blind-fuse"])
@pytest.mark.parametrize("reference, code, message", [
    ("missing.htf", 2, "inputs.reference file not found"),
    ("HSI.htf", 3, "inputs.reference: shape (8, 8, 8), expected (16, 16, 8)"),
], ids=["missing", "hsi-shaped"])
def test_bad_reference_is_refused_before_the_solve(
        tmp_path, capsys, monkeypatch, command, reference, code, message):
    # a reference that is missing or is not (MSI rows, MSI cols, HSI bands)
    # is refused with the other inputs: no solve runs and nothing is written
    sim = _simulate(tmp_path)
    cfg = _fuse_config(tmp_path, sim, out="out")
    cfg.write_text(cfg.read_text().replace(f"{sim}/SRI.htf", f"{sim}/{reference}"))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("solved before the reference was checked")

    for name in ("fuse", "fuse_blind"):
        monkeypatch.setattr(cli, name, counted)
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == code
    assert message in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("in_file", [True, False])
def test_bad_run_seed_error_names_run_seed(tmp_path, capsys, in_file):
    # the message names the key that was given, here in a file with no
    # [solver] section, and not a field of any config it feeds
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIMULATE_CFG.format(out=tmp_path / "out", seed=-3 if in_file else 1, snr="inf"))
    flags = [] if in_file else ["--seed", "-1"]
    assert main(["simulate", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert "run.seed" in err and "[solver]" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("in_file", [True, False])
@pytest.mark.parametrize("key, flag, value", [("model.rank", "--rank", "0"),
                                              ("model.term_rank", "--term-rank", "-2"),
                                              ("noise.snr_db", "--snr", "nan")])
def test_bad_model_and_noise_values_name_their_key(tmp_path, capsys, key, flag, value, in_file):
    # a value is checked as its key is parsed, so the message names the key
    # and not only the setting, from the file and from the flag alike
    section, name = key.split(".")
    cfg = tmp_path / "sim.cfg"
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(SIMULATE_CFG.format(out=tmp_path / "out", seed=1, snr="inf"))
    if in_file:
        parser[section][name] = value
    with open(cfg, "w") as handle:
        parser.write(handle)
    flags = [] if in_file else [flag, value]
    assert main(["simulate", "--config", str(cfg), *flags]) == 2
    assert f"{key}: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, named", [
    ("synthesis", "nonneg", "no", "unknown key 'nonneg' in section [synthesis]"),
    ("spectral", "bands", "0-3,,4-7", "spectral.bands"),
    ("blur", "boundary", "mirror", "[blur] boundary"),
])
def test_bad_config_value_names_its_key_before_any_write(
        tmp_path, capsys, section, key, value, named):
    cfg = tmp_path / "sim.cfg"
    text = SIMULATE_CFG.format(out=tmp_path / "out", seed=1, snr="inf")
    cfg.write_text(_with_value(text, section, key, value))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_default_section_is_config_error_before_any_write(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("[DEFAULT]\nrank = 3\n" + SIMULATE_CFG.format(out=tmp_path / "out", seed=1,
                                                                   snr="inf"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "unknown section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dropped, kept", [("[synthesis]\ndims = 16,16,8\n", ""),
                                           ("[model]\nrank = 2\n", "[model]\n"),
                                           ("term_rank = 2\n", "")])
def test_simulate_without_sri_or_model_is_config_error_before_any_write(
        tmp_path, capsys, dropped, kept):
    text = SIMULATE_CFG.format(out=tmp_path / "out", seed=1, snr="inf")
    assert dropped in text
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text.replace(dropped, kept))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert ("simulate needs either inputs.sri or synthesis.dims plus model.rank/term_rank"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_file_system_error_exits_2_naming_the_path(tmp_path, capsys):
    # SRI.htf, the first file simulate writes, is a directory: the OS error
    # is reported as an error line, not a traceback
    out = tmp_path / "out"
    (out / "SRI.htf").mkdir(parents=True)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIMULATE_CFG.format(out=out, seed=1, snr="inf"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "SRI.htf") in err
    assert [p.name for p in out.iterdir()] == ["SRI.htf"]


@pytest.mark.parametrize("command", ["fuse", "blind-fuse"])
def test_fuse_without_rank_is_config_error_before_any_compute(
        tmp_path, capsys, monkeypatch, command):
    cfg = _fuse_config(tmp_path, _simulate(tmp_path), out="out")
    cfg.write_text(cfg.read_text().replace("[model]\nrank = 2\n", ""))
    _refuse_compute(monkeypatch)
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    assert f"{command} needs model.rank (or --rank)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _refuse_compute(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    for name in ("random_blockterm", "reconstruct", "fuse", "fuse_blind", "evaluate"):
        monkeypatch.setattr(cli, name, refused)


@pytest.mark.parametrize("from_file", [False, True])
def test_simulate_without_bands_is_config_error_before_any_compute(
        tmp_path, capsys, monkeypatch, from_file):
    # spectral.bands is checked before simulate reads inputs.sri or draws a model
    text = SIMULATE_CFG.format(out=tmp_path / "out", seed=1, snr="inf")
    text = text.replace("[spectral]\nbands = 0-1,2-3,4-5,6-7\n", "")
    if from_file:
        write_htf(tmp_path / "sri.htf", np.ones((16, 16, 8)))
        text += f"\n[inputs]\nsri = {tmp_path / 'sri.htf'}\n"
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)

    def refused(*args, **kwargs):
        raise AssertionError("computed before spectral.bands was checked")

    for name in ("random_blockterm", "read_htf"):
        monkeypatch.setattr(cli, name, refused)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "spectral.bands" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("through", [False, True])
@pytest.mark.parametrize("command", ["simulate", "fuse", "blind-fuse"])
def test_out_naming_a_file_is_config_error_before_any_compute(
        tmp_path, capsys, monkeypatch, command, through):
    # run.out that is a file, or a path through one, exits 2 naming the key
    # before anything is computed, and the file is left as it was
    if command == "simulate":
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIMULATE_CFG.format(out=tmp_path / "out", seed=1, snr="inf"))
    else:
        cfg = _fuse_config(tmp_path, _simulate(tmp_path))
    _refuse_compute(monkeypatch)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "sub" if through else afile
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"run.out: {out}" in capsys.readouterr().err
    assert afile.read_text() == "kept"


@pytest.mark.parametrize("through", [False, True])
def test_evaluate_out_naming_a_file_is_config_error(tmp_path, capsys, monkeypatch, through):
    t = np.random.default_rng(0).uniform(0.1, 1.0, size=(6, 6, 4))
    write_htf(tmp_path / "ref.htf", t)
    _refuse_compute(monkeypatch)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "sub" if through else afile
    ref = str(tmp_path / "ref.htf")
    assert main(["evaluate", ref, ref, "--out", str(out)]) == 2
    assert f"--out: {out}" in capsys.readouterr().err
    assert afile.read_text() == "kept"


# valid text for every override flag; --no-accel takes no text and means false
FLAG_VALUES = {
    "--seed": st.integers(0, 2**63 - 1).map(str),
    "--out": st.from_regex(r"[A-Za-z0-9_.][A-Za-z0-9_./-]{0,15}", fullmatch=True),
    # +inf, or a level whose power ratio 10^(snr/10) is a finite nonzero double
    "--snr": st.one_of(st.floats(-3000, 3000), st.just(math.inf)).map(repr),
    "--ratio": st.integers(1, 64).map(str),
    "--rank": st.integers(1, 1000).map(str),
    "--term-rank": st.integers(1, 1000).map(str),
    "--max-iters": st.integers(0, 10**9).map(str),
    "--no-accel": st.just("false"),
}


def _with_value(text, section, key, value):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: st.tuples(st.just(flag), FLAG_VALUES[flag])))
def test_flag_and_file_value_give_the_same_config(flag_value):
    assert set(FLAG_VALUES) == set(OVERRIDES)
    flag, text = flag_value
    command = "fuse" if flag in ("--max-iters", "--no-accel") else "simulate"
    base = SIMULATE_CFG.format(out="sim", seed=1, snr="30")
    with tempfile.TemporaryDirectory() as tmp:
        file_cfg, flag_cfg = Path(tmp, "file.cfg"), Path(tmp, "flag.cfg")
        file_cfg.write_text(_with_value(base, *OVERRIDES[flag].split("."), text))
        flag_cfg.write_text(base)
        flag_args = [flag] if flag == "--no-accel" else [f"{flag}={text}"]
        parse = _build_parser().parse_args
        from_file = _run_config(parse([command, "--config", str(file_cfg)]))
        from_flag = _run_config(parse([command, "--config", str(flag_cfg), *flag_args]))
    assert from_file == from_flag
    assert from_file.fingerprint() == from_flag.fingerprint()


def test_fuse_flag_overrides(tmp_path):
    sim = _simulate(tmp_path)
    cfg = _fuse_config(tmp_path, sim, out="short", iters=500)
    assert main(["fuse", "--config", str(cfg), "--max-iters", "3", "--no-accel"]) == 0
    report = json.loads((tmp_path / "short" / "report.json").read_text())
    assert report["iterations"] <= 3


def test_evaluate_identical_files(tmp_path, capsys):
    rng = np.random.default_rng(0)
    t = rng.uniform(0.1, 1.0, size=(6, 6, 4))
    write_htf(tmp_path / "ref.htf", t)
    write_htf(tmp_path / "est.htf", t)
    assert main(["evaluate", str(tmp_path / "ref.htf"), str(tmp_path / "est.htf")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rmse"] == 0.0
    assert payload["ssim"] == 1.0
    assert payload["rsnr_db"] == float("inf")


def test_evaluate_per_band_flag(tmp_path, capsys):
    rng = np.random.default_rng(1)
    ref = rng.uniform(0.1, 1.0, size=(6, 6, 4))
    est = ref + 0.01 * rng.standard_normal(ref.shape)
    write_htf(tmp_path / "ref.htf", ref)
    write_htf(tmp_path / "est.htf", est)
    out = tmp_path / "metrics_out"
    code = main([
        "evaluate", str(tmp_path / "ref.htf"), str(tmp_path / "est.htf"),
        "--ratio", "2", "--per-band", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)
    assert len(payload["per_band"]["rmse"]) == 4
    assert (out / "metrics.json").read_text() == stdout


def test_check_command_pavia(tmp_path, capsys):
    code = main([
        "check", "--msi-dims", "256,256", "--hsi-dims", "64,64",
        "--msi-bands", "4", "--rank", "4", "--term-rank", "32",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"satisfied", "failed_conditions", "conditions"}
    assert payload["satisfied"] is True


def test_check_command_blind_single_band(capsys):
    code = main([
        "check", "--msi-dims", "64,64", "--hsi-dims", "16,16",
        "--msi-bands", "1", "--rank", "3", "--term-rank", "2", "--blind",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfied"] is False
    assert any("msi_bands >= 2" in c for c in payload["failed_conditions"])


@pytest.mark.parametrize("hsi_dims", ["16,16", "16,8", "8,9"])
def test_check_command_rejects_hsi_larger_than_msi(capsys, hsi_dims):
    code = main([
        "check", "--msi-dims", "8,8", "--hsi-dims", hsi_dims,
        "--msi-bands", "4", "--rank", "2", "--term-rank", "2",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hsi_rows/hsi_cols" in captured.err and "MSI size 8x8" in captured.err


@pytest.mark.parametrize("flag, text", [
    ("--msi-dims", "8"), ("--hsi-dims", "0,4"), ("--msi-dims", "a,b"),
])
def test_check_command_rejects_bad_dims(capsys, flag, text):
    dims = {"--msi-dims": "8,8", "--hsi-dims": "4,4", flag: text}
    code = main([
        "check", "--msi-dims", dims["--msi-dims"], "--hsi-dims", dims["--hsi-dims"],
        "--msi-bands", "4", "--rank", "2", "--term-rank", "2",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ")


def test_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[solver]\nbogus = 1\n")
    assert main(["fuse", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_exit_code_missing_input(tmp_path, capsys):
    cfg = tmp_path / "fuse.cfg"
    cfg.write_text("[model]\nrank = 2\n")
    assert main(["fuse", "--config", str(cfg)]) == 2


def test_exit_code_dimension_error(tmp_path, capsys):
    sim = _simulate(tmp_path)
    # swap P1 for a full-row-rank matrix with the wrong column count
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("HSI.htf", "MSI.htf", "P2.csv", "PM.csv", "SRI.htf"):
        (bad / name).write_bytes((sim / name).read_bytes())
    from hsrfuse.fileio import write_matrix_csv

    write_matrix_csv(bad / "P1.csv", np.eye(8, 12))
    cfg = _fuse_config(tmp_path, bad, out="bad_out", iters=5)
    assert main(["fuse", "--config", str(cfg)]) == 3
    assert not (tmp_path / "bad_out").exists()
    # a term rank above the 16x16 image's spatial size fails before simulate writes
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(SIMULATE_CFG.format(out=tmp_path / "sim_out", seed=1, snr="inf"))
    assert main(["simulate", "--config", str(sim_cfg), "--term-rank", "99"]) == 3
    assert not (tmp_path / "sim_out").exists()


def test_exit_code_rank_deficient_operator(tmp_path, capsys):
    sim = _simulate(tmp_path)
    bad = tmp_path / "rankdef"
    bad.mkdir()
    for name in ("HSI.htf", "MSI.htf", "P2.csv", "PM.csv", "SRI.htf"):
        (bad / name).write_bytes((sim / name).read_bytes())
    from hsrfuse.fileio import write_matrix_csv

    write_matrix_csv(bad / "P1.csv", np.vstack([np.eye(4, 16)] * 2))
    cfg = _fuse_config(tmp_path, bad, out="rd_out", iters=5)
    assert main(["fuse", "--config", str(cfg)]) == 2


def test_evaluate_missing_file_is_config_error(tmp_path):
    assert main(["evaluate", str(tmp_path / "a.htf"), str(tmp_path / "b.htf")]) == 2


DEFAULT_PROTOCOL_CFG = """
[synthesis]
dims = 64,64,16

[model]
rank = 2
term_rank = 2

[spectral]
bands = 0-3,4-7,8-11,12-15

[run]
seed = 1
out = {out}
"""


def test_simulate_default_protocol_dims(tmp_path):
    # defaults: 9x9 kernel, sigma 2, ratio 4 -> a 64x64x16 image yields 16x16x16
    cfg = tmp_path / "proto.cfg"
    cfg.write_text(DEFAULT_PROTOCOL_CFG.format(out=tmp_path / "proto"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert read_htf(tmp_path / "proto" / "HSI.htf").shape == (16, 16, 16)
    assert read_htf(tmp_path / "proto" / "MSI.htf").shape == (64, 64, 4)


def test_numerical_failure_flushes_trace(tmp_path, monkeypatch, capsys):
    import hsrfuse.cli as cli_mod
    from hsrfuse.errors import NumericalError

    sim = _simulate(tmp_path)
    cfg = _fuse_config(tmp_path, sim, out="diverged", iters=5)

    def exploding_fuse(*args, **kwargs):
        raise NumericalError(
            "objective became non-finite",
            trace=np.array([3.0, 2.0, 1.5]),
            elapsed=np.array([0.0, 0.1, 0.2]),
        )

    monkeypatch.setattr(cli_mod, "fuse", exploding_fuse)
    assert main(["fuse", "--config", str(cfg)]) == 4
    assert "numerical failure" in capsys.readouterr().err
    trace = (tmp_path / "diverged" / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,objective,elapsed"
    assert len(trace) == 4  # header + the three flushed entries
    assert not (tmp_path / "diverged" / "SRI.htf").exists()


def test_overflowing_products_are_a_numerical_failure(tmp_path, capsys):
    # an HSI 2^600 times the MSI's scale overflows its band Gram, which the
    # noise-level rule reads: exit 4 with the (empty) trace written, not a
    # configuration error
    sim = _simulate(tmp_path, snr="30")
    write_htf(sim / "HSI.htf", np.ldexp(read_htf(sim / "HSI.htf"), 600))
    cfg = _fuse_config(tmp_path, sim, out="overflowed", iters=5)
    cfg.write_text(cfg.read_text().replace("rel_tol = 0\n", ""))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["fuse", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Gram" in err
    trace = (tmp_path / "overflowed" / "trace.csv").read_text().splitlines()
    assert trace == ["iteration,objective,elapsed"]
    assert not (tmp_path / "overflowed" / "SRI.htf").exists()


def test_module_entry_point_prints_the_version():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    run = subprocess.run([sys.executable, "-m", "hsrfuse", "--version"],
                         capture_output=True, text=True, timeout=60, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "hsrfuse 0.1.0"
