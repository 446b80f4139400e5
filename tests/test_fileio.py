import codecs
import copy
import math
import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hsrfuse.degradation import BlurSpec, add_noise
from hsrfuse.errors import ConfigError, DimensionError, FileFormatError
from hsrfuse.fileio import (
    HTF_MAGIC,
    RunConfig,
    load_config,
    parse_band_ranges,
    parse_dims,
    read_htf,
    read_matrix_csv,
    write_htf,
    write_matrix_csv,
)
from hsrfuse.regularizers import SchattenConfig, TvConfig
from hsrfuse.solver import SolverConfig
from hsrfuse.tensors import unfold


# every finite double, subnormals included; -0.0 and the extremes as examples
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = np.array([-0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max])
ROUND_TRIP = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@ROUND_TRIP
@given(t=arrays(float, array_shapes(min_dims=3, max_dims=3, max_side=5), elements=FINITE))
@example(t=EDGES.reshape(1, 5, 1))
def test_htf_roundtrip_bit_exact(tmp_path, t):
    path = tmp_path / "t.htf"
    write_htf(path, t)
    back = read_htf(path)
    assert _same_bits(back, t)
    write_htf(tmp_path / "t2.htf", back)
    assert (tmp_path / "t.htf").read_bytes() == (tmp_path / "t2.htf").read_bytes()


def test_htf_bad_magic(tmp_path):
    path = tmp_path / "bad.htf"
    path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\x00" * 8)
    with pytest.raises(FileFormatError, match="magic"):
        read_htf(path)


def test_htf_truncated_payload(tmp_path):
    path = tmp_path / "short.htf"
    path.write_bytes(HTF_MAGIC + struct.pack("<III", 2, 2, 2) + b"\x00" * 16)
    with pytest.raises(FileFormatError, match="truncated"):
        read_htf(path)


def test_htf_trailing_bytes(tmp_path):
    path = tmp_path / "long.htf"
    path.write_bytes(HTF_MAGIC + struct.pack("<III", 1, 1, 1) + b"\x00" * 9)
    with pytest.raises(FileFormatError, match="trailing"):
        read_htf(path)


def test_htf_rejects_nan_payload(tmp_path):
    path = tmp_path / "nan.htf"
    payload = struct.pack("<d", math.nan)
    path.write_bytes(HTF_MAGIC + struct.pack("<III", 1, 1, 1) + payload)
    with pytest.raises(FileFormatError, match="non-finite"):
        read_htf(path)
    with pytest.raises(ValueError):
        write_htf(tmp_path / "w.htf", np.full((1, 1, 1), np.inf))


def test_htf_write_rejects_bad_shapes(tmp_path):
    # read_htf refuses a zero dimension, so write_htf must not produce one
    for shape in ((0, 3, 3), (2, 0, 1), (2, 2)):
        with pytest.raises(DimensionError, match=re.escape(str(shape))):
            write_htf(tmp_path / "z.htf", np.zeros(shape))
    assert not (tmp_path / "z.htf").exists()


def test_htf_payload_order_is_first_index_fastest(tmp_path):
    t = np.zeros((2, 2, 1))
    t[:, :, 0] = [[1, 3], [2, 4]]
    path = tmp_path / "order.htf"
    write_htf(path, t)
    raw = path.read_bytes()[16:]
    values = struct.unpack("<4d", raw)
    assert values == (1.0, 2.0, 3.0, 4.0)


_BASE = np.arange(60, dtype=float).reshape(3, 4, 5) / 7 - 2
HTF_INPUTS = {
    "C-ordered": np.ascontiguousarray(_BASE),
    "F-ordered": np.asfortranarray(_BASE),
    "strided": np.arange(480, dtype=float).reshape(6, 8, 10)[::2, 1::2, ::2] / 3,
    "reversed": _BASE[::-1, :, ::-1],
    "transposed": _BASE.transpose(2, 0, 1),
    "big-endian": _BASE.astype(">f8"),
    "float32": _BASE.astype(np.float32),
    "int": np.arange(60).reshape(3, 4, 5) - 30,
    "nested list": _BASE.tolist(),
}


@pytest.mark.parametrize("layout", sorted(HTF_INPUTS))
def test_htf_every_input_layout_writes_first_index_fastest_doubles(tmp_path, layout):
    tensor = HTF_INPUTS[layout]
    values = np.asarray(tensor, dtype=float)
    expected = (HTF_MAGIC + struct.pack("<III", *values.shape)
                + struct.pack(f"<{values.size}d", *values.ravel(order="F")))
    path = tmp_path / "t.htf"
    write_htf(path, tensor)
    assert path.read_bytes() == expected
    back = read_htf(path)
    # F-ordered, writeable native float64: unfold stays a view of it
    assert back.flags.f_contiguous and back.flags.writeable
    assert back.dtype == np.float64 and back.dtype.isnative
    assert np.shares_memory(unfold(back), back)
    assert np.array_equal(back, values)


def test_htf_short_header(tmp_path):
    path = tmp_path / "stub.htf"
    path.write_bytes(HTF_MAGIC + struct.pack("<I", 2) + b"\x00")
    with pytest.raises(FileFormatError, match=re.escape("truncated header (9 bytes)")):
        read_htf(path)


def test_htf_zero_dimension_in_header(tmp_path):
    path = tmp_path / "zero.htf"
    path.write_bytes(HTF_MAGIC + struct.pack("<III", 2, 0, 1))
    with pytest.raises(FileFormatError, match=re.escape("zero dimension in header (2, 0, 1)")):
        read_htf(path)


@ROUND_TRIP
@given(m=arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=5), elements=FINITE))
@example(m=EDGES.reshape(5, 1))
@example(m=np.array([[1 / 3, np.pi]]))
def test_csv_roundtrip_17_digits(tmp_path, m):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert _same_bits(read_matrix_csv(path), m)


def test_csv_identity_parse(tmp_path):
    path = tmp_path / "i.csv"
    path.write_text("1,0\n0,1\n")
    assert np.array_equal(read_matrix_csv(path), np.eye(2))


def test_csv_ragged_names_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(FileFormatError, match="row 2"):
        read_matrix_csv(path)


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "alpha.csv"
    for bad_row in ("3,four", "3,nan", "inf,4", "3,-inf"):
        path.write_text(f"1,2\n{bad_row}\n")
        with pytest.raises(FileFormatError, match="alpha.csv: row 2"):
            read_matrix_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(FileFormatError):
        read_matrix_csv(path)


def test_parse_band_ranges():
    assert parse_band_ranges("0-3,4-7,12") == [(0, 3), (4, 7), (12, 12)]
    with pytest.raises(ConfigError):
        parse_band_ranges("3-1")
    with pytest.raises(ConfigError):
        parse_band_ranges("a-b")


def test_parse_dims():
    assert parse_dims("24, 24, 16") == (24, 24, 16)
    with pytest.raises(ConfigError):
        parse_dims("24,24")
    with pytest.raises(ConfigError):
        parse_dims("24,24,0")
    assert parse_dims("8, 6", 2) == (8, 6)
    with pytest.raises(ConfigError, match="2 comma-separated"):
        parse_dims("8,6,4", 2)


@pytest.mark.parametrize("cls, fields, name", [
    # True was read as 1; the others raised a TypeError naming no field or
    # passed a non-integer rank on
    (SchattenConfig, dict(p=True), "p"),
    (TvConfig, dict(q=True), "q"),
    (BlurSpec, dict(sigma=True), "sigma"),
    (SchattenConfig, dict(p="0.5"), "p"),
    (SchattenConfig, dict(tau=None), "tau"),
    (TvConfig, dict(epsilon=None), "epsilon"),
    (BlurSpec, dict(sigma=None), "sigma"),
    (RunConfig, dict(snr_db="3"), "snr_db"),
    (RunConfig, dict(rank=2.5), "rank"),
    (RunConfig, dict(rank=True), "rank"),
])
def test_configs_reject_wrong_types(cls, fields, name):
    with pytest.raises(ValueError, match=f"{name} must be an? (real number|integer)"):
        cls(**fields)


def test_configs_accept_numpy_scalars():
    assert SchattenConfig(p=np.float32(0.5), tau=np.int64(2)).tau == 2
    assert TvConfig(q=np.float64(1.0), epsilon=np.float32(0.01)).q == 1.0
    assert BlurSpec(sigma=np.float32(1.5)).sigma == 1.5
    run = RunConfig(rank=np.int64(3), term_rank=np.uint8(2), snr_db=np.float64(30.0))
    assert (run.rank, run.term_rank, run.snr_db) == (3, 2, 30.0)
    t = np.ones((2, 2, 2))
    assert np.array_equal(add_noise(t, np.float64(np.inf)), t)


CONFIG_TEXT = """
[synthesis]
dims = 12,12,8

[model]
rank = 2
term_rank = 1

[blur]
kernel_width = 5
sigma = 1.0
ratio = 2

[spectral]
bands = 0-3,4-7

[noise]
snr_db = inf

[solver]
ridge_weight = 1e-6
max_iters = 50
rel_tol = 1e-5
accelerate = false

[run]
seed = 3
out = results
"""


def test_load_config_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    assert cfg.dims == (12, 12, 8)
    assert cfg.rank == 2 and cfg.term_rank == 1
    assert cfg.blur.kernel_width == 5 and cfg.blur.ratio == 2
    assert cfg.bands == [(0, 3), (4, 7)]
    assert math.isinf(cfg.snr_db)
    assert cfg.solver.ridge_weight == 1e-6
    assert cfg.solver.max_iters == 50
    assert not cfg.solver.accelerate
    assert cfg.seed == 3 and cfg.out == "results"


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[solver]\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match="momentum"):
        load_config(path)


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[wat]\nx = 1\n")
    with pytest.raises(ConfigError, match="wat"):
        load_config(path)


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nrank = 3\nmax_iters = 5\n",
    "[DEFAULT]\nrank = 3\n[model]\nterm_rank = 1\n",
    "[DEFAULT]\nrank = 3\n[run]\nseed = 1\n",
])
def test_load_config_refuses_a_default_section_with_keys(tmp_path, text):
    # configparser copies [DEFAULT] into every section: alone its keys would
    # be dropped, beside [model] its rank would become model.rank, and beside
    # [run] it would read as a key of [run]
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape("unknown section [DEFAULT]")):
        load_config(path)
    path.write_text(text.replace("rank = 3\n", "").replace("max_iters = 5\n", ""))
    assert load_config(path).rank is None  # an empty [DEFAULT] holds nothing


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    for text, message in (("kernel_width = 4", "odd"), ("sigma = nan", "sigma"),
                          ("ratio = two", "blur.ratio")):
        path.write_text(f"[blur]\n{text}\n")
        with pytest.raises(ConfigError, match=message):
            load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_fingerprint_tracks_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    a = load_config(path)
    b = load_config(path)
    assert a.fingerprint() == b.fingerprint()
    # config_sha256 in manifests and reports: pinned to the value earlier releases wrote
    assert a.fingerprint() == "e13969f48d6815f775b5943b06cc6802f21ace8236273c53360cd26a1b108e24"
    b.seed = 4
    assert a.fingerprint() != b.fingerprint()


def test_fingerprint_covers_every_computation_field():
    # each field of the run and of its nested configs, set to a value no
    # default has, moves the hash, except the output directory and the
    # solver seed, which change no result
    base = RunConfig()
    owners = {(): RunConfig, ("blur",): BlurSpec, ("solver",): SolverConfig,
              ("solver", "schatten"): SchattenConfig, ("solver", "tv"): TvConfig}
    inert = {((), "out"), (("solver",), "seed")}
    for path, owner in owners.items():
        for f in fields(owner):
            if path + (f.name,) in owners:
                continue  # a nested config, checked field by field
            cfg = copy.deepcopy(base)
            target = cfg
            for name in path:
                target = getattr(target, name)
            setattr(target, f.name, "<changed>")
            moved = cfg.fingerprint() != base.fingerprint()
            assert moved == ((path, f.name) not in inert), (path, f.name)


def test_csv_writes_each_value_at_17_significant_digits(tmp_path):
    # one row per line, each value as format(x, ".17g"), comma-separated
    path = tmp_path / "m.csv"
    for matrix, text in (
        ([[0.0, -0.0]], "0,-0\n"),
        ([5e-324, np.finfo(float).max], "4.9406564584124654e-324,1.7976931348623157e+308\n"),
        (1 / 3, "0.33333333333333331\n"),
        (np.eye(3), "1,0,0\n0,1,0\n0,0,1\n"),
        (np.arange(3) / 4, "0,0.25,0.5\n"),
        ([[1, 2], [3, 4]], "1,2\n3,4\n"),
    ):
        write_matrix_csv(path, matrix)
        assert path.read_bytes() == text.encode()
    m = np.random.default_rng(0).normal(size=(24, 96))
    write_matrix_csv(path, m)
    lines = [",".join(format(x, ".17g") for x in row) for row in m]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("reader, error", [(read_matrix_csv, FileFormatError),
                                           (load_config, ConfigError)])
def test_text_readers_name_the_file_and_the_byte_that_is_not_utf8(tmp_path, reader, error):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"[run]\nseed = 1\n# caf\xe9\n")
    with pytest.raises(error, match=re.escape(f"{path}: not UTF-8 text at byte 20")):
        reader(path)


@pytest.mark.parametrize("reader, text", [(read_matrix_csv, "1.0,2.0\n3.0,4.0\n"),
                                          (load_config, CONFIG_TEXT.lstrip())],
                         ids=["csv", "config"])
def test_text_readers_skip_a_utf8_byte_order_mark(tmp_path, reader, text):
    # a file that starts with the UTF-8 byte-order mark, as some editors
    # write it, reads as the file without it; a byte that is not UTF-8 after
    # the mark is still named by its offset in the file
    path = tmp_path / "input.txt"
    path.write_text(text)
    want = reader(path)
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    got = reader(path)
    if isinstance(want, np.ndarray):
        assert _same_bits(got, want)
    else:
        assert got == want
    path.write_bytes(codecs.BOM_UTF8 + text.encode() + b"# caf\xe9\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: not UTF-8 text at byte {3 + len(text.encode()) + 5}")):
        reader(path)

def _damaged(valid):
    """Random bytes, ``valid`` with a few bytes overwritten, or ``valid`` cut short."""
    def overwrite(edits):
        damaged = bytearray(valid)
        for at, byte in edits:
            damaged[at] = byte
        return bytes(damaged)

    n = len(valid)
    return st.one_of(
        st.binary(max_size=2 * n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)),
                 min_size=1, max_size=8).map(overwrite),
        st.integers(0, n - 1).map(lambda cut: valid[:cut]),
    )


def _valid_csv(path):
    write_matrix_csv(path, np.arange(6.0).reshape(2, 3) / 7)


def _valid_config(path):
    path.write_text(CONFIG_TEXT)


def _valid_htf(path):
    write_htf(path, np.arange(12.0).reshape(2, 3, 2) / 7)


@settings(ROUND_TRIP, max_examples=200)
@pytest.mark.parametrize("reader, write_valid", [
    (read_matrix_csv, _valid_csv),
    (load_config, _valid_config),
    (read_htf, _valid_htf),
])
@given(data=st.data())
def test_readers_fail_by_name_on_any_bytes(tmp_path, reader, write_valid, data):
    # whatever the bytes, a reader returns or raises the package's error for
    # malformed input (FileFormatError is a ConfigError), naming the file
    path = tmp_path / "input"
    write_valid(path)
    path.write_bytes(data.draw(_damaged(path.read_bytes())))
    try:
        reader(path)
    except ConfigError as exc:
        assert str(path) in str(exc)
