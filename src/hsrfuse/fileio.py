"""File formats and run configuration.

Tensors travel in a minimal binary container (HTF): the 4-byte magic
``HTF1``, three little-endian uint32 dims (I, J, K), then I*J*K little-endian
float64 values with the first index fastest.  Matrices travel as plain
numeric CSV written with 17 significant digits so values round-trip exactly.
Run configuration is an INI-style text file of ``key = value`` sections.
One table, ``_KEYS``, lists every ``section.key`` with its parser and the
:class:`RunConfig` field it sets; unknown sections or keys are rejected.
:func:`load_config` merges command-line overrides into the file's text before
any value is parsed, so a flag is parsed and validated exactly like the file
value it replaces.
"""

import codecs
import configparser
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .degradation import BlurSpec, check_snr_db
from .errors import ConfigError, DimensionError, FileFormatError
from .regularizers import SchattenConfig, TvConfig
from .solver import SolverConfig
from .tensors import check_int, ensure_finite

HTF_MAGIC = b"HTF1"


# ---------------------------------------------------------------------------
# HTF tensor container
# ---------------------------------------------------------------------------

def write_htf(path, tensor):
    """Write a 3-d tensor; the round trip through :func:`read_htf` is bit-exact.

    The payload is written from the tensor's own memory when it is an
    F-ordered little-endian float64 array; any other input is converted once.
    """
    t = np.asarray(tensor, dtype="<f8", order="F")
    if t.ndim != 3 or t.size == 0:
        raise DimensionError(f"HTF stores nonempty 3-d tensors, got shape {t.shape}")
    try:
        ensure_finite(t)
    except ValueError:
        raise ValueError("refusing to write a tensor with non-finite entries") from None
    with open(path, "wb") as handle:
        handle.write(HTF_MAGIC + struct.pack("<III", *t.shape))
        # the C-ordered transpose of an F-ordered array holds its values first index fastest
        handle.write(memoryview(t.T).cast("B"))


def read_htf(path):
    """Read a tensor written by :func:`write_htf` as an F-ordered float64 array.

    The header and the file size are checked before the payload is read, in
    one pass, into the memory of the array returned.
    """
    with open(path, "rb") as handle:
        header = handle.read(16)
        if len(header) < 16:
            raise FileFormatError(f"{path}: truncated header ({len(header)} bytes)")
        if header[:4] != HTF_MAGIC:
            raise FileFormatError(f"{path}: bad magic {header[:4]!r}, expected {HTF_MAGIC!r}")
        dims = struct.unpack("<III", header[4:16])
        if min(dims) == 0:
            raise FileFormatError(f"{path}: zero dimension in header {dims}")
        expected = 8 * dims[0] * dims[1] * dims[2]
        present = os.fstat(handle.fileno()).st_size - 16
        if present > expected:
            raise FileFormatError(f"{path}: {present - expected} trailing bytes after payload")
        if present == expected:
            payload = np.empty(dims[::-1], dtype="<f8")
            # a short read (the file shrank since the size check) is a truncation too
            present = handle.readinto(memoryview(payload).cast("B"))
        if present < expected:
            raise FileFormatError(
                f"{path}: payload truncated, header promises {expected} bytes "
                f"but only {present} present"
            )
    tensor = payload.T.astype(float, copy=False)
    try:
        return ensure_finite(tensor, f"{path}: tensor")
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# CSV matrices
# ---------------------------------------------------------------------------

def write_matrix_csv(path, matrix):
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    row_format = ",".join(["%.17g"] * m.shape[1])
    lines = [row_format % tuple(row) for row in m.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_text(path, error):
    """The text of the file at ``path``, decoded as UTF-8 past a leading
    byte-order mark, with universal newlines as a file opened in text mode
    reads them; a byte that is not UTF-8 raises ``error`` naming the path and
    the byte's offset in the file."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the decoder counts from past the mark
        at = exc.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
        raise error(f"{path}: not UTF-8 text at byte {at}: {exc.reason}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_matrix_csv(path):
    rows = []
    width = None
    for lineno, line in enumerate(_read_text(path, FileFormatError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FileFormatError(
                f"{path}: row {lineno} has {len(cells)} cells, expected {width}"
            )
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise FileFormatError(f"{path}: row {lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise FileFormatError(f"{path}: row {lineno}: non-finite entry")
        rows.append(row)
    if not rows:
        raise FileFormatError(f"{path}: no numeric rows")
    return np.asarray(rows, dtype=float)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def write_json(path, payload):
    Path(path).write_text(_json_text(payload) + "\n")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Effective settings for one CLI run (file values plus flag overrides)."""

    sri: str = None
    hsi: str = None
    msi: str = None
    p1: str = None
    p2: str = None
    pm: str = None
    reference: str = None
    rank: int = None
    term_rank: int = None
    dims: tuple = None
    blur: BlurSpec = field(default_factory=BlurSpec)
    bands: list = None
    snr_db: float = math.inf
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    out: str = "."

    def __post_init__(self):
        for name in ("rank", "term_rank"):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name), 1)
        check_snr_db(self.snr_db)

    def fingerprint(self):
        """Stable hash of every computation-relevant setting, for run manifests.

        Every field of the run, the blur and the solver enters in declaration
        order, except the output directory, so runs that differ only in
        placement produce identical manifests, and the solver seed, which has
        no effect.  The run's own fields come first, then the blur's and the
        solver's, then the whole Schatten and TV configs.
        """
        parts = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
                 if f.name not in ("blur", "solver", "out")]
        # the retired synthesis.nonneg, at the one value simulate still draws:
        # every config keeps the hash it had while the key existed
        parts.insert(parts.index(f"dims={self.dims!r}") + 1, "nonneg=True")
        parts += [f"blur.{f.name}={getattr(self.blur, f.name)!r}" for f in fields(self.blur)]
        parts += [f"solver.{f.name}={getattr(self.solver, f.name)!r}" for f in fields(self.solver)
                  if f.name not in ("schatten", "tv", "seed")]
        parts.append(f"solver.schatten={self.solver.schatten!r}")
        parts.append(f"solver.tv={self.solver.tv!r}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def parse_dims(text, count=3):
    """Parse ``count`` comma-separated positive integers into a tuple."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != count:
        raise ConfigError(f"dims must be {count} comma-separated integers, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad dims {text!r}: {exc}") from exc
    if min(dims) < 1:
        raise ConfigError(f"dims must be positive, got {dims}")
    return dims


def parse_band_ranges(text):
    """Parse '0-3,4-7,12' into inclusive index pairs [(0,3), (4,7), (12,12)]."""
    ranges = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"empty entry in band list {text!r}")
        try:
            if "-" in part:
                first, last = (int(x) for x in part.split("-", 1))
            else:
                first = last = int(part)
        except ValueError as exc:
            raise ConfigError(f"bad band range {part!r}: {exc}") from exc
        if first > last or first < 0:
            raise ConfigError(f"bad band range {part!r}")
        ranges.append((first, last))
    return ranges


def _parse_bool(text):
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _int_at_least(name, minimum):
    # a parser that validates, so load_config's message names the key;
    # RunConfig's checks would name only the field
    return lambda text: check_int(name, int(text), minimum)


# Every configuration key, once: "section.key" -> (parser, target).  A target
# is a RunConfig field, or a dotted path through its nested configs.
_KEYS = {
    "inputs.sri": (str, "sri"),
    "inputs.hsi": (str, "hsi"),
    "inputs.msi": (str, "msi"),
    "inputs.p1": (str, "p1"),
    "inputs.p2": (str, "p2"),
    "inputs.pm": (str, "pm"),
    "inputs.reference": (str, "reference"),
    "model.rank": (_int_at_least("rank", 1), "rank"),
    "model.term_rank": (_int_at_least("term_rank", 1), "term_rank"),
    "synthesis.dims": (parse_dims, "dims"),
    "blur.kernel_width": (int, "blur.kernel_width"),
    "blur.sigma": (float, "blur.sigma"),
    "blur.ratio": (int, "blur.ratio"),
    "blur.boundary": (str.strip, "blur.boundary"),
    "blur.offset": (int, "blur.offset"),
    "spectral.bands": (parse_band_ranges, "bands"),
    "noise.snr_db": (lambda text: check_snr_db(float(text)), "snr_db"),
    "solver.ridge_weight": (float, "solver.ridge_weight"),
    "solver.tv_weight": (float, "solver.tv_weight"),
    "solver.lowrank_weight": (float, "solver.lowrank_weight"),
    "solver.schatten_p": (float, "solver.schatten.p"),
    "solver.schatten_tau": (float, "solver.schatten.tau"),
    "solver.tv_q": (float, "solver.tv.q"),
    "solver.tv_epsilon": (float, "solver.tv.epsilon"),
    "solver.max_iters": (int, "solver.max_iters"),
    "solver.rel_tol": (float, "solver.rel_tol"),
    "solver.accelerate": (_parse_bool, "solver.accelerate"),
    # seeds simulate's draws only: the solvers start from the data
    "run.seed": (_int_at_least("seed", 0), "seed"),
    "run.out": (str, "out"),
}
_SECTIONS = {key.split(".")[0] for key in _KEYS}


def _build(cls, fields, where):
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from exc


def load_config(path, overrides=None):
    """Parse and validate a run-configuration file into a :class:`RunConfig`.

    ``overrides`` maps ``"section.key"`` to text that replaces the file's
    value; it is parsed and validated exactly like a value from the file.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(_read_text(path, ConfigError), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    if parser.defaults():
        # configparser copies [DEFAULT] into every section
        raise ConfigError(f"{path}: unknown section [DEFAULT]")
    raw = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if f"{section}.{key}" not in _KEYS:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
            raw[f"{section}.{key}"] = text
    raw.update(overrides or {})

    fields = {"blur": {}, "solver": {"schatten": {}, "tv": {}}}
    for key, text in raw.items():
        parse, target = _KEYS[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from exc
        *parents, name = target.split(".")
        node = fields
        for parent in parents:
            node = node[parent]
        node[name] = value

    solver = fields["solver"]
    fields["blur"] = _build(BlurSpec, fields["blur"], f"{path}: [blur]")
    solver["schatten"] = _build(SchattenConfig, solver["schatten"], f"{path}: [solver]")
    solver["tv"] = _build(TvConfig, solver["tv"], f"{path}: [solver]")
    fields["solver"] = _build(SolverConfig, solver, f"{path}: [solver]")
    return _build(RunConfig, fields, f"{path}:")


def require_input(path, what):
    """Path validation before any compute starts."""
    if path is None:
        raise ConfigError(f"missing required input: {what}")
    if not Path(path).is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return Path(path)
