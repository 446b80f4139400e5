"""File formats and run configuration.

Tensors travel in a minimal binary container (HTF): the 4-byte magic
``HTF1``, three little-endian uint32 dims (I, J, K), then I*J*K little-endian
float64 values with the first index fastest.  Matrices travel as plain
numeric CSV written with 17 significant digits so values round-trip exactly.
Run configuration is an INI-style text file of ``key = value`` sections;
unknown sections or keys are rejected.
"""

import configparser
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .degradation import BlurSpec
from .errors import ConfigError, DimensionError, FileFormatError
from .regularizers import SchattenConfig, TvConfig
from .solver import SolverConfig

HTF_MAGIC = b"HTF1"


# ---------------------------------------------------------------------------
# HTF tensor container
# ---------------------------------------------------------------------------

def write_htf(path, tensor):
    """Write a 3-d tensor; the round trip through :func:`read_htf` is bit-exact."""
    t = np.asarray(tensor, dtype=float)
    if t.ndim != 3:
        raise DimensionError(f"HTF stores 3-d tensors, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("refusing to write a tensor with non-finite entries")
    header = HTF_MAGIC + struct.pack("<III", *t.shape)
    Path(path).write_bytes(header + t.astype("<f8").tobytes(order="F"))


def read_htf(path):
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise FileFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != HTF_MAGIC:
        raise FileFormatError(f"{path}: bad magic {raw[:4]!r}, expected {HTF_MAGIC!r}")
    dims = struct.unpack("<III", raw[4:16])
    if min(dims) == 0:
        raise FileFormatError(f"{path}: zero dimension in header {dims}")
    expected = 16 + 8 * dims[0] * dims[1] * dims[2]
    if len(raw) < expected:
        raise FileFormatError(
            f"{path}: payload truncated, header promises {expected - 16} bytes "
            f"but only {len(raw) - 16} present"
        )
    if len(raw) > expected:
        raise FileFormatError(f"{path}: {len(raw) - expected} trailing bytes after payload")
    flat = np.frombuffer(raw, dtype="<f8", offset=16)
    tensor = np.array(np.reshape(flat, dims, order="F"), dtype=float, order="F")
    if not np.all(np.isfinite(tensor)):
        raise FileFormatError(f"{path}: tensor contains non-finite entries")
    return tensor


# ---------------------------------------------------------------------------
# CSV matrices
# ---------------------------------------------------------------------------

def write_matrix_csv(path, matrix):
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(f"{x:.17g}" for x in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path):
    rows = []
    width = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
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


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_SCHEMA = {
    "inputs": {"sri", "hsi", "msi", "p1", "p2", "pm", "reference"},
    "model": {"rank", "term_rank"},
    "synthesis": {"dims", "nonneg"},
    "blur": {"kernel_width", "sigma", "ratio", "boundary", "offset"},
    "spectral": {"bands"},
    "noise": {"snr_db"},
    "solver": {
        "ridge_weight",
        "tv_weight",
        "lowrank_weight",
        "schatten_p",
        "schatten_tau",
        "tv_q",
        "tv_epsilon",
        "max_iters",
        "rel_tol",
        "accelerate",
    },
    "run": {"seed", "out"},
}


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
    nonneg: bool = True
    blur: BlurSpec = field(default_factory=BlurSpec)
    bands: list = None
    snr_db: float = math.inf
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    out: str = "."

    def fingerprint(self):
        """Stable hash of every computation-relevant setting, for run manifests.

        The output directory is deliberately excluded so runs that differ only
        in placement produce identical manifests.
        """
        parts = []
        for name in ("sri", "hsi", "msi", "p1", "p2", "pm", "reference",
                     "rank", "term_rank", "dims", "nonneg", "bands",
                     "snr_db", "seed"):
            parts.append(f"{name}={getattr(self, name)!r}")
        for name in ("kernel_width", "sigma", "ratio", "boundary", "offset"):
            parts.append(f"blur.{name}={getattr(self.blur, name)!r}")
        for name in ("ridge_weight", "tv_weight", "lowrank_weight",
                     "max_iters", "rel_tol", "accelerate"):
            parts.append(f"solver.{name}={getattr(self.solver, name)!r}")
        parts.append(f"solver.schatten={self.solver.schatten!r}")
        parts.append(f"solver.tv={self.solver.tv!r}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def parse_dims(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise ConfigError(f"dims must be three comma-separated integers, got {text!r}")
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
    if not ranges:
        raise ConfigError("band list is empty")
    return ranges


def _parse_bool(text, where):
    val = str(text).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _parse_float(text, where):
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_int(text, where):
    try:
        return int(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path):
    """Parse and validate a run-configuration file into a :class:`RunConfig`."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")

    cfg = RunConfig()
    get = parser.get

    if parser.has_section("inputs"):
        for key in _SCHEMA["inputs"]:
            if parser.has_option("inputs", key):
                setattr(cfg, key, get("inputs", key))
    if parser.has_option("model", "rank"):
        cfg.rank = _parse_int(get("model", "rank"), "model.rank")
    if parser.has_option("model", "term_rank"):
        cfg.term_rank = _parse_int(get("model", "term_rank"), "model.term_rank")
    if parser.has_option("synthesis", "dims"):
        cfg.dims = parse_dims(get("synthesis", "dims"))
    if parser.has_option("synthesis", "nonneg"):
        cfg.nonneg = _parse_bool(get("synthesis", "nonneg"), "synthesis.nonneg")

    blur_kwargs = {}
    if parser.has_section("blur"):
        for key, kind in (("kernel_width", _parse_int), ("ratio", _parse_int),
                          ("offset", _parse_int), ("sigma", _parse_float)):
            if parser.has_option("blur", key):
                blur_kwargs[key] = kind(get("blur", key), f"blur.{key}")
        if parser.has_option("blur", "boundary"):
            blur_kwargs["boundary"] = get("blur", "boundary").strip()
    try:
        cfg.blur = BlurSpec(**blur_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: [blur] {exc}") from exc

    if parser.has_option("spectral", "bands"):
        cfg.bands = parse_band_ranges(get("spectral", "bands"))
    if parser.has_option("noise", "snr_db"):
        cfg.snr_db = _parse_float(get("noise", "snr_db"), "noise.snr_db")

    solver_kwargs = {}
    schatten_kwargs = {}
    tv_kwargs = {}
    if parser.has_section("solver"):
        for key, kind in (("ridge_weight", _parse_float), ("tv_weight", _parse_float),
                          ("lowrank_weight", _parse_float), ("rel_tol", _parse_float)):
            if parser.has_option("solver", key):
                solver_kwargs[key] = kind(get("solver", key), f"solver.{key}")
        if parser.has_option("solver", "max_iters"):
            solver_kwargs["max_iters"] = _parse_int(get("solver", "max_iters"), "solver.max_iters")
        if parser.has_option("solver", "accelerate"):
            solver_kwargs["accelerate"] = _parse_bool(get("solver", "accelerate"), "solver.accelerate")
        if parser.has_option("solver", "schatten_p"):
            schatten_kwargs["p"] = _parse_float(get("solver", "schatten_p"), "solver.schatten_p")
        if parser.has_option("solver", "schatten_tau"):
            schatten_kwargs["tau"] = _parse_float(get("solver", "schatten_tau"), "solver.schatten_tau")
        if parser.has_option("solver", "tv_q"):
            tv_kwargs["q"] = _parse_float(get("solver", "tv_q"), "solver.tv_q")
        if parser.has_option("solver", "tv_epsilon"):
            tv_kwargs["epsilon"] = _parse_float(get("solver", "tv_epsilon"), "solver.tv_epsilon")
    try:
        cfg.solver = SolverConfig(
            schatten=SchattenConfig(**schatten_kwargs),
            tv=TvConfig(**tv_kwargs),
            **solver_kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [solver] {exc}") from exc

    if parser.has_option("run", "seed"):
        cfg.seed = _parse_int(get("run", "seed"), "run.seed")
    if parser.has_option("run", "out"):
        cfg.out = get("run", "out")
    return cfg


def require_input(path, what):
    """Path validation before any compute starts."""
    if path is None:
        raise ConfigError(f"missing required input: {what}")
    if not Path(path).is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return Path(path)
