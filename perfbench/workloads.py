"""The three benchmark workloads and their correctness checks.

Every workload draws its instance from one generator, the one ``hsrfuse
simulate`` uses: a nonnegative block-term SRI (R=6 terms of rank L=4) from a
generator seeded with the workload seed, blurred and downsampled by 4 with a
9-tap Gaussian (sigma 2), averaged into 8 contiguous MSI bands, and both
images given 30 dB of noise from the same generator.  The solvers run with
``SolverConfig(ridge_weight=1e-6, seed=7)`` and every other setting at its
default, so they stop at ``rel_tol=1e-4`` or at the 300/600-iteration cap.

All calls into the package go through module attributes looked up at call
time, so the tracer's patches see them.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import hsrfuse
from hsrfuse import blockterm, cli, degradation

N_TERMS = 6
TERM_RANK = 4
BLUR = {"kernel_width": 9, "sigma": 2.0, "ratio": 4}
N_MSI_BANDS = 8
SNR_DB = 30.0
SOLVER_SEED = 7
RIDGE = 1e-6
REG = {"tv_weight": 3e-3, "lowrank_weight": 3e-2}
WARM_UP_ITERS = 3
# Quality floor for every returned SRI.  The known solver, stopped by the
# 300-iteration cap, reaches 16-18 dB on known-plain-256 and 17-20 dB on
# cli-roundtrip-96, and a solve that made no progress stays near 0 dB.
RSNR_FLOOR_DB = 12.0
# Agreement between report.json's R-SNR and the benchmark's own.
RSNR_MATCH_RTOL = 1e-9


def band_ranges(n_bands):
    width = n_bands // N_MSI_BANDS
    return [(m * width, (m + 1) * width - 1) for m in range(N_MSI_BANDS)]


@dataclass
class Instance:
    sri: np.ndarray
    hsi: np.ndarray
    msi: np.ndarray
    ops: object
    recoverable: bool


def build_instance(n, k, seed, blind):
    """Synthesize the SRI and its noisy HSI/MSI pair, as ``hsrfuse simulate`` does."""
    rng = np.random.default_rng(seed)
    factors = blockterm.random_blockterm((n, n, k), N_TERMS, TERM_RANK, seed=rng)
    sri = blockterm.reconstruct(factors)
    ops = degradation.DegradationOps.for_sri(
        sri.shape, degradation.BlurSpec(**BLUR), band_ranges(k)
    )
    hsi = degradation.add_noise(degradation.degrade_spatial(sri, ops), SNR_DB, rng)
    msi = degradation.add_noise(degradation.degrade_spectral(sri, ops), SNR_DB, rng)
    query = blockterm.RecoverabilityQuery(
        msi_rows=n, msi_cols=n, hsi_rows=ops.p1.shape[0], hsi_cols=ops.p2.shape[0],
        msi_bands=N_MSI_BANDS, n_terms=N_TERMS, term_rank=TERM_RANK, blind=blind,
    )
    recoverable = blockterm.check_recoverability(query).satisfied
    return Instance(sri, hsi, msi, ops, recoverable)


def rsnr_db(reference, estimate):
    err = float(np.sum((reference - estimate) ** 2))
    return math.inf if err == 0.0 else 10.0 * math.log10(float(np.sum(reference**2)) / err)


def read_htf(path):
    """Independent HTF reader: 4-byte magic, three uint32 dims, float64 payload."""
    raw = path.read_bytes()
    if raw[:4] != b"HTF1":
        raise ValueError(f"{path}: not an HTF file")
    dims = tuple(int(d) for d in np.frombuffer(raw, dtype="<u4", count=3, offset=4))
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(dims, order="F")


def trace_sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


@dataclass
class OpResult:
    """Outcome of one measured operation; ``failures`` empty means it passed."""

    failures: list = field(default_factory=list)
    roundtrip_s: float = math.nan
    solve_s: float = math.nan
    iters: int = 0
    rsnr_db: float = math.nan
    iter_s: np.ndarray = None
    trace_sha256: str = ""


class SolverWorkload:
    """One ``fuse`` or ``fuse_blind`` call per operation, each on its own instance."""

    def __init__(self, n, k, blind, regularized):
        self.n, self.k, self.blind = n, k, blind
        self.weights = REG if regularized else {}
        self.instance = None
        self.seed = None

    def setup(self, seed):
        self.instance = None  # free the previous instance first: peak RSS is a metric
        self.instance = build_instance(self.n, self.k, seed, self.blind)
        self.seed = seed

    def prepare(self, seed):
        """Make the instance for ``seed`` current, outside any timed region."""
        if seed != self.seed:
            self.setup(seed)

    def _solve(self, max_iters=None):
        inst = self.instance
        cfg = hsrfuse.SolverConfig(
            ridge_weight=RIDGE, seed=SOLVER_SEED, max_iters=max_iters, **self.weights
        )
        if self.blind:
            return hsrfuse.fuse_blind(inst.hsi, inst.msi, inst.ops.pm, N_TERMS, cfg)
        return hsrfuse.fuse(inst.hsi, inst.msi, inst.ops, N_TERMS, cfg)

    def warm_up(self):
        self._solve(max_iters=WARM_UP_ITERS)

    def run_op(self):
        res = OpResult()
        t0 = time.perf_counter()
        report = self._solve()
        res.solve_s = res.roundtrip_s = time.perf_counter() - t0
        res.iters = report.iterations
        res.iter_s = np.diff(report.elapsed)
        res.trace_sha256 = trace_sha256(report.objective_trace)
        res.rsnr_db = rsnr_db(self.instance.sri, report.sri)
        checks = {
            "objective trace is finite": np.all(np.isfinite(report.objective_trace)),
            "maps are nonnegative": np.all(report.maps >= 0),
            "spectra are nonnegative": np.all(report.spectra >= 0),
            "SRI is finite": np.all(np.isfinite(report.sri)),
            f"R-SNR >= {RSNR_FLOOR_DB} dB": res.rsnr_db >= RSNR_FLOOR_DB,
            "instance passes check_recoverability": self.instance.recoverable,
        }
        res.failures = [name for name, ok in checks.items() if not ok]
        return res

    def close(self):
        self.instance = None


SIMULATE_INI = """\
[synthesis]
dims = {n},{n},{k}

[model]
rank = {rank}
term_rank = {term_rank}

[blur]
kernel_width = {kernel_width}
sigma = {sigma}
ratio = {ratio}

[spectral]
bands = {bands}

[noise]
snr_db = {snr}
"""

FUSE_INI = """\
[inputs]
hsi = {sim}/HSI.htf
msi = {sim}/MSI.htf
p1 = {sim}/P1.csv
p2 = {sim}/P2.csv
pm = {sim}/PM.csv
reference = {sim}/SRI.htf

[model]
rank = {rank}

[blur]
kernel_width = {kernel_width}
sigma = {sigma}
ratio = {ratio}

[solver]
ridge_weight = {ridge}

[run]
seed = {solver_seed}
"""


class CliRoundTrip:
    """``hsrfuse simulate`` then ``hsrfuse fuse`` with a reference, in-process.

    The set-up builds the first instance in memory; it gives the set-up time
    and the warm-up solve.  The round trip itself synthesizes its instance
    from the seed, as a user would, and its manifest carries the
    recoverability check.
    """

    def __init__(self, n, k, workdir):
        self.n, self.k = n, k
        self.workdir = workdir
        self.sim_dir = workdir / "simulate"
        self.fuse_dir = workdir / "fuse"
        self.solver = SolverWorkload(n, k, blind=False, regularized=False)
        self.seed = None

    def setup(self, seed):
        self.solver.setup(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        common = dict(BLUR, rank=N_TERMS)
        bands = ",".join(f"{a}-{b}" for a, b in band_ranges(self.k))
        (self.workdir / "simulate.ini").write_text(SIMULATE_INI.format(
            n=self.n, k=self.k, term_rank=TERM_RANK, bands=bands, snr=SNR_DB, **common))
        (self.workdir / "fuse.ini").write_text(FUSE_INI.format(
            sim=self.sim_dir, ridge=RIDGE, solver_seed=SOLVER_SEED, **common))

    def warm_up(self):
        self.solver.warm_up()

    def prepare(self, seed):
        self.seed = seed

    def run_op(self):
        res = OpResult()
        for path in (self.sim_dir, self.fuse_dir):
            shutil.rmtree(path, ignore_errors=True)
        simulate = ["simulate", "--config", str(self.workdir / "simulate.ini"),
                    "--seed", str(self.seed), "--out", str(self.sim_dir)]
        fuse = ["fuse", "--config", str(self.workdir / "fuse.ini"), "--out", str(self.fuse_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            codes = (cli.main(simulate), cli.main(fuse))
            res.roundtrip_s = time.perf_counter() - t0
        if codes != (0, 0):
            res.failures = [f"exit codes {codes}, expected (0, 0)"]
            return res
        try:
            report = json.loads((self.fuse_dir / "report.json").read_text())
            reported = float(report["metrics"]["rsnr_db"])
            manifest = json.loads((self.sim_dir / "manifest.json").read_text())
            recoverable = manifest["recoverability"]["satisfied"] is True
        except (OSError, ValueError, KeyError, TypeError) as exc:
            res.failures = [f"report.json or manifest.json unreadable: {exc!r}"]
            return res
        reference = read_htf(self.sim_dir / "SRI.htf")
        estimate = read_htf(self.fuse_dir / "SRI.htf")
        res.rsnr_db = rsnr_db(reference, estimate)
        rows = (self.fuse_dir / "trace.csv").read_text().split()[1:]
        trace = np.array([[float(x) for x in row.split(",")[1:3]] for row in rows])
        res.iters = int(report["iterations"])
        res.solve_s = float(report["timing"]["total_seconds"])
        res.iter_s = np.diff(trace[:, 1])
        res.trace_sha256 = trace_sha256(trace[:, 0])
        checks = {
            "report R-SNR matches SRI.htf files":
                abs(reported - res.rsnr_db) <= RSNR_MATCH_RTOL * abs(res.rsnr_db),
            "objective trace is finite": np.all(np.isfinite(trace[:, 0])),
            "SRI is finite": np.all(np.isfinite(estimate)),
            f"R-SNR >= {RSNR_FLOOR_DB} dB": res.rsnr_db >= RSNR_FLOOR_DB,
            "instance passes check_recoverability": recoverable,
        }
        res.failures = [name for name, ok in checks.items() if not ok]
        return res

    def close(self):
        self.solver.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "known-plain-256": lambda workdir: SolverWorkload(256, 128, blind=False, regularized=False),
    "blind-reg-128": lambda workdir: SolverWorkload(128, 64, blind=True, regularized=True),
    "cli-roundtrip-96": lambda workdir: CliRoundTrip(96, 48, workdir),
}
