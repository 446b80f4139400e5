"""Outside-in span tracing of hsrfuse's module-level functions.

The benchmark wraps the functions each layer exposes from here, so nothing
under ``src/`` changes.  A function is patched wherever it is looked up: every
``hsrfuse`` module attribute that is the original object is replaced by the
wrapper (``hsrfuse.solver.schatten_weight_terms`` as well as
``hsrfuse.regularizers.schatten_weight_terms``).  A span is labelled with the
module that defines the function, as listed in the tables below.

A listed name that a later version of the package no longer defines is
reported as absent, with zero calls; it is never an error.  Its time then
falls into the self time of the nearest traced caller, which shows up in the
unattributed share of ``fuse``/``fuse_blind``.

Spans are kept in memory as ``[label, start, end, parent, bytes]`` records,
where ``parent`` is the index of the enclosing span or -1, and are written
out only when the run ends.
"""

import functools
import os
import sys
import time
from contextlib import contextmanager

# Functions traced inside measured operations, labelled <layer>.<name>.
LAYER_FUNCTIONS = (
    "solver.fuse",
    "solver.fuse_blind",
    "solver._apply_ph",
    "solver._apply_ph_t",
    "solver.objective",
    "solver.objective_blind",
    "solver._data_grad_maps",
    "solver.grad_spectra",
    "solver.grad_spectra_blind",
    "solver.grad_maps",
    "solver.grad_maps_blind",
    "solver.grad_coarse_blind",
    "solver.step_bounds",
    "solver.step_bounds_blind",
    "solver._sq_norm",
    "solver._map_penalties",
    "solver.apg_step",
    "solver.extrapolate",
    "regularizers.schatten_weight_terms",
    "regularizers.schatten_value",
    "regularizers.tv_weights",
    "regularizers.tv_value",
    "metrics.evaluate",
    "metrics._ssim_band",
    "metrics._uiqi_band",
    "metrics._sam",
    "metrics._pearson",
    "fileio.write_htf",
    "fileio.read_htf",
    "fileio.write_matrix_csv",
    "fileio.read_matrix_csv",
    "cli.cmd_simulate",
    "cli.cmd_fuse",
    "degradation.DegradationOps.for_sri",
    "degradation.degrade_spatial",
    "degradation.degrade_spectral",
    "degradation.add_noise",
    "blockterm.random_blockterm",
    "blockterm.reconstruct",
    "blockterm.check_recoverability",
)

# Functions whose set-up share is reported on its own (``setup.`` prefix).
SETUP_FUNCTIONS = tuple(
    label for label in LAYER_FUNCTIONS if label.startswith(("degradation.", "blockterm."))
)

# File functions whose first argument is a path: the file size after the call
# is added to the named byte counter.
BYTE_COUNTERS = {
    "fileio.write_htf": "fileio.htf_bytes",
    "fileio.read_htf": "fileio.htf_bytes",
    "fileio.write_matrix_csv": "fileio.csv_bytes",
    "fileio.read_matrix_csv": "fileio.csv_bytes",
}

SOLVER_ENTRY_POINTS = ("solver.fuse", "solver.fuse_blind")

PACKAGE = "hsrfuse"


class Tracer:
    """Records spans around wrapped functions and the benchmark's own phases."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._restore = []

    def wrap(self, label, fn, sized=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if sized and args and os.path.isfile(args[0]):
                    rec[4] = os.path.getsize(args[0])

        return traced

    @contextmanager
    def span(self, label):
        """A span opened by the benchmark itself, such as one operation."""
        rec = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Patch every listed function at each place it is looked up."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for label in LAYER_FUNCTIONS:
            module_name, _, attr = label.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            sized = label in BYTE_COUNTERS
            if "." in attr:
                if not self._install_method(module, attr, label, sized):
                    self.absent.append(label)
                continue
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(label)
                continue
            wrapped = self.wrap(label, original, sized)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))

    def _install_method(self, module, attr, label, sized):
        class_name, _, method = attr.partition(".")
        cls = getattr(module, class_name, None) if module is not None else None
        raw = vars(cls).get(method) if isinstance(cls, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self.wrap(label, raw.__func__, sized))
        elif callable(raw):
            patched = self.wrap(label, raw, sized)
        else:
            return False
        setattr(cls, method, patched)
        self._restore.append((cls, method, raw))
        return True

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def totals(self, root_label):
        """Per-label totals over spans under benchmark spans named ``root_label``.

        Returns ``(n_roots, {label: [calls, self_s, durations, bytes]})``.  Self
        time is a span's duration minus the durations of its direct children.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        root_of = [0] * len(spans)
        for idx, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                root_of[idx] = root_of[parent]
            else:
                root_of[idx] = idx
        n_roots = 0
        out = {}
        for idx, (label, start, end, parent, nbytes) in enumerate(spans):
            if parent < 0:
                n_roots += label == root_label
            elif spans[root_of[idx]][0] == root_label:
                acc = out.setdefault(label, [0, 0.0, [], 0])
                acc[0] += 1
                acc[1] += end - start - child_s[idx]
                acc[2].append(end - start)
                acc[3] += nbytes
        return n_roots, out

    def write(self, path):
        lines = ["index,label,start_s,end_s,parent,bytes"]
        lines += [f"{i},{label},{start!r},{end!r},{parent},{nbytes}"
                  for i, (label, start, end, parent, nbytes) in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")


def _noop():
    return None


def span_cost_s(calls=20000):
    """Measured extra cost of one traced call over a plain call, in seconds."""
    wrapped = Tracer().wrap("calibration", _noop)
    clock = time.perf_counter
    best_plain = best_traced = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(calls):
            _noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best_plain = min(best_plain, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_plain, 0.0) / calls
