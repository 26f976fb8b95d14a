"""Span tracing for the benchmark's traced runs, recorded from outside the package.

``install`` wraps every public function of the package's layer modules and
rebinds each wrapper wherever the original is bound inside the package, so
calls between modules are traced as well as the benchmark's own calls.  Each
span keeps its parent span, the job it belongs to and its start and end times;
spans stay in memory until ``write_spans`` at the end of the run.  Counts
(rows, computed bytes, blade pairs, series nodes) are taken at the same call
boundaries, inside a ``trace.count`` span so that their cost is charged to the
tracer and not to the caller's self time.

Self time of a span is its duration minus the durations of its direct child
spans; calls are single threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from collections import defaultdict

LAYERS = ("clifford", "lattice", "spectral", "operators", "specfun", "solver", "fieldio", "cli")

# O(1) scalar helpers: a span would cost more than the call it measures
UNTRACED = {
    "clifford.num_blades",
    "clifford.metric_sign",
    "clifford.generator_mask",
    "clifford.blade_product",
    "clifford.dagger_sign",
}

SETUP_JOB = -1
COUNT_SPAN = "trace.count"
JOB_SPAN = "bench.job"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _live_blades(values) -> int:
    import numpy as np

    flat = values.reshape(values.shape[0], -1)
    return int(np.count_nonzero(np.any(flat != 0, axis=1)))


def _count_write(args, kwargs, result, start_pos):
    field = _arg(args, kwargs, 0, "field")
    import numpy as np

    yield "fieldio.rows_written", int(np.count_nonzero(field.values))
    yield "fieldio.bytes_written", _arg(args, kwargs, 1, "fh").tell() - start_pos


def _count_read(args, kwargs, result, _):
    import numpy as np

    yield "fieldio.rows_read", int(np.count_nonzero(result.values))


def _count_dft(args, kwargs, result, _):
    field = args[0] if args else next(iter(kwargs.values()))
    yield "spectral.bytes_computed", field.values.nbytes + result.values.nbytes


def _count_dirac(args, kwargs, result, _):
    yield "operators.live_blades", _live_blades(_arg(args, kwargs, 0, "values"))


def _count_product(args, kwargs, result, _):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    pairs = _live_blades(a) * _live_blades(b)
    sites = result[0].size
    yield "clifford.blade_pairs", pairs
    # two operand reads and one accumulate of complex128 per live pair and site
    yield "clifford.bytes_computed", pairs * sites * 16 * 3


def _count_wright_grid(args, kwargs, result, _):
    yield "specfun.fox_wright_grid.nodes", int(result.size)


COUNTERS = {
    "fieldio.write_field_csv": _count_write,
    "fieldio.read_field_csv": _count_read,
    "spectral.dft_forward": _count_dft,
    "spectral.dft_inverse": _count_dft,
    "operators.apply_dirac_symbol_arrays": _count_dirac,
    "clifford.geometric_product_arrays": _count_product,
    "specfun.fox_wright_grid": _count_wright_grid,
}


def _tell_before(args, kwargs):
    return _arg(args, kwargs, 1, "fh").tell()


BEFORE = {"fieldio.write_field_csv": _tell_before}


class Tracer:
    """In-memory span recorder; ``job`` is set by the benchmark loop."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (parent, job, name_id, start_ns, end_ns)
        self.stack = [-1]
        self.job = SETUP_JOB
        self.enabled = False
        self.counts = defaultdict(int)  # (job, key) -> count

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid, cid = self.name_id(name), self.name_id(COUNT_SPAN)
        count, before = COUNTERS.get(name), BEFORE.get(name)
        perf = time.perf_counter_ns
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            ctx = before(args, kwargs) if before else None
            parent, job = stack[-1], tracer.job
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[sid] = (parent, job, nid, t0, t1)
            if count:
                c0 = perf()
                for key, value in count(args, kwargs, result, ctx):
                    counts[(job, key)] += value
                spans.append((parent, job, cid, c0, perf()))
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not traced (set-up of references, checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    @contextlib.contextmanager
    def job_span(self, job: int):
        """The root span of one job; spans recorded inside it carry ``job``."""
        self.job = job
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            self.spans[sid] = (-1, job, self.name_id(JOB_SPAN), t0, t1)
            self.job = SETUP_JOB


def _layer_of(obj):
    parts = getattr(obj, "__module__", "").split(".")
    if len(parts) < 2 or parts[0] != "dfplattice" or parts[1] not in LAYERS:
        return None
    return parts[1]


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions in place, wherever the package binds them."""
    originals = {}
    for modname, mod in list(sys.modules.items()):
        parts = modname.split(".")
        if parts[0] != "dfplattice" or len(parts) < 2 or parts[1] not in LAYERS:
            continue
        public = list(getattr(mod, "__all__", ()))
        if modname == "dfplattice.cli":
            public.append("main")
        for attr in public:
            obj = getattr(mod, attr, None)
            if obj is None or isinstance(obj, type) or not callable(obj):
                continue
            layer = _layer_of(obj)
            name = f"{layer}.{obj.__name__}"
            if layer is None or name in UNTRACED:
                continue
            originals[id(obj)] = (obj, name)
    wrappers = {key: (obj, tracer.wrap(obj, name)) for key, (obj, name) in originals.items()}
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "dfplattice":
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])


def self_times(tracer: Tracer):
    """Per span: (job, name, duration_s, self_s, parent name or None)."""
    spans = tracer.spans
    child = [0] * len(spans)
    for parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    names = tracer.names
    for i, (parent, job, nid, t0, t1) in enumerate(spans):
        pname = names[spans[parent][2]] if parent >= 0 else None
        yield job, names[nid], (t1 - t0) * 1e-9, (t1 - t0 - child[i]) * 1e-9, pname


def summarize(tracer: Tracer, window: int):
    """Per-name calls, self time, layer self time and counts.

    Job figures are totals over jobs 0..window-1 divided by ``window`` (per
    job); set-up figures are the traced set-up's totals.
    """
    per_job = defaultdict(float)
    setup = defaultdict(float)
    for job, name, _, self_s, pname in self_times(tracer):
        if job == SETUP_JOB:
            setup[name + ".self_s"] += self_s
            continue
        if not 0 <= job < window:
            continue
        layer = name.split(".")[0]
        per_job[name + ".calls"] += 1
        per_job[name + ".self_s"] += self_s
        per_job[layer + ".self_s"] += self_s
        if name == "operators.apply_dirac_symbol_arrays" and pname == "solver.dfp_evolve_stepped":
            per_job["solver.dfp_evolve_stepped.rhs_evals"] += 1
    for (job, key), value in tracer.counts.items():
        if 0 <= job < window:
            per_job[key] += value
    return {k: v / window for k, v in per_job.items()}, dict(setup)


def write_spans(tracer: Tracer, path: str) -> None:
    """All spans as gzip CSV: id,parent,job,name,start_ns,end_ns."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id,parent,job,name,start_ns,end_ns\n")
        names = tracer.names
        for i, (parent, job, nid, t0, t1) in enumerate(tracer.spans):
            fh.write(f"{i},{parent},{job},{names[nid]},{t0},{t1}\n")
