"""Span tracer that wraps fuzzysphere's public functions from outside.

Nothing inside the package is edited: `install` replaces each public
function of the layer modules (and `numpy.linalg.eigh`) by a wrapper, in
its own module and in every package module that imported it by name.  A
span is `[name, start, end, parent, counters]`; spans stay in memory.  Pool
workers append theirs to a spool file after each top-level call, so the
parent can read them back; forked workers inherit the wrappers, and
spawned ones re-install them when they import the workload script.

Timestamps come from `time.monotonic`, which is CLOCK_MONOTONIC on Linux
and so comparable across the processes of one run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from pathlib import Path

from spec import PER_LAYER

# package module -> layer name used in metric names
LAYERS = {"cli": "cli", "circle": "circle", "sphere": "sphere",
          "lierep": "lierep", "coherent": "coherent", "spectral": "spectral",
          "_sturm": "sturm", "linop": "linop"}
# the per-lambda task that `cli.run_scan` runs serially or in the pool
TASK = "cli._records_for_lambda"
SPOOL_ENV = "PERFBENCH_SPOOL"


def _array_bytes(obj, seen: set) -> int:
    """nbytes of every distinct numpy array reachable from obj."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return _array_bytes(vars(obj), seen)
    return 0


def eigh_flops(shape, is_complex: bool) -> int:
    """Computed, not measured: 9 n^3 real flops per n x n eigendecomposition
    with eigenvectors (symmetric QR, Golub & Van Loan), times 4 for complex
    arithmetic, times the number of stacked matrices."""
    n = shape[-1]
    batch = 1
    for s in shape[:-2]:
        batch *= s
    return batch * 9 * n ** 3 * (4 if is_complex else 1)


def _count_build_sphere(args, kwargs, result):
    return {"bytes": _array_bytes(result, set())}


def _count_bisect_all(args, kwargs, result):
    return {"rows": int(args[0].size) + 1}


def _count_eigh(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"flops": eigh_flops(a.shape, a.dtype.kind == "c")}


COUNTERS = {"sphere.build_sphere": _count_build_sphere,
            "sturm.bisect_all": _count_bisect_all,
            "numpy.linalg.eigh": _count_eigh}


class Tracer:
    def __init__(self, spool_dir: str, worker: bool):
        self.spool_dir = spool_dir
        self.worker = worker
        self.spans: list = []
        self.stack: list = []

    def _after_fork(self):
        self.worker = True
        self.spans = []
        self.stack = []

    def flush(self):
        path = Path(self.spool_dir) / f"{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self.stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if self.worker and not self.stack:
                self.flush()
            return result

        return traced

    def install(self):
        """Wrap every public function of the layer modules and numpy's eigh."""
        import numpy as np

        import fuzzysphere

        modules = {layer: importlib.import_module(f"fuzzysphere.{mod}")
                   for mod, layer in LAYERS.items()}
        wrapped = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None)
            if names is None:
                names = [n for n in vars(mod) if not n.startswith("_")]
            if layer == "cli":
                names = [*names, TASK.split(".", 1)[1]]
            for attr in names:
                fn = getattr(mod, attr, None)
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod in (fuzzysphere, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        np.linalg.eigh = self.wrap("numpy.linalg.eigh", np.linalg.eigh)
        if not self.worker:
            os.register_at_fork(after_in_child=self._after_fork)

    def batches(self) -> list:
        """This process's spans and every batch the workers spooled."""
        out = [self.spans]
        for path in sorted(Path(self.spool_dir).glob("*.jsonl")):
            out += [json.loads(line) for line in path.read_text().splitlines()]
        return out


def layer_metrics(batches: list, jobs: int, pools: list) -> dict:
    """Per-layer counts, self times and computed counters.

    `pools` holds (created, closed) monotonic times of each process pool;
    cli.pool_util is the task time summed over workers divided by jobs times
    the pool's lifetime, or, without a pool, by the interval from the first
    task's start to the last one's end.
    """
    stats: dict = {}
    tasks = []
    eigh_in_minimize = 0
    for spans in batches:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, counters) in enumerate(spans):
            st = stats.setdefault(name, {"calls": 0, "s": 0.0})
            st["calls"] += 1
            st["s"] += (end - start) - child[i]
            for key, value in (counters or {}).items():
                st[key] = st.get(key, 0) + value
            if name == TASK:
                tasks.append((start, end))
            elif name == "numpy.linalg.eigh":
                p = parent
                while p >= 0 and spans[p][0] != "coherent.minimize_dispersion":
                    p = spans[p][3]
                eigh_in_minimize += p >= 0
    stats.setdefault("coherent.minimize_dispersion", {})["eigh_calls"] = \
        eigh_in_minimize

    out = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if layer in ("cli", "trace"):
            continue
        out[metric] = stats.get(layer, {}).get(field, 0)
    busy = sum(end - start for start, end in tasks)
    if pools:
        span = sum(closed - created for created, closed in pools)
    elif tasks:
        jobs = 1
        span = max(e for _, e in tasks) - min(s for s, _ in tasks)
    else:
        span = 0.0
    out["cli.tasks"] = len(tasks)
    out["cli.task_max_s"] = max((e - s for s, e in tasks), default=0.0)
    out["cli.pool_util"] = busy / (jobs * span) if span > 0 else 0.0
    return out
