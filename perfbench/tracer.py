"""Outside-in span tracer for the qcollide package.

The tracer wraps, from outside the package, every public module-level
function of every imported ``qcollide`` module plus the ``DensityMatrix`` and
``CollisionConfig`` constructors.  A wrapper has to be patched into every
module namespace that holds the original function: ``states``, ``lindblad``
and ``presets`` bind ``hermitian_eig`` with ``from .linalg import ...``, so
wrapping ``linalg.hermitian_eig`` alone would miss their calls.

Spans stay in memory as parallel lists (function id, parent span index,
start, end, size) and are written out once, when the run ends.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# Helpers whose whole body costs less than the wrapper: their time stays in
# the caller's self time instead of being buried under tracing overhead.
UNTRACED = frozenset({"linalg.dag", "linalg.max_abs", "linalg.as_complex_matrix", "lindblad.vec", "lindblad.unvec"})
CONSTRUCTORS = (("states", "DensityMatrix"), ("collisions", "CollisionConfig"))
# Per-span size recorded next to the timing: the matrix dimension of an
# eigendecomposition, and the RK4 step count of an integration (the returned
# trajectory holds the initial state plus one snapshot per step).
SIZES = {
    "linalg.hermitian_eig": lambda args, result: len(args[0]),
    "lindblad.integrate": lambda args, result: len(result) - 1,
}
PACKAGE = "qcollide"


class Tracer:
    """Records one span per call of every wrapped qcollide function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.size: list[int] = []
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends, sizes, stack = (
            self.fid, self.parent, self.start, self.end, self.size, self._stack
        )
        size_of = SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            sizes.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    sizes[idx] = size_of(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch wrappers into every loaded qcollide module; call once, after import."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and f"{short}.{attr}" not in UNTRACED
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            cls.__init__ = self._wrap(f"{short}.{cls_name}.__init__", cls.__init__)

    def save(self, path) -> None:
        """Write the spans out as one compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.array(self.fid, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            size=np.array(self.size, dtype=np.int64),
        )


EIG_DIMS = (2, 3, 4, 6, 9)
MODULES = ("cli", "verify", "collisions", "lindblad", "states", "linalg", "presets")
# Functions whose calls, total time and self time are measured, by span name;
# a constructor's metrics are named with ``init`` for ``__init__``.
FUNCTIONS = (
    "linalg.hermitian_eig",
    "collisions.collide",
    "collisions.build_unitary",
    "collisions.CollisionConfig.__init__",
    "collisions.run_trajectory",
    "presets.random_collision",
    "states.DensityMatrix.__init__",
    "states.trace_distance",
    "lindblad.rates",
    "lindblad.integrate",
    "lindblad.multi_bath_generator",
    "lindblad.steady_state",
    "verify.stroboscopic_deviation",
    "verify.random_collision_suite",
    "cli.run_scenario",
)
P99_MIN_CALLS = 1000


def load_spans(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def span_metrics(spans: dict, wall_s: float) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Per-layer metrics of one traced scenario run.

    ``wall_s`` is the run's time in ``run_scenario`` measured around the
    (wrapped) call.  Only spans inside the ``run_scenario`` span count, so the
    per-module self times add up to its duration; ``trace.residual_s`` is
    what ``wall_s`` holds beyond that sum.  Also returns the per-call
    durations of each function in ``FUNCTIONS``, for pooling percentiles.
    """
    names = [str(n) for n in spans["names"]]
    fid, parent, size = spans["fid"], spans["parent"], spans["size"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(fid))
    self_time = duration - children

    def ident(name: str) -> int:
        return names.index(name) if name in names else -1

    roots = np.flatnonzero(fid == ident("cli.run_scenario"))
    if len(roots) != 1:
        raise ValueError(f"expected one cli.run_scenario span, found {len(roots)}")
    inside = np.arange(len(fid)) >= roots[0]

    # Parents precede their children, so one forward pass marks every span
    # below a collide span.
    collide_id = ident("collisions.collide")
    fids, parents = fid.tolist(), parent.tolist()
    below = [False] * len(fids)
    for i in range(roots[0], len(fids)):
        p = parents[i]
        below[i] = p >= 0 and (fids[p] == collide_id or below[p])
    in_collide = np.array(below, dtype=bool)

    metrics: dict[str, float] = {}
    durations: dict[str, np.ndarray] = {}
    for span in FUNCTIONS:
        prefix = span.replace(".__init__", ".init")
        mask = inside & (fid == ident(span))
        durations[prefix] = duration[mask]
        metrics[f"{prefix}.calls"] = int(mask.sum())
        metrics[f"{prefix}.total_s"] = float(duration[mask].sum())
        metrics[f"{prefix}.self_s"] = float(self_time[mask].sum())

    eig = inside & (fid == ident("linalg.hermitian_eig"))
    for d in EIG_DIMS:
        metrics[f"linalg.hermitian_eig.calls.d{d}"] = int((eig & (size == d)).sum())
        metrics[f"linalg.hermitian_eig.self_s.d{d}"] = float(self_time[eig & (size == d)].sum())

    strokes = metrics["collisions.collide.calls"]
    inits = inside & (fid == ident("states.DensityMatrix.__init__"))
    metrics["collisions.eig_calls_per_stroke"] = (eig & in_collide).sum() / strokes if strokes else 0.0
    metrics["states.DensityMatrix.inits_per_stroke"] = (inits & in_collide).sum() / strokes if strokes else 0.0

    integrate = inside & (fid == ident("lindblad.integrate"))
    rk4_steps = int(size[integrate].sum())
    metrics["lindblad.integrate.rk4_steps"] = rk4_steps
    metrics["lindblad.integrate.us_per_rk4_step"] = (
        1e6 * float(duration[integrate].sum()) / rk4_steps if rk4_steps else 0.0
    )
    metrics["cli.load_config.s"] = float(duration[fid == ident("cli.load_config")].sum())

    module_of = np.array([n.split(".", 1)[0] for n in names] or [""])
    for module in MODULES:
        metrics[f"{module}.self_s"] = float(self_time[inside & (module_of[fid] == module)].sum())
    metrics["trace.spans"] = int(inside.sum())
    metrics["trace.wall_s"] = wall_s
    metrics["trace.residual_s"] = wall_s - sum(metrics[f"{m}.self_s"] for m in MODULES)
    return metrics, durations


def percentiles_us(durations: np.ndarray) -> dict[str, float]:
    """Median and 99th percentile per call, in microseconds (0 when undefined)."""
    if len(durations) == 0:
        return {"p50_us": 0.0, "p99_us": 0.0}
    p99 = float(np.percentile(durations, 99)) * 1e6 if len(durations) >= P99_MIN_CALLS else 0.0
    return {"p50_us": float(np.median(durations)) * 1e6, "p99_us": p99}
