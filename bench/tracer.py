"""Span tracer that instruments the slenderquad package from outside.

`Tracer.install` replaces every public function of the package in every
module namespace that binds it, including names imported by value (for
example `nearsing.solve_vandermonde_transpose` or `cli.eval_S`), so calls
between modules are seen too. Each call becomes a span: name, start, end,
parent span and the benchmark step it ran in. Spans stay in memory in flat
arrays and are written out once, at the end of the run.

The fiber and force closures are called far too often for spans, so the
curves and densities the package hands out get counters instead: the number
of arclength points passed to them.

The run is single-threaded, so a span's time is either its own work or its
children's; no layer waits on another, and no waiting time is reported.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

PACKAGE = "slenderquad"
LAYERS = ("quadcore", "geometry", "finitepart", "nearsing", "oracle", "forces", "cli")
CLI_STEPS = ("eigen_test", "k_convergence", "field_test")


@dataclasses.dataclass(frozen=True)
class StepInfo:
    """One benchmark step as the tracer sees it.

    role is "main", "bypass" or "other" for timed steps, "setup" for the
    set-up phase and "untraced" for steps run while the wrappers are out.
    """

    op: int
    name: str
    role: str


def _points(s) -> int:
    return int(getattr(s, "size", 1))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._wrappers: dict[int, types.FunctionType] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.span_id = array("q")
        self.parent = array("q")
        self.fn = array("i")
        self.step = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.ok = array("b")
        self.next_id = 0
        self.current = -1
        self.steps: list[StepInfo] = []
        self.step_id = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    # -- recording -------------------------------------------------------

    def _fn_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _record(self, sid, parent, idx, t0, t1, ok):
        self.span_id.append(sid)
        self.parent.append(parent)
        self.fn.append(idx)
        self.step.append(self.step_id)
        self.t0.append(t0)
        self.t1.append(t1)
        self.ok.append(ok)

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.step_id, name)] += amount

    def begin_step(self, op: int, name: str, role: str) -> None:
        self.step_id = len(self.steps)
        self.steps.append(StepInfo(op, name, role))

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def bench_span(self, name: str):
        """Context manager recording a span of the benchmark's own code."""
        return _BenchSpan(self, self._fn_index(f"bench.{name}"))

    # -- instrumentation -------------------------------------------------

    def _counted(self, fn, name):
        def closure(s):
            self.count(name, _points(s))
            return fn(s)

        return closure

    def _after(self, name, out):
        """Attach point counters to the closures a traced function hands out."""
        if name == "geometry.make_helix":
            return dataclasses.replace(
                out, position=self._counted(out.position, "geometry.curve_points")
            )
        if name in ("forces.legendre_mixture", "forces.testf", "forces.testf_simple"):
            return tuple(self._counted(g, "forces.density_points") for g in out)
        return out

    def _before(self, name, args):
        if name == "finitepart.eval_K":
            self.count("finitepart.eval_K.pairs", args[0].grid.node_count)
        elif name == "nearsing.eval_S":
            self.count("nearsing.panels", args[0].grid.panel_count)

    def _wrap(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        idx = self._fn_index(name)
        hooked_before = name in ("finitepart.eval_K", "nearsing.eval_S")
        hooked_after = name in (
            "geometry.make_helix",
            "forces.legendre_mixture",
            "forces.testf",
            "forces.testf_simple",
        )
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hooked_before:
                tr._before(name, args)
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = tr.current
            tr.current = sid
            ok = 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = 1
            finally:
                t1 = perf_counter()
                tr.current = parent
                tr._record(sid, parent, idx, t0, t1, ok)
            return tr._after(name, out) if hooked_after else out

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self) -> None:
        """Wrap every public package function wherever a package module binds it."""
        if self._patched:
            return
        modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        originals = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith(PACKAGE + ".")
                ):
                    originals[id(obj)] = obj
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span, in id order of completion, as one .npz file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            step=np.frombuffer(self.step, dtype=np.int32),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
            ok=np.frombuffer(self.ok, dtype=np.int8),
            step_op=np.array([s.op for s in self.steps], dtype=np.int64),
            step_name=np.array([s.name for s in self.steps]),
            step_role=np.array([s.role for s in self.steps]),
        )

    def summarize(self, untraced_main: list[float], traced_main: list[float]) -> dict:
        """Per-layer figures, per operation of the main class unless prefixed.

        Unprefixed figures are summed over every step of the operations that
        hold a main step, then divided by their number. `bypass.` figures are
        per bypass step, `setup.` figures cover the whole set-up phase.
        A layer's self time is its spans' time minus what their child spans
        cover.
        """
        import numpy as np

        n = len(self.span_id)
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64))
        parent = np.frombuffer(self.parent, dtype=np.int64)[order]
        fn = np.frombuffer(self.fn, dtype=np.int32)[order]
        step = np.frombuffer(self.step, dtype=np.int32)[order]
        t0 = np.frombuffer(self.t0)[order]
        dur = np.frombuffer(self.t1)[order] - t0
        failed = np.frombuffer(self.ok, dtype=np.int8)[order] == 0
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered[:n]

        names = np.array(self.names)
        layer_of_fn = np.array([nm.split(".", 1)[0] for nm in names])
        steps = self.steps
        main_ops = {s.op for s in steps if s.role == "main"}
        main_steps = {
            i for i, s in enumerate(steps) if s.op in main_ops and s.role not in ("untraced", "setup")
        }
        bypass_steps = {i for i, s in enumerate(steps) if s.role == "bypass"}
        setup_steps = {i for i, s in enumerate(steps) if s.role == "setup"}

        def select(step_ids):
            return np.isin(step, sorted(step_ids)) if step_ids else np.zeros(n, dtype=bool)

        def tally(step_ids, per):
            """Sums over spans and counters of the given steps, divided by per."""
            pick = select(step_ids)
            out = defaultdict(float)
            per = max(per, 1)
            for layer in LAYERS + ("bench",):
                out[f"{layer}.self_s"] = float(self_time[pick & (layer_of_fn[fn] == layer)].sum()) / per
            for idx in np.unique(fn[pick]):
                hit = pick & (fn == idx)
                out[f"{names[idx]}.calls"] = float(hit.sum()) / per
                out[f"{names[idx]}.self_s"] = float(self_time[hit].sum()) / per
                out[f"{names[idx]}.incl_s"] = float(dur[hit].sum()) / per
                out[f"{names[idx]}.failures"] = float((hit & failed).sum()) / per
            totals = defaultdict(float)
            for (sid, key), value in self.counts.items():
                if sid in step_ids:
                    totals[key] += value
            for key, value in totals.items():
                out[key] = value / per
            out["nearsing.regular_panels"] = out["nearsing.panels"] - out["nearsing.eval_S_special.calls"]
            return out

        main = tally(main_steps, len(main_ops))
        bypass = tally(bypass_steps, len(bypass_steps))
        setup = tally(setup_steps, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        solve = self._index.get("quadcore.solve_vandermonde_transpose", -1)
        build = self._index.get("finitepart.build_weight_table", -1)
        is_build = fn == build
        build_ids = np.flatnonzero(is_build)
        solves_in_builds = int(np.isin(parent[fn == solve], build_ids).sum()) if build_ids.size else 0

        metrics = {}
        for key in (
            "quadcore.self_s",
            "quadcore.legendre_eval.calls",
            "quadcore.legendre_deriv_coeffs.calls",
            "quadcore.legendre_transform_matrix.calls",
            "quadcore.solve_vandermonde_transpose.calls",
            "quadcore.solve_vandermonde_transpose.self_s",
            "quadcore.interpolate_to_uniform.self_s",
            "quadcore.gauss_legendre.self_s",
            "geometry.self_s",
            "geometry.discretize.calls",
            "geometry.discretize.self_s",
            "geometry.curve_points",
            "finitepart.self_s",
            "finitepart.build_weight_table.self_s",
            "finitepart.eval_K.calls",
            "finitepart.eval_K.self_s",
            "finitepart.eval_K.pairs",
            "finitepart.eval_L.calls",
            "finitepart.eval_L.self_s",
            "nearsing.self_s",
            "nearsing.eval_S.calls",
            "nearsing.eval_S.self_s",
            "nearsing.eval_S_regular.self_s",
            "nearsing.find_root.calls",
            "nearsing.find_root.self_s",
            "nearsing.find_root.failures",
            "nearsing.qkp_moments.calls",
            "nearsing.qkp_moments.self_s",
            "nearsing.eval_S_special.calls",
            "nearsing.eval_S_special.self_s",
            "nearsing.regular_panels",
            "nearsing.fallback_warnings",
            "oracle.self_s",
            "oracle.reference_S.calls",
            "oracle.reference_S.self_s",
            "oracle.adaptive_integrate.calls",
            "oracle.adaptive_integrate.self_s",
            "oracle.convergence_study.self_s",
            "oracle.flagged_points",
            "forces.self_s",
            "forces.density_points",
            "bench.self_s",
        ):
            metrics[key] = main[key]
        metrics["finitepart.eval_K.pairs_per_s"] = ratio(
            main["finitepart.eval_K.pairs"], main["finitepart.eval_K.incl_s"]
        )
        metrics["finitepart.build_weight_table.solves_per_build"] = ratio(
            solves_in_builds, int(is_build.sum())
        )
        metrics["nearsing.special_per_root"] = ratio(
            main["nearsing.eval_S_special.calls"], main["nearsing.find_root.calls"]
        )
        metrics["forces.density_points_per_reference"] = ratio(
            main["forces.density_points"], main["oracle.reference_S.calls"]
        )
        for name in CLI_STEPS:
            pick = select({i for i in main_steps if steps[i].name == name})
            metrics[f"cli.{name}.self_s"] = float(
                self_time[pick & (layer_of_fn[fn] == "cli")].sum()
            ) / max(len(main_ops), 1)
        for key in (
            *(f"{layer}.self_s" for layer in LAYERS),
            "quadcore.legendre_eval.calls",
            "finitepart.eval_K.calls",
            "nearsing.eval_S.calls",
            "nearsing.find_root.calls",
            "nearsing.regular_panels",
            "forces.density_points",
        ):
            metrics[f"bypass.{key}"] = bypass[key]
        for key in (
            "quadcore.gauss_legendre.self_s",
            "quadcore.solve_vandermonde_transpose.calls",
            "finitepart.build_weight_table.self_s",
            "geometry.discretize.self_s",
        ):
            metrics[f"setup.{key}"] = setup[key]
        metrics["trace.overhead_ratio"] = (
            ratio(statistics.median(traced_main), statistics.median(untraced_main))
            if traced_main and untraced_main
            else 0.0
        )
        return metrics


class _BenchSpan:
    def __init__(self, tracer: Tracer, idx: int):
        self.tr = tracer
        self.idx = idx

    def __enter__(self):
        tr = self.tr
        self.sid = tr.next_id
        tr.next_id += 1
        self.parent = tr.current
        tr.current = self.sid
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = perf_counter()
        tr = self.tr
        tr.current = self.parent
        tr._record(self.sid, self.parent, self.idx, self.t0, t1, 0 if exc_type else 1)
        return False
