"""Outside-in span tracer for one `crease-lab` command in this process.

`Tracer.install()` replaces each public layer function listed in LAYERS with
a span-recording wrapper, in its defining module and in every loaded
`creaselab` module that bound it by `from ... import`.  `splu` and `eigsh`
are wrapped as `radial` sees them, through a stand-in for `radial.spla`.
The g/dg/k/dk closures of the catalog entry are wrapped through
`dataclasses.replace` on what `config.build_catalog_entry` returns.
`uninstall()` puts every original back.  The program itself is not edited.

Spans (name, start, end, parent) stay in memory until `summary()`.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

import numpy as np

LAYERS = {
    "geometry": [
        "inverse_metric", "christoffel", "second_metric_derivative", "scalar_curvature",
        "constraint_fields", "bulk_frame", "sphere_frame", "hypersurface_geometry",
    ],
    "spinorfields": ["spin_lift", "anchored_spin_lift", "rotation_between_frames"],
    "integrals": [
        "lsw_residual", "sen_derivatives", "bulk_spin_coefficients", "boundary_term_density",
        "witten_flux", "crease_boundary_terms", "adm_energy_momentum",
    ],
    "radial": ["reduce_radial", "derivative_matrix", "assemble", "solve", "mass_gap", "poincare_estimate"],
    "bartnik": ["crease_report_for", "bartnik_from_data"],
    "killing": ["killing_development", "riemann_norm", "crease_lorentz_check"],
    "reports": ["write_csv"],
}
SCIPY_VIA_RADIAL = ["splu", "eigsh"]
FIELDS = ["g", "dg", "k", "dk"]
INCLUSIVE = ["integrals.adm_energy_momentum", "radial.poincare_estimate"]


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [f"radial.{fn}" for fn in SCIPY_VIA_RADIAL]


def metric_names() -> list[str]:
    """Every per-layer metric a traced command yields, in a fixed order."""
    out = []
    for f in FIELDS:
        out += [f"catalog.{f}.calls", f"catalog.{f}.points", f"catalog.{f}.self_s"]
    out += ["catalog.dg.distinct_points", "catalog.dg.reeval_ratio"]
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s", f"{name}.errors"]
        if name in INCLUSIVE:
            out.append(f"{name}.incl_s")
    out.append("radial.unknowns")
    return out


COUNT_SUFFIXES = (".calls", ".points", ".errors", ".unknowns", ".distinct_points")


def combine(summaries: list[dict]) -> dict:
    """Sum per-command summaries; the re-evaluation ratio is recomputed from the sums."""
    out = {m: sum(s[m] for s in summaries) for m in metric_names()}
    distinct = out["catalog.dg.distinct_points"]
    out["catalog.dg.reeval_ratio"] = out["catalog.dg.points"] / distinct if distinct else 0.0
    return out


class _ModuleView:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _creaselab_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "creaselab" or n.startswith("creaselab.")]


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, count, raised]
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._dg_points: list[np.ndarray] = []

    def wrap(self, name: str, fn, count=None, keep_points: bool = False):
        """Return `fn` wrapped to record one span per call.

        `count(args, result)` gives the span's work count (points, unknowns).
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            if keep_points:
                self._dg_points.append(np.array(args[0], dtype=float).reshape(-1, 3))
            return result

        wrapper.perfbench_wrapper = True
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_entry(self, entry):
        from creaselab.geometry import CreasedData

        if isinstance(entry, CreasedData):
            return dataclasses.replace(entry, minus=self._wrap_entry(entry.minus), plus=self._wrap_entry(entry.plus))
        fields = {
            f: self.wrap(f"catalog.{f}", getattr(entry, f), count=lambda a, r: _points(a[0]), keep_points=f == "dg")
            for f in FIELDS
        }
        return dataclasses.replace(entry, **fields)

    def install(self) -> None:
        modules = _creaselab_modules()
        radial = sys.modules["creaselab.radial"]
        config = sys.modules["creaselab.config"]
        unknowns = {"radial.assemble": lambda a, r: int(r.A.shape[1])}
        for mod_name, fns in LAYERS.items():
            mod = sys.modules[f"creaselab.{mod_name}"]
            for fn in fns:
                name = f"{mod_name}.{fn}"
                original = getattr(mod, fn)
                self._patch_everywhere(modules, original, self.wrap(name, original, count=unknowns.get(name)))
        overrides = {fn: self.wrap(f"radial.{fn}", getattr(radial.spla, fn)) for fn in SCIPY_VIA_RADIAL}
        self._patch(radial, "spla", _ModuleView(radial.spla, overrides))

        build = config.build_catalog_entry

        def build_catalog_entry(cfg):
            return self._wrap_entry(build(cfg))

        build_catalog_entry.perfbench_wrapper = True
        self._patch_everywhere(modules, build, build_catalog_entry)

    def _patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def restored() -> bool:
        """True when no `creaselab` module still holds a wrapper."""
        return not any(
            getattr(value, "perfbench_wrapper", False) or isinstance(value, _ModuleView)
            for mod in _creaselab_modules()
            for value in vars(mod).values()
        )

    def summary(self) -> dict:
        """Per-layer metrics of the recorded spans; names absent from the command read 0."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {m: 0 for m in metric_names()}
        for i, (name, t0, t1, parent, count, raised) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child_time[i]
            if name.startswith("catalog."):
                out[f"{name}.points"] += count
            else:
                out[f"{name}.errors"] += int(raised)
            if name == "radial.assemble":
                out["radial.unknowns"] += count
            if name in INCLUSIVE and not self._has_ancestor(i, name):
                out[f"{name}.incl_s"] += t1 - t0
        if self._dg_points:
            pts = np.ascontiguousarray(np.concatenate(self._dg_points))
            out["catalog.dg.distinct_points"] = np.unique(pts.view(np.dtype((np.void, 24))).ravel()).size
        return combine([out])

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
