"""Span tracing around the public API of quasidiag, from outside the package.

``install(tracer, package)`` replaces the public functions and methods the
benchmark measures with timing wrappers and returns a function that puts the
originals back.  Every wrapper records one span: name, start, end, parent
span and the refinement level (or adaptive step) it ran in.  Spans stay in
memory; the caller writes them out when the run ends.

A span's name is ``<layer>.<what>``, where the layer is the quasidiag module
that does the work.  A span's self time is its duration minus the durations
of its direct children; the self times of one layer summed over a pass give
that layer's share of the pass.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("mesh", "refine", "assembly", "precond", "spectral", "experiments")
# the benchmark's own code inside a pass (vector generation, checks)
HARNESS = "bench"

# plain functions wrapped under "<module>.<function>"
_PLAIN = {
    "mesh": ("initial_mesh", "enumerate_facets"),
    "refine": ("uniform_refine", "nvb_refine", "singular_indicator", "dorfler_mark"),
    "assembly": ("basis_set", "assemble_L", "assemble_M", "assemble_R"),
    "spectral": ("solve_spd",),
}


class Tracer:
    """In-memory span recorder for one single-threaded pass at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, level]
        self.counts = {}
        self.level = 0
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.level])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while span {top} is open")

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span; ``after(result, args, kwargs)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.span_name = name
        return traced

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []
        self.counts = {}
        self.level = 0


# ---------------------------------------------------------------------------
# installing the wrappers


def _package_modules(package):
    prefix = package.__name__ + "."
    return [package] + [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith(prefix) and module is not None
    ]


def install(tracer: Tracer, package):
    """Wrap the measured public API of ``package``; return the undo function.

    A function imported by name into other package modules is replaced
    there too, so calls made inside the package are traced as well.
    """
    modules = _package_modules(package)
    undo = []

    def patch_function(layer, attr, replacement_for):
        owner = getattr(package, layer)
        original = getattr(owner, attr)
        replacement = replacement_for(original)
        for module in modules:
            if module.__dict__.get(attr) is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)

    def counting(name):
        return lambda result, args, kwargs: tracer.count(name, _size(result))

    after = {
        "enumerate_facets": counting("mesh.facets.count"),
        "uniform_refine": counting("refine.elements_out"),
        "nvb_refine": counting("refine.elements_out"),
        "singular_indicator": counting("refine.singular_indicator.elements"),
        "assemble_L": counting("assembly.nnz"),
        "assemble_M": counting("assembly.nnz"),
        "assemble_R": counting("assembly.nnz"),
    }
    for layer, names in _PLAIN.items():
        for attr in names:
            patch_function(
                layer,
                attr,
                lambda fn, layer=layer, attr=attr: tracer.wrap(
                    f"{layer}.{attr}", fn, after.get(attr)
                ),
            )

    # preconditioner factories: the objects they return get traced apply/solve
    def factory(kind):
        def replacement_for(fn):
            def built(result, args, kwargs):
                result.apply = tracer.wrap(f"precond.apply_{kind}", result.apply)
                result.solve = tracer.wrap("precond.solve", result.solve)

            return tracer.wrap("precond.build", fn, built)

        return replacement_for

    patch_function("precond", "quasi_diagonal_preconditioner", factory("quasi"))
    patch_function("precond", "diagonal_preconditioner", factory("diag"))

    # Gram operator: factory, its embedded P1 solve, and the apply method
    def gram_factory(fn):
        def built(result, args, kwargs):
            if result.r_solve is not None:
                result.r_solve = tracer.wrap("spectral.r_solve", result.r_solve)

        return tracer.wrap("spectral.gram_operator", fn, built)

    patch_function("spectral", "gram_operator", gram_factory)
    gram_class = package.spectral.GramOperator
    original_apply = gram_class.__dict__["apply"]
    gram_class.apply = tracer.wrap("spectral.A_apply", original_apply)
    undo.append((gram_class, "apply", original_apply))

    # eigenvalue estimates, named by the preconditioner they run with
    def eigs_for(fn):
        @functools.wraps(fn)
        def traced(operator, preconditioner, *args, **kwargs):
            apply_name = getattr(preconditioner.apply, "span_name", "")
            kind = "diag" if apply_name.endswith("_diag") else "quasi"
            index = tracer.open(f"spectral.extreme_eigs_{kind}")
            try:
                report = fn(operator, preconditioner, *args, **kwargs)
            finally:
                tracer.close(index)
            tracer.count("spectral.power_sweeps", report.iterations_max)
            tracer.count("spectral.inverse_sweeps", report.iterations_min)
            tracer.count("spectral.estimates", 1)
            return report

        return traced

    patch_function("spectral", "extreme_eigs", eigs_for)

    # run_experiment, with one span per level closed at its row
    def experiment_for(fn):
        @functools.wraps(fn)
        def traced(config, clock=None, row_callback=None):
            last_level = config.resolved().levels
            outer = tracer.open("experiments.run_experiment")
            tracer.level = 1
            level = [tracer.open("experiments.level")]

            def on_row(row):
                tracer.close(level[0])
                level[0] = None
                tracer.count("experiments.levels", 1)
                if row_callback is not None:
                    row_callback(row)
                if row.level < last_level:
                    tracer.level = row.level + 1
                    level[0] = tracer.open("experiments.level")

            try:
                return fn(config, clock=clock, row_callback=on_row)
            finally:
                if level[0] is not None:
                    tracer.close(level[0])
                tracer.close(outer)

        return traced

    patch_function("experiments", "run_experiment", experiment_for)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _size(result) -> int:
    """Nonzeros of a matrix, elements of a mesh, length of an array."""
    if hasattr(result, "nnz"):
        return int(result.nnz)
    if hasattr(result, "num_elements"):
        return int(result.num_elements)
    return len(result)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def durations(spans) -> dict:
    """Span durations grouped by span name."""
    out = {}
    for name, start, end, _, _ in spans:
        out.setdefault(name, []).append(end - start)
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def aggregate(spans, counts, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (see the benchmark README)."""
    own = self_times(spans)
    calls, total, self_s = {}, {}, {}
    inner_solves = 0
    outer_solve_s = 0.0
    applies_in_estimates = 0
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own[index]
        if name == "spectral.solve_spd":
            if _has_ancestor(spans, index, "spectral.r_solve"):
                inner_solves += 1
            else:
                outer_solve_s += end - start
        elif name == "spectral.A_apply" and (
            _has_ancestor(spans, index, "spectral.extreme_eigs_quasi")
            or _has_ancestor(spans, index, "spectral.extreme_eigs_diag")
        ):
            applies_in_estimates += 1

    def per_call(name, scale):
        n = calls.get(name, 0)
        return scale * total.get(name, 0.0) / n if n else 0.0

    estimates = counts.get("spectral.estimates", 0)
    indicator_elements = counts.get("refine.singular_indicator.elements", 0)
    m = {
        "spectral.extreme_eigs_quasi.s": total.get("spectral.extreme_eigs_quasi", 0.0),
        "spectral.extreme_eigs_diag.s": total.get("spectral.extreme_eigs_diag", 0.0),
        "spectral.power_sweeps": counts.get("spectral.power_sweeps", 0),
        "spectral.inverse_sweeps": counts.get("spectral.inverse_sweeps", 0),
        "spectral.A_apply.calls": calls.get("spectral.A_apply", 0),
        "spectral.A_apply.s": total.get("spectral.A_apply", 0.0),
        "spectral.A_apply_per_estimate": (
            applies_in_estimates / estimates if estimates else 0.0
        ),
        "spectral.solve_spd.calls": calls.get("spectral.solve_spd", 0) - inner_solves,
        "spectral.solve_spd.s": outer_solve_s,
        "spectral.inner_pcg.calls": inner_solves,
        "spectral.gram_operator.s": total.get("spectral.gram_operator", 0.0),
        "spectral.gram_operator.self_s": self_s.get("spectral.gram_operator", 0.0),
        "spectral.r_solve.calls": calls.get("spectral.r_solve", 0),
        "spectral.r_solve.ms_per_call": per_call("spectral.r_solve", 1e3),
        "precond.apply_quasi.calls": calls.get("precond.apply_quasi", 0),
        "precond.apply_quasi.us_per_call": per_call("precond.apply_quasi", 1e6),
        "precond.apply_diag.us_per_call": per_call("precond.apply_diag", 1e6),
        "precond.solve.calls": calls.get("precond.solve", 0),
        "precond.solve.s": total.get("precond.solve", 0.0),
        "precond.build.s": total.get("precond.build", 0.0),
        "refine.singular_indicator.s": total.get("refine.singular_indicator", 0.0),
        "refine.singular_indicator.us_per_element": (
            1e6 * total.get("refine.singular_indicator", 0.0) / indicator_elements
            if indicator_elements
            else 0.0
        ),
        "refine.dorfler_mark.s": total.get("refine.dorfler_mark", 0.0),
        "refine.nvb_refine.s": total.get("refine.nvb_refine", 0.0),
        "refine.uniform_refine.s": total.get("refine.uniform_refine", 0.0),
        "refine.elements_out": counts.get("refine.elements_out", 0),
        "mesh.enumerate_facets.s": total.get("mesh.enumerate_facets", 0.0),
        "mesh.facets.count": counts.get("mesh.facets.count", 0),
        "assembly.assemble_L.s": total.get("assembly.assemble_L", 0.0),
        "assembly.assemble_M.s": total.get("assembly.assemble_M", 0.0),
        "assembly.assemble_R.s": total.get("assembly.assemble_R", 0.0),
        "assembly.nnz": counts.get("assembly.nnz", 0),
        "experiments.level.self_s": self_s.get("experiments.level", 0.0),
        "experiments.levels": counts.get("experiments.levels", 0),
    }
    layer_self = {layer: 0.0 for layer in LAYERS + (HARNESS,)}
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = value
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = wall_s
    m["trace.layer_coverage"] = sum(layer_self[layer] for layer in LAYERS) / wall_s
    return m
