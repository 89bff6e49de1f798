"""Per-layer spans and counters, recorded from outside the package.

The tracer wraps public treewalks functions and methods in place: a
function is replaced by identity in every ``treewalks.*`` module namespace
that holds it (``cli``, ``products`` and ``matrix_boundary`` import names
directly, so patching the defining module alone would miss those calls),
and a method is replaced on its class.  Each call made while the tracer is
enabled appends a span ``[name, start, end, parent, nested]`` to an
in-memory list.  The harness flushes that list after every timed op: self
time is a span's duration minus the time covered by its child spans, and
inclusive time counts only the outermost span of each name, so recursive
calls (``expansion`` calls itself) are not counted twice.

Counters are read from return values and raised exceptions only; nothing
inside the package is observed.  Steps inside failed Newton solves are
therefore invisible: ``series.solve.newton_steps`` sums
``SolveResult.iterations`` over solves that returned.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict

# (span name, module, attribute); "Class.method" attributes patch the class.
SPANS = (
    ("series.radius", "treewalks.series", "FirstPassageSystem.radius"),
    ("series.solve", "treewalks.series", "FirstPassageSystem.solve"),
    ("series.fold", "treewalks.series", "FirstPassageSystem.fold"),
    ("series.expansion", "treewalks.series", "FirstPassageSystem.expansion"),
    ("series.series_coefficients", "treewalks.series", "series_coefficients"),
    ("series.green_second_order", "treewalks.series", "green_second_order"),
    ("kernels.ratio_kernel_nn", "treewalks.kernels", "ratio_kernel_nn"),
    ("kernels.martin_kernel_nn", "treewalks.kernels", "martin_kernel_nn"),
    ("kernels.ratio_kernel_isotropic", "treewalks.kernels", "ratio_kernel_isotropic"),
    ("kernels.ancona_harnack_check", "treewalks.kernels", "ancona_harnack_check"),
    ("matrix_boundary.martin_kernel_matrix", "treewalks.matrix_boundary", "martin_kernel_matrix"),
    ("matrix_boundary.passage_matrix", "treewalks.matrix_boundary", "passage_matrix"),
    ("matrix_boundary.first_passage_to_ball", "treewalks.matrix_boundary", "first_passage_to_ball"),
    ("matrix_boundary.contraction_limit", "treewalks.matrix_boundary", "contraction_limit"),
    ("walks.ratio_sequence", "treewalks.walks", "ratio_sequence"),
    ("walks.nstep", "treewalks.walks", "nstep"),
    ("walks.fit_local_limit", "treewalks.walks", "fit_local_limit"),
    ("walks.spectral_radius", "treewalks.walks", "spectral_radius"),
    ("products.product_return_sequence", "treewalks.products", "product_return_sequence"),
    ("products.factor_returns", "treewalks.products", "factor_returns"),
    ("products.product_nstep_pair", "treewalks.products", "product_nstep_pair"),
    ("products.product_report", "treewalks.products", "product_report"),
    ("reduced_boundary.detect_R_mu", "treewalks.reduced_boundary", "detect_R_mu"),
    ("cli.main", "treewalks.cli", "main"),
)

# counter name -> (unit, better); filled by the hooks below
COUNTERS = {
    "series.radius.evaluations": ("count", "lower"),
    "series.solve.failed": ("count", "lower"),
    "series.solve.failed_s": ("s", "lower"),
    "series.solve.ok_frac": ("frac", "higher"),
    "series.solve.hit_frac": ("frac", "higher"),
    "series.solve.newton_steps": ("count", "lower"),
    "series.fold.iterations": ("count", "lower"),
    "series.series_coefficients.terms": ("count", "lower"),
    "series.green_second_order.shells": ("count", "lower"),
    "kernels.ancona_harnack_check.samples": ("count", "lower"),
    "matrix_boundary.first_passage_to_ball.steps": ("count", "lower"),
    "walks.ratio_sequence.steps": ("count", "lower"),
    "walks.nstep.support": ("count", "lower"),
    "reduced_boundary.detect_R_mu.kernel_evals": ("count", "lower"),
    "cli.main.bytes_out": ("bytes", "lower"),
}


class _Agg:
    __slots__ = ("incl", "self_s", "calls")

    def __init__(self):
        self.incl = 0.0
        self.self_s = 0.0
        self.calls = 0


class Tracer:
    """Span recorder; disabled until ``enabled`` is set by the harness."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.totals: dict[str, _Agg] = defaultdict(_Agg)
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        # fresh-result bookkeeping, so cached returns are not counted twice
        self._seen_results: dict[int, object] = {}
        self._solved: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "series.radius": self._on_radius,
            "series.solve": self._on_solve,
            "series.fold": self._on_fold,
            "series.series_coefficients": self._on_terms,
            "series.green_second_order": self._on_shells,
            "kernels.ancona_harnack_check": self._on_samples,
            "matrix_boundary.first_passage_to_ball": self._on_steps,
            "walks.ratio_sequence": self._on_ratio_steps,
            "walks.nstep": self._on_support,
            "reduced_boundary.detect_R_mu": self._on_detect,
        }
        for name, modname, attr in SPANS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "treewalks" or mod_name.startswith("treewalks.")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _set(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, hook):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            stack = tracer.stack
            depth = tracer.depth
            depth[name] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] > 1]
            spans.append(rec)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                rec[1] = t0
                rec[2] = t1
                stack.pop()
                depth[name] -= 1
                if hook is not None:
                    hook(args, kwargs, None, exc, t1 - t0)
                raise
            t1 = clock()
            rec[1] = t0
            rec[2] = t1
            stack.pop()
            depth[name] -= 1
            if hook is not None:
                hook(args, kwargs, out, None, t1 - t0)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counter hooks (return values and exceptions only) ---------------

    def _fresh(self, obj) -> bool:
        """True the first time a (cached) result object is returned."""
        if id(obj) in self._seen_results:
            return False
        self._seen_results[id(obj)] = obj  # keep alive so ids stay unique
        return True

    def _on_radius(self, args, kwargs, out, exc, dt):
        if out is not None and self._fresh(out):
            self.counts["series.radius.evaluations"] += out.evaluations

    def _on_solve(self, args, kwargs, out, exc, dt):
        system, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
        key = str(z)
        solved = self._solved.setdefault(system, set())
        self.counts["series.solve.attempts"] += 1
        if key in solved:
            self.counts["series.solve.hits"] += 1
        if exc is not None:
            if type(exc).__name__ == "ConvergenceError":
                self.counts["series.solve.failed"] += 1
                self.counts["series.solve.failed_s"] += dt
            return
        self.counts["series.solve.ok"] += 1
        if key not in solved:
            solved.add(key)
            self.counts["series.solve.newton_steps"] += out.iterations

    def _on_fold(self, args, kwargs, out, exc, dt):
        if out is not None and self._fresh(out):
            self.counts["series.fold.iterations"] += out.iterations

    def _on_terms(self, args, kwargs, out, exc, dt):
        if out is not None:
            self.counts["series.series_coefficients.terms"] += len(out)

    def _on_shells(self, args, kwargs, out, exc, dt):
        if out is not None:
            self.counts["series.green_second_order.shells"] += out.shells

    def _on_samples(self, args, kwargs, out, exc, dt):
        if out is not None:
            self.counts["kernels.ancona_harnack_check.samples"] += out.samples

    def _on_steps(self, args, kwargs, out, exc, dt):
        if out is not None:
            self.counts["matrix_boundary.first_passage_to_ball.steps"] += out.steps

    def _on_ratio_steps(self, args, kwargs, out, exc, dt):
        if out is not None:
            self.counts["walks.ratio_sequence.steps"] += len(out.ns) + len(out.skipped)

    def _on_support(self, args, kwargs, out, exc, dt):
        if out is not None:
            size = len(out.table) if out.table is not None else len(out.radial)
            key = "walks.nstep.support"
            self.counts[key] = max(self.counts[key], size)

    def _on_detect(self, args, kwargs, out, exc, dt):
        if out is None:
            return
        from treewalks.geometry import ball

        from treewalks.reduced_boundary import detect_R_mu

        bound = inspect.signature(detect_R_mu).bind(*args, **kwargs)
        bound.apply_defaults()
        walk = bound.arguments["walk"]
        radius = bound.arguments["probe_radius"]
        if hasattr(walk, "left"):
            b1 = [len(w) for w in ball(walk.left.alphabet, radius)]
            b2 = [len(w) for w in ball(walk.right.alphabet, radius)]
            probes = sum(1 for a in b1 for b in b2 if a + b <= radius)
        else:
            probes = len(ball(walk.alphabet, radius))
        self.counts["reduced_boundary.detect_R_mu.kernel_evals"] += (
            len(out.labels) + 1
        ) * probes

    def count(self, name: str, k: float) -> None:
        if self.enabled:
            self.counts[name] += k

    # -- aggregation ----------------------------------------------------

    def flush(self) -> float:
        """Fold recorded spans into per-name totals; return top-level time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, nested in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        top = 0.0
        totals = self.totals
        for i, (name, t0, t1, parent, nested) in enumerate(spans):
            d = t1 - t0
            agg = totals[name]
            agg.calls += 1
            agg.self_s += d - child[i]
            if not nested:
                agg.incl += d
            if parent < 0:
                top += d
        spans.clear()
        return top

    def snapshot(self) -> dict:
        """Totals so far, keyed by metric name (not yet divided by passes)."""
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            agg = self.totals.get(name) or _Agg()
            out[f"{name}.s"] = agg.incl
            out[f"{name}.self_s"] = agg.self_s
            out[f"{name}.calls"] = agg.calls
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0.0)
        attempts = self.counts.get("series.solve.attempts", 0.0)
        out["series.solve.ok_frac"] = (
            self.counts.get("series.solve.ok", 0.0) / attempts if attempts else 0.0
        )
        out["series.solve.hit_frac"] = (
            self.counts.get("series.solve.hits", 0.0) / attempts if attempts else 0.0
        )
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.totals.clear()
        self.counts.clear()
