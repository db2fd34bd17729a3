"""Outside-in tracer: spans around calls into numrange's public functions.

Nothing in numrange is edited.  `install` replaces each listed module-level
function with a timing wrapper and rebinds that wrapper in every
``numrange.*`` module that imported the function by name, so calls made
through any of those names are seen.  Public methods of the exact value
classes are wrapped too, but record a span only when the call crosses into
their layer from another, so that arithmetic a layer asks of `exactpoly` or
`hermitian` counts there.  ``numpy.linalg.eigh``/``eigvalsh`` are wrapped as
the pseudo-layer ``eig`` to count calls, matrices and the computed sum of n^3.

A layer's self time is the time of its spans minus the time of their child
spans, so for each job the self times of all layers plus ``eig`` add up to
the outermost span, ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import warnings
from collections import Counter, defaultdict

LAYERS = ("cli", "hermitian", "pencil", "dualcurve", "exactpoly", "rangegeom", "craig", "render")

FUNCTIONS = {
    "cli": ["main", "cmd_decompose", "cmd_pencil", "cmd_dual", "cmd_sample_w", "cmd_sample_f",
            "cmd_duality", "cmd_craig", "cmd_classify", "cmd_render"],
    "hermitian": ["matrix_from_json", "load_matrix", "split", "is_normal", "rank_one_value",
                  "charpoly", "eig_hermitian"],
    "pencil": ["pencil_det", "lmi_member", "ray_exit", "boundary_F", "boundary_csv",
               "restrict_to_line", "line_roots_from_eigs", "hyperbolicity_check",
               "lmi_polytope_vertices"],
    "dualcurve": ["restricted_line_form", "sample_real_curve_points", "dual_point",
                  "dual_curve_exact", "dual_of_linear", "dual_union", "dual_sample",
                  "dual_sample_csv"],
    "exactpoly": ["parse_poly", "det_poly_matrix", "resultant", "discriminant_binary",
                  "tri_gcd", "repeated_part", "gcd_squarefree", "uni_gcd", "uni_squarefree",
                  "uni_divmod", "sturm_real_root_count"],
    "rangegeom": ["convex_hull", "polygon_support", "hausdorff_outer_to_inner", "support",
                  "range_hulls", "hulls_csv", "member_W", "duality_check", "polytope_detect",
                  "translate_scale_law"],
    "craig": ["craig_identity", "product_zero", "craig_verdict", "verdict_line"],
    "render": ["render_figure"],
}

# classes whose public methods and arithmetic are traced at layer crossings
CLASSES = {
    "exactpoly": ["TriPoly", "BinaryForm"],
    "hermitian": ["GaussianRationalMatrix", "HermitianPencil"],
}
_DUNDERS = {"__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__matmul__"}

EIG_FUNCTIONS = ("eigh", "eigvalsh")

# function key -> counter that adds up len() of its return values
RETURN_COUNTS = {"dualcurve.sample_real_curve_points": "dualcurve.validation_points"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []           # [key, layer, start, child time]
        self.depth: Counter = Counter()       # open spans per function key
        self.fn_calls: Counter = Counter()
        self.fn_time: defaultdict = defaultdict(float)   # outermost spans only
        self.layer_self: defaultdict = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.values: Counter = Counter()      # counts read from return values
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------------------

    def _span(self, key, layer, fn, args, kwargs):
        self.fn_calls[key] += 1
        self.layer_calls[layer] += 1
        self.depth[key] += 1
        frame = [key, layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - frame[2]
            self.stack.pop()
            self.layer_self[layer] += dur - frame[3]
            if self.stack:
                self.stack[-1][3] += dur
            self.depth[key] -= 1
            if not self.depth[key]:
                self.fn_time[key] += dur

    def _function_wrapper(self, key, layer, fn):
        counter = RETURN_COUNTS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(key, layer, fn, args, kwargs)
            if counter:
                self.values[counter] += len(result)
            return result
        return wrapper

    def _method_wrapper(self, key, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            if not stack or stack[-1][1] == layer:
                return fn(*args, **kwargs)
            return self._span(key, layer, fn, args, kwargs)
        return wrapper

    def _eig_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", None) or (1, 1)
            n = shape[-1]
            mats = 1
            for d in shape[:-2]:
                mats *= d
            self.values["eig.matrices"] += mats
            self.values["eig.n3_sum"] += mats * n ** 3
            return self._span(f"eig.{name}", "eig", fn, (a,) + args, kwargs)
        return wrapper

    # -- installation -------------------------------------------------------------------

    def _rebind(self, orig, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "numrange" and not mod_name.startswith("numrange."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every listed function; a listed name that no longer exists is
        reported with a warning and keeps a count of 0."""
        import numpy.linalg

        for layer in LAYERS:
            mod = importlib.import_module(f"numrange.{layer}")
            for name in FUNCTIONS.get(layer, ()):
                orig = getattr(mod, name, None)
                if not callable(orig):
                    self.missing.append(f"{layer}.{name}")
                    warnings.warn(f"perfbench tracer: numrange.{layer}.{name} not found; "
                                  f"it reports 0 calls")
                    continue
                self._rebind(orig, self._function_wrapper(f"{layer}.{name}", layer, orig))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is None:
                    self.missing.append(f"{layer}.{cls_name}")
                    warnings.warn(f"perfbench tracer: numrange.{layer}.{cls_name} not found")
                    continue
                for attr, value in list(vars(cls).items()):
                    if not inspect.isfunction(value):
                        continue     # static/class methods and properties stay as they are
                    if attr.startswith("_") and attr not in _DUNDERS:
                        continue
                    self._undo.append((cls, attr, value))
                    setattr(cls, attr, self._method_wrapper(
                        f"{layer}.{cls_name}.{attr}", layer, value))
        for name in EIG_FUNCTIONS:
            orig = getattr(numpy.linalg, name)
            self._undo.append((numpy.linalg, name, orig))
            setattr(numpy.linalg, name, self._eig_wrapper(name, orig))

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far: per-layer self time and calls, per-function time and calls."""
        out = {}
        for layer in LAYERS + ("eig",):
            out[f"{layer}.self_s"] = self.layer_self[layer]
            out[f"{layer}.calls"] = self.layer_calls[layer]
        for key, n in self.fn_calls.items():
            out[f"{key}.calls"] = n
            out[f"{key}.s"] = self.fn_time[key]
        out.update(self.values)
        return out
