"""Outside-in per-layer tracing of templikit.

Wrappers are installed from here around the public functions of each layer;
nothing inside ``src/`` changes.  A function is patched under every name that
refers to it in a loaded ``templikit`` module (so ``from .coeff import smith``
in ``kan`` is covered as well as calls inside ``coeff``), and two methods are
patched on their classes.  Spans nest on one stack, so a span's self time is
its duration minus the time covered by its child spans.  Ring arithmetic is
not wrapped: a per-call wrapper would swamp it; it shows up as the self time
of ``smith`` and ``Morphism``.

Without a call to ``install`` nothing is patched, so untraced runs pay
nothing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

# (module, attribute) of each traced function
FUNCTIONS = (
    ("coeff", "smith"),
    ("coeff", "finite_limit"),
    ("coeff", "finite_colimit"),
    ("coeff", "kernel_data"),
    ("coeff", "cokernel_data"),
    ("coeff", "mat_mul"),
    ("necklace", "build_diagram"),
    ("quiver", "quiver_colimit"),
    ("quiver", "tensor_quiver_morphisms"),
    ("templicial", "hom_necklicial"),
    ("templicial", "validate_templicial"),
    ("kan", "degenerate_subobject"),
    ("kan", "check_weak_kan"),
    ("kan", "check_lifts_wings"),
    ("kan", "check_deg_projective"),
    ("deform", "validate_deformation"),
    ("deform", "base_change_templicial"),
    ("deform", "extension_sequence"),
    ("cli", "load_instance"),
    ("cli", "emit_report"),
)

# (module, class, method, span name)
METHODS = (
    ("coeff", "Morphism", "__post_init__", "coeff.Morphism"),
    ("templicial", "TemplicialEvaluator", "eval_map", "templicial.eval_map"),
)

LRU_MODULES = ("coeff", "necklace", "quiver")

# every per-layer metric, in report order; ones whose layer does not run in
# a workload read 0
METRICS = (
    "coeff.Morphism.calls", "coeff.Morphism.self_s",
    "coeff.smith.calls", "coeff.smith.self_s", "coeff.smith.entries",
    "coeff.smith.max_dim", "coeff.smith.max_entry_bits",
    "coeff.finite_limit.calls", "coeff.finite_limit.self_s", "coeff.finite_limit.arrows",
    "coeff.finite_colimit.calls", "coeff.finite_colimit.self_s",
    "coeff.finite_colimit.arrows",
    "quiver.quiver_colimit.total_s", "kan.degenerate_subobject.total_s",
    "coeff.kernel_data.calls", "coeff.cokernel_data.calls",
    "kan.items", "kan.smith_per_item",
    "templicial.eval_map.calls", "templicial.eval_map.distinct",
    "templicial.eval_map.self_s", "templicial.hom_necklicial.total_s",
    "quiver.tensor_quiver_morphisms.self_s",
    "coeff.mat_mul.calls", "coeff.mat_mul.self_s",
    "necklace.build_diagram.calls", "necklace.build_diagram.self_s",
    "coeff.lru.hits", "coeff.lru.misses", "coeff.lru.currsize",
    "necklace.lru.hits", "necklace.lru.misses", "necklace.lru.currsize",
    "quiver.lru.hits", "quiver.lru.misses", "quiver.lru.currsize",
    "deform.validate_deformation.total_s", "deform.base_change_templicial.total_s",
    "deform.extension_sequence.total_s",
    "cli.import_s", "cli.load_instance.total_s", "cli.emit_report.total_s",
    "templicial.validate_templicial.total_s",
    "trace.overhead_s",
)

# metrics that must repeat exactly for the same inputs
COUNTS = tuple(m for m in METRICS
               if not m.endswith(("_s", "smith_per_item")))

# stats that combine by maximum rather than sum across processes
MAXIMA = ("coeff.smith.max_dim", "coeff.smith.max_entry_bits")


class Recorder:
    """Span and counter store for one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)
        self.lru_caches = []

    def wrap(self, name, fn, before=None, after=None):
        stack, depth = self._stack, self._depth
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            stack.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if not depth[name]:
                    total_s[name] += elapsed
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(self, result)
            return result

        return traced

    def snapshot(self):
        """Per-layer metrics of everything recorded since ``install``."""
        out = {}
        for name in list(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
        out.update(self.counts)
        for fn in self.lru_caches:
            info = fn.cache_info()
            module = fn.__module__.rsplit(".", 1)[-1]
            for stat in ("hits", "misses", "currsize"):
                key = f"{module}.lru.{stat}"
                out[key] = out.get(key, 0) + getattr(info, stat)
        return out


def _smith_shape(rec, args):
    ring, matrix = args[0], args[1]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    counts = rec.counts
    counts["coeff.smith.entries"] += rows * cols
    counts["coeff.smith.max_dim"] = max(counts["coeff.smith.max_dim"], rows, cols)
    if ring.kind == "integers" and rows and cols:
        bits = max(abs(x).bit_length() for row in matrix for x in row)
        counts["coeff.smith.max_entry_bits"] = max(counts["coeff.smith.max_entry_bits"], bits)


def _arrow_count(key):
    def count(rec, args):
        rec.counts[key] += len(args[0].arrows)
    return count


def _eval_map_miss(rec, args):
    evaluator, necklace_map = args[0], args[1]
    if necklace_map not in evaluator._maps:
        rec.counts["templicial.eval_map.distinct"] += 1


def _report_items(rec, report):
    rec.counts["kan.items"] += len(report.items)


HOOKS = {
    "coeff.smith": (_smith_shape, None),
    "coeff.finite_limit": (_arrow_count("coeff.finite_limit.arrows"), None),
    "coeff.finite_colimit": (_arrow_count("coeff.finite_colimit.arrows"), None),
    "templicial.eval_map": (_eval_map_miss, None),
    "kan.check_weak_kan": (None, _report_items),
    "kan.check_lifts_wings": (None, _report_items),
    "kan.check_deg_projective": (None, _report_items),
}


def install():
    """Patch every traced function of the loaded templikit modules."""
    rec = Recorder()
    loaded = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
              if name == "templikit" or name.startswith("templikit.")}
    for short in LRU_MODULES:
        mod = loaded[short]
        rec.lru_caches.extend(fn for fn in vars(mod).values()
                        if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__)
    for short, attr in FUNCTIONS:
        if short not in loaded:
            continue
        original = getattr(loaded[short], attr)
        before, after = HOOKS.get(f"{short}.{attr}", (None, None))
        wrapper = rec.wrap(f"{short}.{attr}", original, before, after)
        for mod in loaded.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for short, cls_name, method, span in METHODS:
        cls = getattr(loaded[short], cls_name)
        before, after = HOOKS.get(span, (None, None))
        setattr(cls, method, rec.wrap(span, getattr(cls, method), before, after))
    return rec


def merge(snapshots):
    """Combine the snapshots of several processes (the CLI corpus)."""
    out = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key in MAXIMA:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(snap):
    """Every metric of METRICS from a (merged) snapshot, with derived ratios."""
    out = {name: snap.get(name, 0) for name in METRICS}
    items = out["kan.items"]
    out["kan.smith_per_item"] = out["coeff.smith.calls"] / items if items else 0
    return out
