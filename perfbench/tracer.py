"""Span tracer that wraps convexkit's layer functions from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` with a recording
wrapper in every ``convexkit`` module namespace that binds it (modules
import with ``from .geometry import convex_hull``, so patching the defining
module alone would miss most calls).  ``Tracer.uninstall`` puts the
original objects back.  An untraced run never installs anything.

Each span is a tuple ``(span_id, parent_id, task_id, name, dur, overhead,
info)``.  ``dur`` covers only the wrapped call; ``overhead`` is the
wrapper's own bookkeeping around it, which lies inside the parent's
interval.  Self time is therefore ``dur`` minus the children's
``dur + overhead``, and total time is ``dur`` minus the bookkeeping of all
descendants, so the tracer's cost never lands in a layer's figures.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from math import lcm

# Layer boundaries: module -> public functions whose calls become spans.
TARGETS = {
    "geometry": ("convex_hull", "project"),
    "linalg": ("mat_rank", "solve"),
    "volumes": (
        "combine",
        "mixed_volume_base_height",
        "mixed_volume_interp",
        "mixed_area",
    ),
    "inequalities": ("bm_check", "minkowski_check", "normalized_check"),
    "numeric": ("root_combination", "format_fixed"),
    "homothety": (
        "detect_homothety",
        "functional_equality_sweep",
        "homothetic_projections_conclude",
    ),
    "reconstruction": ("recover_support_any",),
    "steiner": ("steiner_symmetral",),
    "io": ("load_body", "dumps_report"),
}

# geometry documents this limit (_INT_SCALE_BIT_LIMIT): above it the hull
# predicates run on Fractions instead of rescaled integers.
INT_SCALE_BIT_LIMIT = 256


def denominator_lcm_bits(points) -> int:
    out = 1
    for p in points:
        for x in p:
            den = getattr(x, "denominator", None)
            out = lcm(out, Fraction(x).denominator if den is None else den)
    return out.bit_length()


def _hull_before(args, kwargs):
    points = args[0] if args else kwargs["points"]
    if not hasattr(points, "__len__"):
        points = list(points)
        args = (points,) + tuple(args[1:])
    dim = len(next(iter(points))) if points else 0
    return args, (dim, len(points), denominator_lcm_bits(points))


def _hull_after(pre, result):
    dim, n_in, bits = pre
    full = result.affine_dim == result.dim
    return (dim, n_in, bits, len(result.vertices), len(result.facets), full)


def _combine_before(args, kwargs):
    a, first, b, second = args
    key = hash((a, b, first, second))
    return args, (first.dim, len(first.vertices) * len(second.vertices), key)


def _combine_after(pre, result):
    return pre + (len(result.vertices),)


def _pair_key_before(args, kwargs):
    first, second = args[:2]
    return args, (first.dim, hash((first, second)))


def _dim_before(args, kwargs):
    return args, (args[0].dim,)


def _keep(pre, result):
    return pre


HOOKS = {
    "geometry.convex_hull": (_hull_before, _hull_after),
    "volumes.combine": (_combine_before, _combine_after),
    "volumes.mixed_volume_base_height": (_pair_key_before, _keep),
    "volumes.mixed_volume_interp": (_dim_before, _keep),
}


class Tracer:
    """In-memory span recorder; spans are written out by ``write``."""

    def __init__(self):
        self.spans = []
        self._stack = [None]
        self._next_id = 0
        self.task_id = None
        self._patched = []  # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "convexkit" or name.startswith("convexkit."))
        ]
        for modname, names in TARGETS.items():
            home = sys.modules[f"convexkit.{modname}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, label=None):
        before, after = HOOKS.get(name, (None, None))
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_pre = clock()
            pre = None
            if before is not None:
                try:
                    args, pre = before(args, kwargs)
                except Exception:  # an unexpected signature only loses the sizes
                    pre = None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                info = label
                if done and pre is not None:
                    try:
                        info = after(pre, result)
                    except Exception:
                        info = None
                over = clock() - t1 + t0 - t_pre
                spans.append((sid, parent, self.task_id, name, t1 - t0, over, info))

        return wrapper

    def run_task(self, task_id, label, fn, *args):
        """Run one benchmark task as the root span of its own span tree."""
        self.task_id = task_id
        try:
            return self._wrap("task", fn, label)(*args)
        finally:
            self.task_id = None

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans):
    """Per-layer counts, sizes and times from a finished span list.

    Spans are appended when they end, so every child precedes its parent
    and one pass settles self and total times.  Every metric covers every
    span, the coverage pass included.  Returns (metrics, baselines,
    own_combine_share): baselines are per-call medians kept for comparison
    with single-call measurements, and own_combine_share is ``combine``'s
    share of the workload's own task time (task id >= 0); neither is a
    benchmark metric.
    """
    cover = defaultdict(float)  # children's dur + overhead, per parent
    inner = defaultdict(float)  # all descendants' overhead, per parent
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    own_total_s = defaultdict(float)
    names = {}
    hull_self = defaultdict(float)
    hull = defaultdict(int)
    hull_bits = []
    frac_calls, frac_self = 0, 0.0
    combine_pairs = combine_out = 0
    distinct = defaultdict(set)
    per_call = defaultdict(list)
    oracle_spans = []

    for sid, parent, task, name, dur, over, info in spans:
        own_inner = inner.pop(sid, 0.0)
        total = dur - own_inner
        self_ = dur - cover.pop(sid, 0.0)
        names[sid] = (parent, name)
        if parent is not None:
            cover[parent] += dur + over
            inner[parent] += over + own_inner
        calls[name] += 1
        self_s[name] += self_
        total_s[name] += total
        if task is not None and task >= 0:
            own_total_s[name] += total
        if name == "geometry.convex_hull" and info is not None:
            dim, n_in, bits, n_vert, n_facet, full = info
            hull_self[dim] += self_
            hull["points_in"] += n_in
            hull["vertices_out"] += n_vert
            hull["facets_out"] += n_facet
            hull_bits.append(bits)
            if full and bits > INT_SCALE_BIT_LIMIT:
                frac_calls += 1
                frac_self += self_
                per_call[("hull-fraction", dim)].append((total, n_in))
        elif name == "volumes.combine" and info is not None:
            dim, pairs, key, n_out = info
            combine_pairs += pairs
            combine_out += n_out
            distinct[name].add((task, key))
            per_call[("combine", dim, pairs)].append((total, pairs))
        elif name == "volumes.mixed_volume_base_height" and info is not None:
            dim, key = info
            distinct[name].add((task, key))
            per_call[("base_height", dim)].append((total, 0))
        elif name == "volumes.mixed_volume_interp" and info is not None:
            per_call[("interp", info[0])].append((total, 0))
        elif name == "volumes.mixed_area":
            oracle_spans.append(sid)

    def under(sid, ancestor):
        parent = names[sid][0]
        while parent is not None:
            if names[parent][1] == ancestor:
                return True
            parent = names[parent][0]
        return False

    directions = calls["reconstruction.recover_support_any"]
    oracle_calls = sum(under(s, "reconstruction.recover_support_any") for s in oracle_spans)
    task_s = total_s["task"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "geometry.convex_hull.calls": calls["geometry.convex_hull"],
        "geometry.convex_hull.d2.self_s": hull_self[2],
        "geometry.convex_hull.d3.self_s": hull_self[3],
        "geometry.convex_hull.d4.self_s": hull_self[4],
        "geometry.convex_hull.points_in": hull["points_in"],
        "geometry.convex_hull.vertices_out": hull["vertices_out"],
        "geometry.convex_hull.facets_out": hull["facets_out"],
        "geometry.convex_hull.coord_bits_p50": _median(hull_bits),
        "geometry.convex_hull.fraction_path.calls": frac_calls,
        "geometry.convex_hull.fraction_path.self_s": frac_self,
        "geometry.project.calls": calls["geometry.project"],
        "geometry.project.total_s": total_s["geometry.project"],
        "linalg.mat_rank.calls": calls["linalg.mat_rank"],
        "linalg.mat_rank.self_s": self_s["linalg.mat_rank"],
        "linalg.solve.calls": calls["linalg.solve"],
        "linalg.solve.self_s": self_s["linalg.solve"],
        "volumes.combine.calls": calls["volumes.combine"],
        "volumes.combine.self_s": self_s["volumes.combine"],
        "volumes.combine.total_s": total_s["volumes.combine"],
        "volumes.combine.task_share": ratio(total_s["volumes.combine"], task_s),
        "volumes.combine.pairs_in": combine_pairs,
        "volumes.combine.useful_ratio": ratio(combine_out, combine_pairs),
        "volumes.combine.distinct_ratio": ratio(
            len(distinct["volumes.combine"]), calls["volumes.combine"]
        ),
        "volumes.mixed_volume_base_height.calls": calls["volumes.mixed_volume_base_height"],
        "volumes.mixed_volume_base_height.self_s": self_s["volumes.mixed_volume_base_height"],
        "volumes.mixed_volume_base_height.distinct_ratio": ratio(
            len(distinct["volumes.mixed_volume_base_height"]),
            calls["volumes.mixed_volume_base_height"],
        ),
        "volumes.mixed_volume_interp.calls": calls["volumes.mixed_volume_interp"],
        "volumes.mixed_volume_interp.total_s": total_s["volumes.mixed_volume_interp"],
        "inequalities.bm_check.calls": calls["inequalities.bm_check"],
        "inequalities.bm_check.self_s": self_s["inequalities.bm_check"],
        "inequalities.minkowski_check.calls": calls["inequalities.minkowski_check"],
        "inequalities.minkowski_check.self_s": self_s["inequalities.minkowski_check"],
        "numeric.root_combination.calls": calls["numeric.root_combination"],
        "numeric.root_combination.self_s": self_s["numeric.root_combination"],
        "numeric.format_fixed.self_s": self_s["numeric.format_fixed"],
        "homothety.detect_homothety.calls": calls["homothety.detect_homothety"],
        "homothety.detect_homothety.total_s": total_s["homothety.detect_homothety"],
        "homothety.functional_equality_sweep.total_s": total_s[
            "homothety.functional_equality_sweep"
        ],
        "homothety.homothetic_projections_conclude.total_s": total_s[
            "homothety.homothetic_projections_conclude"
        ],
        "reconstruction.recover_support_any.calls": directions,
        "reconstruction.recover_support_any.total_s": total_s[
            "reconstruction.recover_support_any"
        ],
        "reconstruction.oracle_calls_per_direction": ratio(oracle_calls, directions),
        "steiner.steiner_symmetral.calls": calls["steiner.steiner_symmetral"],
        "steiner.steiner_symmetral.total_s": total_s["steiner.steiner_symmetral"],
        "io.load_body.total_s": total_s["io.load_body"],
        "io.dumps_report.total_s": total_s["io.dumps_report"],
        "trace.task_s": task_s,
    }

    baselines = {}
    for key, rows in sorted(per_call.items(), key=lambda kv: str(kv[0])):
        label = "/".join(str(k) for k in key)
        baselines[label] = {
            "calls": len(rows),
            "median_ms": 1000 * _median([t for t, _ in rows]),
            "median_size": _median([n for _, n in rows]),
        }
    return m, baselines, ratio(own_total_s["volumes.combine"], own_total_s["task"])
