"""Spans around quasilat's public calls, recorded from outside the package.

Each traced call is wrapped where its callers look it up: the defining
module, every quasilat module that imported the name, and the class for
methods. A span records (label, layer metric, start, end, parent) in memory;
self times and counts are derived when the run ends.
"""

import sys
import time
from collections import defaultdict

# layer metric -> [(module, attribute)], attribute "Class.method" for methods
TIMED = {
    "pointset.generate_s": [
        ("quasilat.pointset", "lattice_points_in_box"),
        ("quasilat.pointset", "model_set_generate"),
        ("quasilat.pointset", "symmetrize"),
        ("quasilat.pointset", "sumset_truncated"),
        ("quasilat.pointset", "from_points"),
        ("quasilat.pointset", "regenerate"),
        ("quasilat.pointset", "PointSet.restrict"),
        ("quasilat.pointset", "PointSet.translate"),
    ],
    "pointset.io_s": [
        ("quasilat.pointset", "save_pointset"),
        ("quasilat.pointset", "load_pointset"),
    ],
    "density.scan_s": [
        ("quasilat.density", "density_scan"),
        ("quasilat.density", "translate_count_grid"),
        ("quasilat.density", "count_in_translate"),
    ],
    "approxcheck.cover_s": [("quasilat.approxcheck", "find_cover_set")],
    "approxcheck.verify_s": [("quasilat.approxcheck", "verify_cover")],
    "approxcheck.delone_s": [("quasilat.approxcheck", "delone_report")],
    "gabor.synthesis_s": [("quasilat.gabor", "GaborSystem.synthesis_matrix")],
    "gabor.gram_s": [("quasilat.gabor", "gram_matrix")],
    "gabor.frame_s": [("quasilat.gabor", "frame_bounds")],
    "gabor.riesz_dual_s": [
        ("quasilat.gabor", "riesz_bounds"),
        ("quasilat.gabor", "biorthogonal_dual"),
        ("quasilat.gabor", "uniform_min_delta"),
    ],
    "gabor.hap_s": [("quasilat.gabor", "hap_residual")],
    "gabor.complete_s": [("quasilat.gabor", "completeness_residual")],
    "gabor.hermite_s": [("quasilat.gabor", "hermite_basis")],
    "padic.enumerate_s": [
        ("quasilat.padic", "PAdicModelSet.build"),
        ("quasilat.padic", "enumerate_model_set"),
    ],
    "padic.density_s": [("quasilat.padic", "padic_density")],
    "padic.cover_s": [("quasilat.padic", "padic_cover_set")],
    "scenarios.parse_s": [("quasilat.scenarios", "parse_scenario")],
    "scenarios.run_self_s": [("quasilat.scenarios", "run_scenario")],
    "scenarios.report_s": [
        ("quasilat.scenarios", "Report.to_json"),
        ("quasilat.scenarios", "Report.verdict_lines"),
    ],
    "cli.self_s": [("quasilat.cli", "main")],
}

COUNTS = ("pointset.points_out", "approxcheck.cover_k", "gabor.atoms",
          "gabor.grid_entries", "padic.elements", "padic.cover_k")

# Order of the per-layer metrics in every traced result.
PER_LAYER = [
    "pointset.generate_s", "pointset.io_s", "pointset.points_out",
    "density.scan_s", "approxcheck.cover_s", "approxcheck.verify_s",
    "approxcheck.delone_s", "approxcheck.cover_k", "gabor.synthesis_s",
    "gabor.gram_s", "gabor.frame_s", "gabor.riesz_dual_s", "gabor.hap_s",
    "gabor.complete_s", "gabor.hermite_s", "gabor.atoms", "gabor.grid_entries",
    "padic.enumerate_s", "padic.density_s", "padic.cover_s", "padic.elements",
    "padic.cover_k", "scenarios.parse_s", "scenarios.run_self_s",
    "scenarios.report_s", "cli.self_s"]


def _label(attr, args):
    """Span label; run_scenario spans carry the scenario name for the per-scenario split."""
    if attr == "run_scenario" and args:
        return f"run_scenario:{getattr(args[0], 'name', '?')}"
    return attr


def _counts(attr, args, result, before):
    """Counts attached to one span, from the call's arguments and result."""
    if attr in ("lattice_points_in_box", "model_set_generate", "symmetrize",
                "sumset_truncated", "from_points", "regenerate",
                "PointSet.restrict", "PointSet.translate"):
        return {"pointset.points_out": len(result)}
    if attr == "find_cover_set":
        return {"approxcheck.cover_k": int(result.k)}
    if attr == "padic_cover_set":
        return {"padic.cover_k": int(result.k)}
    if attr == "enumerate_model_set":
        return {"padic.elements": len(result)}
    if attr == "GaborSystem.synthesis_matrix" and before:
        atoms = len(args[0].points)
        return {"gabor.atoms": atoms,
                "gabor.grid_entries": atoms * args[0].window.grid.size}
    return None


class Tracer:
    """Install wrappers, collect spans, restore the originals on exit."""

    def __init__(self):
        self.spans = []      # [label, metric, start, end, parent, counts]
        self._stack = []
        self._undo = []

    def _wrap(self, func, attr, metric):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # a synthesis call only does work while the matrix is not cached
            before = (attr == "GaborSystem.synthesis_matrix"
                      and args[0]._matrix is None)
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append([_label(attr, args), metric, time.perf_counter(), None,
                          parent, None])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            spans[idx][5] = _counts(attr, args, result, before)
            return result

        traced.__wrapped__ = func
        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "quasilat" or n.startswith("quasilat.")]
        for metric, targets in TIMED.items():
            for modname, attr in targets:
                mod = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, attr, metric))
                    else:
                        new = self._wrap(raw, attr, metric)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(mod, attr)
                new = self._wrap(orig, attr, metric)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, name, orig))
                            setattr(m, name, new)
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
        return False

    def summary(self, start, end):
        """Per-layer self times and counts, uncovered time and per-scenario times for spans in [start, end]."""
        picked = [i for i, s in enumerate(self.spans) if start <= s[2] and s[3] <= end]
        child_time = defaultdict(float)
        for i in picked:
            parent = self.spans[i][4]
            if parent is not None:
                child_time[parent] += self.spans[i][3] - self.spans[i][2]
        values = {m: 0.0 for m in TIMED}
        values.update({c: 0 for c in COUNTS})
        covered = 0.0
        per_scenario = {}
        for i in picked:
            label, metric, t0, t1, parent, counts = self.spans[i]
            values[metric] += (t1 - t0) - child_time[i]
            if parent is None:
                covered += t1 - t0
            if label.startswith("run_scenario:"):
                per_scenario[label.split(":", 1)[1]] = t1 - t0
            # points_out counts what the generators hand to other layers, so
            # a generator called from inside another one is not counted twice
            nested = (parent is not None
                      and self.spans[parent][1] == "pointset.generate_s")
            for key, n in (counts or {}).items():
                if not (key == "pointset.points_out" and nested):
                    values[key] += n
        return {"layers": values, "uncovered_s": (end - start) - covered,
                "per_scenario_s": per_scenario, "spans": len(picked)}

    def dump(self):
        return [{"label": s[0], "metric": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "counts": s[5]} for s in self.spans]
