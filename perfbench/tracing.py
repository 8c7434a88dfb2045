"""Per-layer tracing for the benchmark, installed from outside the package.

A :class:`Tracer` rebinds selected functions and methods of ``mannheim_lab``
to thin wrappers for the duration of a traced run and puts every original
back on :meth:`Tracer.uninstall`.  Two kinds of probe exist:

* span probes time each call, keep a call stack so that self time (duration
  minus the time covered by child spans) and same-name nesting depth are
  exact, and record ``(name, start, end, parent, op)`` in memory;
* count probes only count calls.

A module-level function is rebound in every ``mannheim_lab`` module that
binds it (``frenet_apparatus`` is imported into ``frenet``, ``mannheim``,
``indicatrix`` and ``cli``), so calls through any of those names are seen.
Targets that a later version of the package no longer has are skipped and
report zero.

This module imports only the standard library, so a traced CLI child can
time ``import mannheim_lab.cli`` without numpy being loaded in advance.
"""

from __future__ import annotations

import sys
import time
from array import array

PACKAGE = "mannheim_lab"

# (module, attribute path, metric name, probe kind).  Several targets may
# share one metric name; total time then counts only the outermost of them.
PROBES = (
    ("lorentz", "Vec3L.__post_init__", "lorentz.Vec3L.new", "count"),
    ("lorentz", "inner", "lorentz.inner", "count"),
    ("lorentz", "cross", "lorentz.cross", "count"),
    ("curve", "Curve.deriv", "curve.Curve.deriv", "span"),
    ("curve", "fd_weights", "curve.fd_weights", "span"),
    ("curve", "reparametrize_unit", "curve.reparametrize_unit", "span"),
    ("curve", "speed", "curve.speed", "count"),
    ("curve", "_ArcLengthTable.t_of_s", "curve.arc_table.lookups", "count"),
    ("curve", "_ArcLengthTable.s_of_t", "curve.arc_table.lookups", "count"),
    ("curve", "sample", "curve.sample", "span"),
    ("curve", "CurveSamples.to_csv", "curve.CurveSamples.to_csv", "span"),
    ("frenet", "frenet_apparatus", "frenet.frenet_apparatus", "span"),
    ("frenet", "_scalar_fd", "frenet._scalar_fd", "span"),
    ("frenet", "frenet_synthesize", "frenet.frenet_synthesize", "span"),
    ("frenet", "CubicHermiteSpline", "frenet.spline.evals", "spline"),
    ("mannheim", "MannheimPair.from_binormal_offset", "mannheim.pair_build", "span"),
    ("mannheim", "MannheimPair.from_normal_offset", "mannheim.pair_build", "span"),
    ("mannheim", "MannheimPair.from_shared_parameter", "mannheim.pair_build", "span"),
    ("mannheim", "exact_partner_pair", "mannheim.pair_build", "span"),
    ("mannheim", "MannheimPair.frames_at", "mannheim.MannheimPair.frames_at", "frames"),
    ("mannheim", "theta", "mannheim.theta", "count"),
    ("mannheim", "mannheim_residual", "mannheim.mannheim_residual", "count"),
    ("mannheim", "verify_distance", "mannheim.verify_distance", "span"),
    ("mannheim", "verify_torsion_relation", "mannheim.verify_torsion_relation", "span"),
    ("mannheim", "verify_linear_relation", "mannheim.verify_linear_relation", "span"),
    ("mannheim", "verify_frame_relations", "mannheim.verify_frame_relations", "span"),
    ("mannheim", "verify_torsion_square", "mannheim.verify_torsion_square", "span"),
    ("mannheim", "verify_ratio_nonconstant", "mannheim.verify_ratio_nonconstant", "span"),
    (
        "indicatrix",
        "verify_indicatrix_relations",
        "indicatrix.verify_indicatrix_relations",
        "span",
    ),
    ("indicatrix", "Indicatrix.samples", "indicatrix.Indicatrix.samples", "span"),
    ("expr", "parse_expr", "expr.parse_expr", "span"),
    ("expr", "Expr.eval", "expr.Expr.eval", "subclass_count"),
    ("reports", "VerificationReport.to_json_dict", "reports.emit", "span"),
    ("cli", "_emit_json", "reports.emit", "span"),
    ("cli", "main", "cli.main", "span"),
)

# Time spent in the second span inside the first is not charged to the first.
EXCLUDE = {"mannheim.pair_build": "frenet.frenet_synthesize"}

OP_SPAN = "op"


class Tracer:
    """Span and counter collection with exact self time.

    Single-threaded by design: the benchmark's workloads have one caller.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.outer_total: list[float] = []
        self.self_time: list[float] = []
        self.max_depth: list[int] = []
        self.excluded: list[float] = []
        self._depth: list[int] = []
        self.counts: dict[str, int] = {}
        self.frames_hits = 0
        # span records, indexed by span id
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []
        self.op_id = -1
        self._undo: list[tuple[object, str, object, bool]] = []
        self._exclude = {}  # outer name index -> inner name index
        self._t0 = time.perf_counter()

    # -- collection -------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            for lst, zero in (
                (self.calls, 0),
                (self.outer_total, 0.0),
                (self.self_time, 0.0),
                (self.max_depth, 0),
                (self.excluded, 0.0),
                (self._depth, 0),
            ):
                lst.append(zero)
        return idx

    def enter(self, name: str) -> None:
        self._enter(self._name(name))

    def exit(self) -> None:
        self._exit(time.perf_counter())

    def _enter(self, idx: int) -> None:
        depth = self._depth[idx] + 1
        self._depth[idx] = depth
        if depth > self.max_depth[idx]:
            self.max_depth[idx] = depth
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start - self._t0)
        self._stack.append([idx, start, 0.0, sid])

    def _exit(self, end: float) -> None:
        idx, start, child, sid = self._stack.pop()
        dur = end - start
        self.span_end[sid] = end - self._t0
        self.calls[idx] += 1
        self.self_time[idx] += dur - child
        depth = self._depth[idx] - 1
        self._depth[idx] = depth
        if depth == 0:
            self.outer_total[idx] += dur
            outer = self._exclude.get(idx)
            if outer is not None and self._depth[outer] > 0:
                self.excluded[outer] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.enter(OP_SPAN)

    def end_op(self) -> None:
        self.exit()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        idx = self._name(name)
        enter, exit_, clock = self._enter, self._exit, time.perf_counter

        def traced(*args, **kwargs):
            enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(clock())

        return traced

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _frames_wrapper(self, fn, name: str):
        traced = self._span_wrapper(fn, name)
        tracer = self

        def frames_at(pair, s):
            if s in getattr(pair, "_frame_cache", ()):
                tracer.frames_hits += 1
            return traced(pair, s)

        return frames_at

    def _spline_class(self, cls, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        class CountingSpline(cls):
            def __call__(self, *args, **kwargs):
                counts[name] += 1
                return super().__call__(*args, **kwargs)

        CountingSpline.__name__ = cls.__name__
        return CountingSpline

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr: str, value, original) -> None:
        had = attr in vars(owner) if isinstance(owner, type) else True
        self._undo.append((owner, attr, original, had))
        setattr(owner, attr, value)

    def _wrap(self, kind: str, fn, name: str):
        if kind == "span":
            return self._span_wrapper(fn, name)
        if kind == "frames":
            return self._frames_wrapper(fn, name)
        if kind == "spline":
            return self._spline_class(fn, name)
        return self._count_wrapper(fn, name)

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement, original)

    def install(self, extra=()) -> None:
        """Wrap every probe target found in the imported package.

        ``extra`` holds ``(owner, attribute, metric name)`` span targets
        outside the package, such as the benchmark's own emission helper.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod_name, path, name, kind in PROBES:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or not hasattr(owner, attr):
                continue
            if kind == "subclass_count":
                self._install_subclasses(mod, owner, attr, name)
                continue
            if owner is mod:
                original = getattr(mod, attr)
                self._rebind_everywhere(original, self._wrap(kind, original, name))
                continue
            raw = vars(owner).get(attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(kind, raw.__func__, name))
                self._set(owner, attr, wrapped, raw)
            elif raw is not None:
                self._set(owner, attr, self._wrap(kind, raw, name), raw)
        for owner, attr, name in extra:
            self._set(owner, attr, self._span_wrapper(getattr(owner, attr), name), getattr(owner, attr))
        for outer, inner in EXCLUDE.items():
            self._exclude[self._name(inner)] = self._name(outer)

    def _install_subclasses(self, mod, base: type, attr: str, name: str) -> None:
        for value in list(vars(mod).values()):
            if isinstance(value, type) and issubclass(value, base) and attr in vars(value):
                raw = vars(value)[attr]
                self._set(value, attr, self._count_wrapper(raw, name), raw)

    def uninstall(self) -> None:
        """Put every original binding back, in reverse order."""
        while self._undo:
            owner, attr, original, had = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates by name, JSON-serializable and additive across runs."""
        spans = {}
        for idx, name in enumerate(self.names):
            spans[name] = {
                "calls": self.calls[idx],
                "total_s": self.outer_total[idx] - self.excluded[idx],
                "self_s": self.self_time[idx],
                "max_depth": self.max_depth[idx],
            }
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "frames_hits": self.frames_hits,
            "span_records": len(self.span_name),
        }

    def dump(self, path: str) -> None:
        """Write every span record to ``path`` as a numpy ``.npz`` archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum per-process summaries; depth takes the maximum."""
    out = {"spans": {}, "counts": {}, "frames_hits": 0, "span_records": 0}
    for summ in summaries:
        for name, stats in summ["spans"].items():
            acc = out["spans"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_depth": 0}
            )
            acc["calls"] += stats["calls"]
            acc["total_s"] += stats["total_s"]
            acc["self_s"] += stats["self_s"]
            acc["max_depth"] = max(acc["max_depth"], stats["max_depth"])
        for name, n in summ["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + n
        out["frames_hits"] += summ["frames_hits"]
        out["span_records"] += summ["span_records"]
    return out
