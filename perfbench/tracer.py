"""Outside-in tracing of isofold's layers, from the benchmark's own files.

Installing a Tracer wraps the public functions of each isofold module:
every module of the package that holds a wrapped function under its
name gets the wrapper rebound in its place, and methods are replaced on
their class.  Nothing under src/ changes, and uninstalling restores
every original object.

Layer boundaries record spans (name, start, end, parent span, job id)
kept in memory until the run ends.  Hot predicates and the number layer
record counters instead, since a span per call would cost more than the
call.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" names a class attribute.
SPANS = [
    ("isofold.extension", "extend_all_traced", "extension.extend_all_traced"),
    ("isofold.extension", "extend_step_traced", "extension.extend_step_traced"),
    ("isofold.extension", "check_nonexpansive", "extension.check_nonexpansive"),
    ("isofold.extension", "refit_region", "extension.refit_region"),
    ("isofold.extension", "fan_extension", "extension.fan_extension"),
    ("isofold.extension", "fold_boundary_region", "extension.fold_boundary_region"),
    ("isofold.extension", "cone_pieces", "extension.cone_pieces"),
    ("isofold.plmap", "assemble", "plmap.assemble"),
    ("isofold.plmap", "PLMap.locate", "plmap.locate"),
    ("isofold.plmap", "PLMap.validate", "plmap.validate"),
    ("isofold.verification", "audit_interpolation", "verification.audit_interpolation"),
    ("isofold.verification", "audit_lipschitz", "verification.audit_lipschitz"),
    ("isofold.verification", "audit_structure", "verification.audit_structure"),
    ("isofold.fileio", "parse_instance", "fileio.parse_instance"),
    ("isofold.fileio", "serialize_map", "fileio.serialize_map"),
    ("isofold.fileio", "parse_map", "fileio.parse_map"),
    ("isofold.svg", "render_svg", "svg.render_svg"),
    ("isofold.cli", "main", "cli.main"),
]

# (module, attribute, counter name); several functions may share a counter.
COUNTERS = [
    ("isofold.motions", "Motion.__eq__", "motions.Motion.eq"),
    ("isofold.motions", "from_three_points", "motions.from_three_points"),
    ("isofold.motions", "from_two_pairs", "motions.from_two_pairs"),
    ("isofold.geometry", "orientation", "geometry.orientation"),
    ("isofold.geometry", "clip_polygon_halfplane", "geometry.clip_polygon_halfplane"),
    ("isofold.geometry", "point_in_polygon", "geometry.point_in_polygon"),
    ("isofold.geometry", "segment_intersection", "geometry.segment_intersection"),
    ("isofold.exactreal", "add", "exactreal.arith"),
    ("isofold.exactreal", "sub", "exactreal.arith"),
    ("isofold.exactreal", "mul", "exactreal.arith"),
    ("isofold.exactreal", "div", "exactreal.arith"),
    ("isofold.exactreal", "sign", "exactreal.sign"),
    ("isofold.exactreal", "eval_interval", "exactreal.eval_interval"),
]

SPAN_NAMES = {name for _, _, name in SPANS}
CONSTRUCTION_SPAN = "extension.extend_all_traced"
LIPSCHITZ_SPAN = "verification.audit_lipschitz"


def _lookup(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _rebind(original, wrapper, owner, attr) -> list:
    """Put wrapper wherever the package holds original; returns undo list."""
    undo = []
    if isinstance(owner, type):
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return undo
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "isofold" or name.startswith("isofold.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, wrapper)
    return undo


STEP_COUNTERS = ("early_exit", "complement_pieces", "chords", "folded_chains",
                 "cone_triangles")


class Tracer:
    """Spans and counters for one run; install with ``installed()``.

    ``only`` restricts the wrapped set to the named spans (the set-up
    build uses it to keep just the construction summaries).  Targets the
    installed package lacks are skipped and listed in ``missing``; their
    metrics read 0.
    """

    def __init__(self, only=None):
        self.only = only
        self.job = None
        self.spans = []  # (name, start, end, parent index, job id)
        self.counts = defaultdict(int)
        self.constructions = []  # summed step counters per extend_all_traced call
        self.missing = []  # wrap targets this version of the package lacks
        self.assembled = [0, 0]  # pieces in, motions out
        self.serialized_bytes = 0
        self.lipschitz_points = [0, 0]  # point_in_polygon calls, accepted
        self.locate_seen = set()  # (job id, x, y) of every query point
        self._open = []  # indices of open spans
        self._open_names = []

    # --- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, open_ids, open_names = self.spans, self._open, self._open_names
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_ids[-1] if open_ids else -1
            open_ids.append(sid)
            open_names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
                open_names.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _point_in_polygon(self, fn):
        counts, open_names, tally = self.counts, self._open_names, self.lipschitz_points

        def wrapper(p, poly):
            counts["geometry.point_in_polygon"] += 1
            result = fn(p, poly)
            if open_names and open_names[-1] == LIPSCHITZ_SPAN:
                tally[0] += 1
                if result.name != "OUTSIDE":
                    tally[1] += 1
            return result

        return wrapper

    def _locate(self, fn):
        seen = self.locate_seen

        def located(self_map, p):
            seen.add((self.job, p.x, p.y))
            return fn(self_map, p)

        return self._span("plmap.locate", located)

    def _assemble(self, fn):
        tally = self.assembled

        def assemble(domain, pieces):
            pieces = list(pieces)
            out = fn(domain, pieces)
            tally[0] += len(pieces)
            tally[1] += len(out.motions)
            return out

        return self._span("plmap.assemble", assemble)

    def _after_construction(self, args, result):
        steps = result[1].steps
        summary = {key: sum(getattr(s, key) for s in steps) for key in STEP_COUNTERS}
        summary.update(job=self.job, steps=len(steps))
        self.constructions.append(summary)

    def _after_serialize(self, args, result):
        self.serialized_bytes += len(result.encode())

    def _wrapper_for(self, original, name):
        if name == "plmap.locate":
            return self._locate(original)
        if name == "plmap.assemble":
            return self._assemble(original)
        if name == "geometry.point_in_polygon":
            return self._point_in_polygon(original)
        if name in SPAN_NAMES:
            after = {
                CONSTRUCTION_SPAN: self._after_construction,
                "fileio.serialize_map": self._after_serialize,
            }.get(name)
            return self._span(name, original, after)
        return self._counter(name, original)

    @contextlib.contextmanager
    def installed(self):
        import isofold  # noqa: F401  (loads every module of the package)

        targets = SPANS if self.only is not None else SPANS + COUNTERS
        undo = []
        try:
            for module, attr, name in targets:
                if self.only is not None and name not in self.only:
                    continue
                try:
                    owner, key = _lookup(module, attr)
                    original = getattr(owner, key)
                except (KeyError, AttributeError):
                    self.missing.append(f"{module}.{attr}")
                    continue
                undo += _rebind(original, self._wrapper_for(original, name), owner, key)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # --- per-layer metrics --------------------------------------------------

    def metrics(self, jobs: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer numbers, per job where they are sums over the run."""
        spans = self.spans
        total = defaultdict(float)
        calls = defaultdict(int)
        step_children = 0.0
        recheck = 0.0
        locate_kind = defaultdict(float)
        kind_of = {}  # span index -> "construct", "audit" or "other"

        def kind(index):
            trail = []
            while index >= 0 and index not in kind_of:
                name = spans[index][0]
                if name.startswith("extension."):
                    kind_of[index] = "construct"
                    break
                if name.startswith("verification."):
                    kind_of[index] = "audit"
                    break
                trail.append(index)
                index = spans[index][3]
            found = kind_of.get(index, "other")
            for i in trail:
                kind_of[i] = found
            return found

        for name, start, end, parent, _ in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name == "extension.extend_step_traced":
                step_children += dur
            if name == "plmap.locate":
                locate_kind[kind(parent)] += dur
                if parent_name == CONSTRUCTION_SPAN:
                    recheck += dur

        per_job = 1.0 / jobs
        built = self.constructions

        def secs(value):
            return {"value": value * per_job, "unit": "s/job"}

        def count(value):
            return {"value": value * per_job, "unit": "1/job"}

        def frac(num, den):
            return {"value": num / den if den else 0.0, "unit": "fraction"}

        step = "extension.extend_step_traced"
        out = {
            "extension.extend_all_traced.s": secs(total[CONSTRUCTION_SPAN]),
            "extension.extend_step_traced.s": secs(total[step]),
            "extension.extend_step_traced.calls": count(calls[step]),
            "extension.extend_step_traced.self_s": secs(total[step] - step_children),
            "extension.refit_region.s": secs(total["extension.refit_region"]),
            "extension.fan_extension.s": secs(total["extension.fan_extension"]),
            "extension.cones.s": secs(
                total["extension.fold_boundary_region"] + total["extension.cone_pieces"]
            ),
            "extension.recheck.s": secs(recheck),
            "extension.check_nonexpansive.s": secs(total["extension.check_nonexpansive"]),
        }
        for key in STEP_COUNTERS:
            out[f"extension.trace.{key}"] = count(sum(c[key] for c in built))
        out.update({
            "plmap.assemble.s": secs(total["plmap.assemble"]),
            "plmap.assemble.pieces": count(self.assembled[0]),
            "plmap.assemble.motion_share": frac(self.assembled[1], self.assembled[0]),
            "plmap.locate.calls": count(calls["plmap.locate"]),
            "plmap.locate.construct.s": secs(locate_kind["construct"]),
            "plmap.locate.audit.s": secs(locate_kind["audit"]),
            "plmap.locate.distinct_frac": frac(len(self.locate_seen), calls["plmap.locate"]),
            "plmap.validate.s": secs(total["plmap.validate"]),
        })
        for name in dict.fromkeys(name for _, _, name in COUNTERS):
            out[f"{name}.calls"] = count(self.counts[name])
        out.update({
            "verification.audit_interpolation.s": secs(total["verification.audit_interpolation"]),
            "verification.audit_lipschitz.s": secs(total[LIPSCHITZ_SPAN]),
            "verification.audit_structure.s": secs(total["verification.audit_structure"]),
            "verification.lipschitz.accept_frac": frac(
                self.lipschitz_points[1], self.lipschitz_points[0]
            ),
            "fileio.parse_instance.s": secs(total["fileio.parse_instance"]),
            "fileio.serialize_map.s": secs(total["fileio.serialize_map"]),
            "fileio.serialize_map.bytes": {
                "value": self.serialized_bytes * per_job, "unit": "bytes/job",
            },
            "fileio.parse_map.s": secs(total["fileio.parse_map"]),
            "svg.render_svg.s": secs(total["svg.render_svg"]),
            "cli.main.s": secs(total["cli.main"]),
            "trace.overhead_frac": {
                "value": traced_wall / untraced_wall - 1.0, "unit": "fraction",
            },
        })
        return out
