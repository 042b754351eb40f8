"""The traced run: spans and counts around the library's public functions.

The library is not changed.  install() replaces every module-level
binding of each listed function across cycflats.* (modules import names
directly, so ops, build and cli each hold their own `validate`) and the
listed methods on Matroid, and uninstall() puts the originals back.
Spans are kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs recorded as spans, each giving <m>.<f>.calls
# and <m>.<f>.self_s.
SPANNED = [
    ("lattices", "family_lattice_tables"),
    ("matroid", "validate"),
    ("build", "random_cw2_matroid"),
    ("ops", "dual"),
    ("ops", "direct_sum"),
    ("freeprod", "free_product"),
    ("build", "realize_lattice"),
    ("build", "nested_from_sequence"),
    ("matroid", "Matroid.rank_table"),
    ("ops", "minor"),
    ("matroid", "cyclic_flats_recompute"),
    ("ops", "truncate"),
    ("tutte", "rank_gen_brute"),
    ("tutte", "rank_gen_convolution"),
    ("tutte", "tutte_from_rank_gen"),
    ("ops", "has_minor"),
    ("ops", "is_isomorphic"),
    ("lattices", "poset_isomorphic"),
    ("build", "all_lattices"),
    ("widths", "ingleton_transversal"),
    ("widths", "cyclic_width"),
    ("lattices", "width_of_family"),
    ("cli", "main"),
    ("io", "doc_to_ranked_family"),
    ("io", "emit_matroid"),
    ("lattices", "lattice_from_covers"),
]

# Hot functions that are only counted: a span per call would cost more
# than the call.
COUNTED = [("matroid", "Matroid.rank"), ("groundsets", "subset_key")]

# Extra counts: name -> unit and better direction.
EXTRA = {
    "matroid.validate.rejected": ("count", "lower"),
    "build.random_cw2_matroid.validate_calls": ("count", "lower"),
    "matroid.Matroid.rank_table.entries": ("count", "lower"),
    "ops.minor.entries": ("count", "lower"),
    "tutte.rank_gen_brute.entries": ("count", "lower"),
    "ops.has_minor.minor_calls": ("count", "lower"),
}

# Ratios: name -> (numerator, base, better).
RATIOS = {
    "lattices.family_lattice_tables.per_validate":
        ("lattices.family_lattice_tables.calls", "matroid.validate.calls",
         "lower"),
    "build.random_cw2_matroid.accepted_per_validate":
        ("build.random_cw2_matroid.calls",
         "build.random_cw2_matroid.validate_calls", "higher"),
}


def metric_names():
    """Every per-layer metric this module produces: (name, unit, better)."""
    out = []
    for mod, fn in SPANNED:
        out.append((f"{mod}.{fn}.calls", "count", "lower"))
        out.append((f"{mod}.{fn}.self_s", "s", "lower"))
    for mod, fn in COUNTED:
        out.append((f"{mod}.{fn}.calls", "count", "lower"))
    for name, (unit, better) in EXTRA.items():
        out.append((name, unit, better))
    for name, (_, _, better) in RATIOS.items():
        out.append((name, "ratio", better))
    return out


class Tracer:
    """Span recorder.  Self time of a span is its duration minus the time
    covered by its direct child spans."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in SPANNED]
        self.spans = []          # (id, parent id, trace id, name index, t0, t1)
        self.stack = []          # [span id, child seconds]
        self.active = Counter()  # span name -> open spans
        self.calls = Counter()
        self.extra = Counter()
        self.self_raw = Counter()   # current job, wall seconds
        self.self_s = Counter()     # finished jobs, reference seconds
        self.trace_id = 0
        self._next_id = 1
        self._restore = []

    # -- jobs ------------------------------------------------------------------

    def begin_job(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.self_raw.clear()

    def end_job(self, scale: float) -> None:
        """Fold the job's self times in, scaled to reference speed."""
        for name, s in self.self_raw.items():
            self.self_s[name] += s * scale
        self.self_raw.clear()

    # -- wrappers --------------------------------------------------------------

    def _span(self, idx: int, fn, before=None, after=None):
        name = self.names[idx]
        stack, active, calls = self.stack, self.active, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            state = before(args) if before else None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                self.self_raw[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self.spans.append((sid, parent, self.trace_id, idx, t0, t1))
            if after:
                after(args, result, state)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    def _hooks(self, name: str):
        """(before, after) for the functions that carry extra counts."""
        extra, active = self.extra, self.active
        if name == "matroid.validate":
            from cycflats.matroid import AxiomViolation

            def after(args, result, _):
                if isinstance(result, AxiomViolation):
                    extra["matroid.validate.rejected"] += 1
                if active["build.random_cw2_matroid"]:
                    extra["build.random_cw2_matroid.validate_calls"] += 1
            return None, after
        if name == "matroid.Matroid.rank_table":
            def before(args):
                return args[0]._table is None

            def after(args, result, built):
                if built:
                    extra["matroid.Matroid.rank_table.entries"] += len(result)
            return before, after
        if name == "ops.minor":
            def after(args, result, _):
                extra["ops.minor.entries"] += 1 << len(result.ground)
                if active["ops.has_minor"]:
                    extra["ops.has_minor.minor_calls"] += 1
            return None, after
        if name == "tutte.rank_gen_brute":
            def after(args, result, _):
                extra["tutte.rank_gen_brute.entries"] += 1 << len(args[0].ground)
            return None, after
        return None, None

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        import cycflats.cli  # noqa: F401  (loads every module)
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "cycflats" or name.startswith("cycflats.")]
        for idx, (mod, fn) in enumerate(SPANNED):
            name = f"{mod}.{fn}"
            self._replace(mod, fn, modules,
                          lambda orig, i=idx, n=name:
                          self._span(i, orig, *self._hooks(n)))
        for mod, fn in COUNTED:
            name = f"{mod}.{fn}"
            self._replace(mod, fn, modules,
                          lambda orig, n=name: self._counter(n, orig))

    def _replace(self, mod: str, fn: str, modules, make) -> None:
        home = sys.modules[f"cycflats.{mod}"]
        if "." in fn:
            cls_name, attr = fn.split(".")
            owner = getattr(home, cls_name)
            orig = owner.__dict__[attr]
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
            return
        orig = getattr(home, fn)
        wrapper = make(orig)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def merge(self, part: dict, scale: float, trace_id: int) -> None:
        """Fold in the dump() of a traced child process."""
        self.calls.update(part["calls"])
        self.extra.update(part["extra"])
        for name, s in part["self_raw"].items():
            self.self_s[name] += s * scale
        base = self._next_id
        for sid, parent, _, idx, t0, t1 in part["spans"]:
            self.spans.append((sid + base, parent + base if parent else 0,
                               trace_id, idx, t0, t1))
            self._next_id = max(self._next_id, sid + base + 1)

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "extra": dict(self.extra),
                "self_raw": dict(self.self_raw), "spans": self.spans}

    def metrics(self) -> dict:
        values = {}
        for mod, fn in SPANNED:
            name = f"{mod}.{fn}"
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
        for mod, fn in COUNTED:
            values[f"{mod}.{fn}.calls"] = self.calls[f"{mod}.{fn}"]
        for name in EXTRA:
            values[name] = self.extra[name]
        for name, (num, base, _) in RATIOS.items():
            values[name] = values[num] / values[base] if values[base] else 0.0
        return values

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "parent", "trace", "name", "t0", "t1"],
                       "spans": self.spans}, fh)
