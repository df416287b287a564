"""Span tracing of blocksets' layers, installed from outside the package.

`Tracer.install` replaces each public layer function with a wrapper wherever
a module binds it (so `search.blockset_points` and `blocks.blockset_points`
are both wrapped) and wraps colouring methods on their classes.  Each wrapped
call records a span (id, parent id, name, start, duration) in memory; hot
leaf calls (`Word` construction, lattice `colour_id`) are counted only.
`uninstall` restores the originals.  Spans are written out once, by the
caller, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

import blocksets
from blocksets import blocks, cli, colourings, lattice, search, words

MODULES = (blocksets, words, blocks, colourings, search, lattice, cli)
SCANS = ("search.verify_absence", "search.find_monochromatic")


def _add_families(tracer: "Tracer", result: list) -> None:
    tracer.counts["blocks.families"] += len(result)


def _add_report(tracer: "Tracer", report: search.SearchReport) -> None:
    tracer.counts["search.examined"] += report.examined
    tracer.counts["search.hits"] += len(report.found)


def _add_hit(tracer: "Tracer", hit: Optional[tuple]) -> None:
    tracer.counts["search.hits"] += hit is not None


def _add_examined(tracer: "Tracer", count: int) -> None:
    tracer.counts["search.examined"] += count


def _add_table(tracer: "Tracer", table: Any) -> None:
    tracer.counts["colourings.dense_table.bytes"] += 0 if table is None else table.nbytes


# (module, function name, span name, result hook)
FUNCTIONS = (
    (blocks, "enumerate_block_families", "blocks.enumerate_block_families", _add_families),
    (blocks, "blockset_points", "blocks.blockset_points", None),
    (blocks, "enumerate_placements", "blocks.enumerate_placements", None),
    (colourings, "random_table_colouring", "colourings.random_table_colouring", None),
    (search, "verify_absence", "search.verify_absence", _add_report),
    (search, "find_monochromatic", "search.find_monochromatic", _add_hit),
    (search, "placements_examined_until", "search.placements_examined_until", _add_examined),
    (search, "witness_search", "search.witness_search", None),
    (lattice, "search_generated_ball", "lattice.search_generated_ball", None),
    (lattice, "random_lattice_colouring", "lattice.random_lattice_colouring", None),
    (cli, "parse_and_dispatch", "cli.parse_and_dispatch", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [0]  # span ids; 0 is the root
        self._next_id = 1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, duration))
                tracer.counts[name + ".calls"] += 1
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def _timed_generator(self, name: str, fn: Callable) -> Callable:
        """A generator's span covers only the time spent inside its own steps."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            start = time.perf_counter()
            busy = 0.0
            inner = fn(*args, **kwargs)
            try:
                while True:
                    tracer._stack.append(sid)
                    step = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - step
                        tracer._stack.pop()
                    yield item
            finally:
                tracer.spans.append((sid, parent, name, start, busy))
                tracer.counts[name + ".calls"] += 1

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module, fname, name, hook in FUNCTIONS:
            original = getattr(module, fname)
            if inspect.isgeneratorfunction(original):
                wrapper = self._timed_generator(name, original)
            else:
                wrapper = self._timed(name, original, hook)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
        for cls in _classes(colourings, colourings.Colouring):
            if "colour_id" in cls.__dict__:
                self._replace(cls, "colour_id", self._timed("colourings.colour_id", cls.__dict__["colour_id"], None))
            if "dense_table" in cls.__dict__:
                self._replace(
                    cls, "dense_table", self._timed("colourings.dense_table", cls.__dict__["dense_table"], _add_table)
                )
        for cls in _classes(lattice, lattice.LatticeColouring):
            if "colour_id" in cls.__dict__:
                self._replace(cls, "colour_id", self._counted("lattice.colour_id.calls", cls.__dict__["colour_id"]))
        self._replace(words.Word, "__post_init__", self._counted("words.Word.count", words.Word.__post_init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (s) and counts for the spans recorded so far.

        A span's self time is its duration minus its direct children's.
        """
        name_of = {sid: name for sid, _, name, _, _ in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, duration in self.spans:
            child_time[parent] += duration
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        reverify = 0.0
        for sid, parent, name, _, duration in self.spans:
            total[name] += duration
            own[name] += duration - child_time[sid]
            if name in ("blocks.blockset_points", "colourings.colour_id") and name_of.get(parent) in SCANS:
                reverify += duration
        c = self.counts
        examined = c["search.examined"]
        return {
            "search.scan_self_s": sum(own[s] for s in SCANS),
            "search.examined": examined,
            "search.hits": c["search.hits"],
            "search.hit_ratio": c["search.hits"] / examined if examined else 0.0,
            "blocks.enumerate_block_families.s": total["blocks.enumerate_block_families"],
            "blocks.families": c["blocks.families"],
            "search.reverify_s": reverify,
            "blocks.blockset_points.calls": c["blocks.blockset_points.calls"],
            "colourings.colour_id.calls": c["colourings.colour_id.calls"],
            "words.Word.count": c["words.Word.count"],
            "colourings.dense_table.s": total["colourings.dense_table"],
            "colourings.dense_table.calls": c["colourings.dense_table.calls"],
            "colourings.dense_table.bytes": c["colourings.dense_table.bytes"],
            "search.find_monochromatic.s": total["search.find_monochromatic"],
            "search.placements_examined_until.s": total["search.placements_examined_until"],
            "cli.self_s": own["cli.parse_and_dispatch"],
            "search.witness_search.s": total["search.witness_search"],
            "search.witness_self_s": own["search.witness_search"],
            "blocks.enumerate_placements.s": total["blocks.enumerate_placements"],
            "lattice.search_generated_ball.s": total["lattice.search_generated_ball"],
            "lattice.colour_id.calls": c["lattice.colour_id.calls"],
        }


def _classes(module: Any, base: type) -> list[type]:
    return [v for v in vars(module).values() if isinstance(v, type) and issubclass(v, base)]


COUNTS = (
    "search.examined",
    "search.hits",
    "blocks.families",
    "blocks.blockset_points.calls",
    "colourings.colour_id.calls",
    "words.Word.count",
    "colourings.dense_table.calls",
    "colourings.dense_table.bytes",
    "lattice.colour_id.calls",
)


def combine(reps: list[dict[str, float]], factor: float) -> dict[str, float]:
    """Per-layer metrics over the traced reps; `factor` rescales times.

    Times are medians; counts come from the first rep, which is the cold one,
    because they must repeat exactly across runs.
    """
    out = {}
    for key in reps[0]:
        if key in COUNTS or key == "search.hit_ratio":
            out[key] = reps[0][key]
        else:
            out[key] = statistics.median(r[key] for r in reps) * factor
    return out
