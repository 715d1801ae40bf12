"""In-memory span tracing for the benchmark's traced runs.

``install`` replaces the public centlat functions listed in ``LAYERS`` by
timing wrappers. It patches every module attribute that holds the original
function, including names other centlat modules imported, so calls made
inside the package also open spans and nested calls become child spans.
``uninstall`` puts the originals back. Untraced runs never call ``install``.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the id of the benchmark operation
it belongs to. Work counters are computed after a wrapped call returns; the
time that takes is recorded as a ``trace.counters`` span, so it is not
charged to the caller's self time.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager


class DeadlineExceeded(Exception):
    """Raised inside an operation that ran past its deadline."""


# layer -> (module, public functions timed as that layer)
LAYERS = {
    "core.validate": ("centlat.core", ("from_multiplication_table",)),
    "core.all_subgroups": ("centlat.core", ("all_subgroups",)),
    "core.centralizer": ("centlat.core", ("centralizer",)),
    "core.commutator_set": ("centlat.core", ("commutator_set",)),
    "core.closure": ("centlat.core", ("closure",)),
    "families.build": (
        "centlat.families",
        ("make_family", "direct_product", "semidirect_cyclic", "cover_group"),
    ),
    "homs.quotient": ("centlat.homs", ("quotient",)),
    "homs.crh_criterion": ("centlat.homs", ("crh_central_kernel_criterion",)),
    "homs.crh_definitional": ("centlat.homs", ("is_centralizer_respecting",)),
    "homs.group_isomorphic": ("centlat.homs", ("group_isomorphic",)),
    "homs.hom_from_map": ("centlat.homs", ("hom_from_map",)),
    "lattice.build": ("centlat.lattice", ("build_centralizer_lattice",)),
    "lattice.induced_map": ("centlat.lattice", ("induced_map",)),
    "lattice.is_lattice_hom": ("centlat.lattice", ("is_lattice_hom",)),
    "lattice.lattices_isomorphic": ("centlat.lattice", ("lattices_isomorphic",)),
    "lattice.export": ("centlat.lattice", ("lattice_to_json", "lattice_to_dot")),
    "expr.parse": ("centlat.expr", ("parse_group_expr",)),
    "expr.eval": ("centlat.expr", ("eval_group_expr",)),
}

# spans the CLI runner opens itself, around the import and around main()
RUNNER_SPANS = ("cli.import", "cli.main")

# work counters per layer, on top of the self_s and calls every span name gets
COUNTERS = {
    "core.validate": ("cells",),
    "core.all_subgroups": ("subgroups", "hit_ratio"),
    "homs.crh_criterion": ("pairs_checked", "fail", "not_central"),
    "homs.crh_definitional": ("subgroups_swept", "fail"),
    "homs.crh": ("disagree",),
    "homs.group_isomorphic": ("found", "timeouts"),
    "lattice.build": ("nodes",),
    "lattice.lattices_isomorphic": ("found", "timeouts"),
    "lattice.export": ("bytes",),
}

OVERHEAD = "trace.counters"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.op = -1
        # groups already enumerated and homomorphisms already swept, to tell
        # a repeat call (served from the library's cache) from new work
        self.enumerated: weakref.WeakSet = weakref.WeakSet()
        self.swept: weakref.WeakSet = weakref.WeakSet()
        self.originals: dict = {}
        self._patched: list = []

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def _open(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: float, end: float, parent: int) -> None:
        self.stack.pop()
        self.spans[index] = (name, start, end, parent, self.op)

    @contextmanager
    def span(self, name: str):
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, time.perf_counter(), parent)

    def merge(self, doc: dict, op: int) -> None:
        """Add a trace written by ``dump`` elsewhere (a CLI child) under operation ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op))
        for name, n in doc["counts"].items():
            self.counts[name] += n

    def dump(self, path) -> None:
        """Write spans and counters as JSON, gzip-compressed when ``path`` ends in .gz."""
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f, separators=(",", ":"))


def self_times(spans) -> dict[str, list[float]]:
    """Per span name: [self seconds, calls].

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested, so the children never overlap.
    ``trace.counters`` spans are subtracted from their parent but not reported.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if name == OVERHEAD:
            continue
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += end - start - covered[i]
        entry[1] += 1
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every ``module.function.stat`` value of a traced run, 0 when unused."""
    times = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name in (*LAYERS, *RUNNER_SPANS):
        self_s, calls = times.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    counts = tracer.counts
    for layer, stats in COUNTERS.items():
        for stat in stats:
            out[f"{layer}.{stat}"] = counts.get(f"{layer}.{stat}", 0)
    calls = out["core.all_subgroups.calls"]
    out["core.all_subgroups.hit_ratio"] = counts.get("core.all_subgroups.hits", 0) / calls if calls else 0.0
    out["cli.process_s"] = counts.get("cli.process_s", 0.0)
    return out


# ---------------------------------------------------------------------------
# counters: ``before`` runs ahead of the call, ``after`` once it returned


def _before_all_subgroups(tracer, args, kwargs):
    return args[0] in tracer.enumerated


def _after_all_subgroups(tracer, args, kwargs, result, hit):
    if hit:
        tracer.add("core.all_subgroups.hits")
    else:
        tracer.enumerated.add(args[0])
        tracer.add("core.all_subgroups.subgroups", len(result))


def _after_validate(tracer, args, kwargs, result, _):
    tracer.add("core.validate.cells", result.order * result.order)


def _after_criterion(tracer, args, kwargs, result, _):
    n = args[0].source.order
    if result.ok:
        tracer.add("homs.crh_criterion.pairs_checked", n * n)
    else:
        a, b = result.witness_pair
        tracer.add("homs.crh_criterion.pairs_checked", a * n + b + 1)
        tracer.add("homs.crh_criterion.fail")


def _before_definitional(tracer, args, kwargs):
    return args[0] in tracer.swept


def _after_definitional(tracer, args, kwargs, result, cached):
    hom = args[0]
    if not result.ok:
        tracer.add("homs.crh_definitional.fail")
    if cached:
        return
    tracer.swept.add(hom)
    subgroups = tracer.originals["all_subgroups"](hom.source, *args[1:2], **kwargs)
    if result.ok:
        swept = len(subgroups)
    else:
        members = result.witness.subgroup
        swept = next(i for i, s in enumerate(subgroups) if s.members == members) + 1
    tracer.add("homs.crh_definitional.subgroups_swept", swept)


def _after_found(layer):
    def after(tracer, args, kwargs, result, _):
        tracer.add(f"{layer}.found", result is not None)

    return after


def _after_build(tracer, args, kwargs, result, _):
    tracer.add("lattice.build.nodes", len(result.nodes))


def _after_export(tracer, args, kwargs, result, _):
    text = result if isinstance(result, str) else json.dumps(result, indent=2)
    tracer.add("lattice.export.bytes", len(text.encode("utf-8")))


_BEFORE = {
    "core.all_subgroups": _before_all_subgroups,
    "homs.crh_definitional": _before_definitional,
}
_AFTER = {
    "core.validate": _after_validate,
    "core.all_subgroups": _after_all_subgroups,
    "homs.crh_criterion": _after_criterion,
    "homs.crh_definitional": _after_definitional,
    "homs.group_isomorphic": _after_found("homs.group_isomorphic"),
    "lattice.build": _after_build,
    "lattice.lattices_isomorphic": _after_found("lattice.lattices_isomorphic"),
    "lattice.export": _after_export,
}
_ON_ERROR = {
    ("homs.crh_criterion", "KernelNotCentralError"): "homs.crh_criterion.not_central",
    ("homs.group_isomorphic", "DeadlineExceeded"): "homs.group_isomorphic.timeouts",
    ("lattice.lattices_isomorphic", "DeadlineExceeded"): "lattice.lattices_isomorphic.timeouts",
}


def _wrap(tracer: Tracer, layer: str, fn):
    before, after = _BEFORE.get(layer), _AFTER.get(layer)
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        state = before(tracer, args, kwargs) if before else None
        index, parent = tracer._open()
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer._close(index, layer, start, clock(), parent)
            key = _ON_ERROR.get((layer, type(exc).__name__))
            if key:
                tracer.add(key)
            raise
        end = clock()
        tracer._close(index, layer, start, end, parent)
        if after:
            after(tracer, args, kwargs, result, state)
            tracer.spans.append((OVERHEAD, end, clock(), parent, tracer.op))
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.perfbench_layer = layer
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in ``LAYERS`` wherever a centlat module holds it."""
    import centlat.cli  # noqa: F401  (loads cli and verify, which re-import names)

    modules = [m for name, m in sys.modules.items() if name == "centlat" or name.startswith("centlat.")]
    for layer, (module_name, functions) in LAYERS.items():
        home = sys.modules[module_name]
        for fn_name in functions:
            original = getattr(home, fn_name)
            tracer.originals[fn_name] = original
            wrapper = _wrap(tracer, layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        tracer._patched.append((module, attr, original))


def uninstall(tracer: Tracer) -> None:
    for module, attr, original in reversed(tracer._patched):
        setattr(module, attr, original)
    tracer._patched.clear()

