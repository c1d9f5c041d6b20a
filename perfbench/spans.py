"""Span tracing of simonstruct from outside the package.

`Tracer.install` replaces every function that one simonstruct module binds
from another, in the modules that import it, plus the functions and methods
in EXTRA_TARGETS, which are also replaced in their home module so calls from
inside it are seen.  Each call records a span: name, start, end, parent span,
op id, and one number taken from the call for the counters below.  Spans stay
in memory until the run writes them out.  Tracing passes every argument and
result through untouched.

A name the package no longer defines is skipped, so its metrics read zero
calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

import numpy as np

MODULES = ("gf2", "rng", "walsh", "boolfn", "oracle", "simulate", "recover", "cli")

# (module, attribute path) traced in addition to the cross-module bindings
EXTRA_TARGETS = (
    ("simulate", "CollapseOutcome.weights"),
    ("gf2", "SpanTracker.add"),
    ("recover", "_sampling_pass"),
    ("oracle", "autocorrelation"),
    ("cli", "main"),
)


def _walsh_size(args, kwargs, result):
    arr = np.asarray(args[0] if args else kwargs["values"])
    return (arr.size // arr.shape[-1], arr.shape[-1])


def _arg_len(args, kwargs, result):
    return len(args[0] if args else kwargs["text"])


def _probes(args, kwargs, result):
    candidates = args[1] if len(args) > 1 else kwargs["candidates"]
    p = args[2] if len(args) > 2 else kwargs["p"]
    return len(candidates) * p


# span name -> function(args, kwargs, result) giving the span's number
EXTRACTORS = {
    "walsh.walsh_hadamard": _walsh_size,
    "simulate.collapse": lambda a, k, r: r.size,
    "simulate._collapse_by_value": lambda a, k, r: r.size,
    "gf2.SpanTracker.add": lambda a, k, r: bool(r),
    "boolfn.parse_truth_table": _arg_len,
    "boolfn.parse_multi_truth_table": _arg_len,
    "boolfn.format_truth_table": lambda a, k, r: len(r),
    "boolfn.format_multi_truth_table": lambda a, k, r: len(r),
    "oracle.sampled_verify": _probes,
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op, value]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, extract = self.spans, self.stack, EXTRACTORS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                try:
                    span[5] = extract(args, kwargs, result)
                except (LookupError, TypeError, AttributeError, ValueError):
                    pass  # a changed signature loses the counter, not the run
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every traced name; returns the span names installed."""
        mods = {m: importlib.import_module(f"simonstruct.{m}") for m in MODULES}
        mods["simonstruct"] = importlib.import_module("simonstruct")
        targets: dict[int, types.FunctionType] = {}
        for mod in mods.values():
            for value in vars(mod).values():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("simonstruct.")
                    and value.__module__ != mod.__name__
                ):
                    targets[id(value)] = value
        at_home = set()
        for home, attr in EXTRA_TARGETS:
            fn = getattr(mods.get(home), attr, None)
            if isinstance(fn, types.FunctionType):
                targets[id(fn)] = fn
                at_home.add(id(fn))
        names = []
        for fn in targets.values():
            name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
            traced = self.wrap(name, fn)
            names.append(name)
            for mod in mods.values():
                if mod.__name__ == fn.__module__ and id(fn) not in at_home:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, traced)
        for home, path in EXTRA_TARGETS:
            if "." not in path or home not in mods:
                continue
            cls_name, meth = path.split(".")
            cls = getattr(mods[home], cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                self._set(cls, meth, self.wrap(f"{home}.{path}", fn))
                names.append(f"{home}.{path}")
        return sorted(names)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


# --------------------------------------------------------------- analysis


def self_times(spans: list[list]) -> np.ndarray:
    """Span duration minus the time its child spans cover (calls nest, one thread)."""
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    own = dur.copy()
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            own[s[3]] -= d
    return own


def walsh_bytes_computed(batch: int, size: int, l2_bytes: int) -> int:
    """Computed minimum traffic of a cache-blocked radix-2 transform, in bytes.

    One read and one write of the int64 array covers every stage whose
    butterfly span (2h entries) fits in L2; each larger stage streams the
    array once more.  Cache misses are not measured.
    """
    n = size.bit_length() - 1
    array = batch * size * 8
    in_cache_stages = (l2_bytes // 16).bit_length()
    return 2 * array * (1 + max(0, n - in_cache_stages))


def layer_metrics(spans: list[list], l2_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run: name -> (value, unit)."""
    own = self_times(spans)
    names = [s[0] for s in spans]
    layer = [n.split(".", 1)[0] for n in names]

    def total(pred) -> float:
        return float(sum(t for t, n in zip(own, names) if pred(n)))

    def picked(pred) -> list[int]:
        return [i for i, n in enumerate(names) if pred(n)]

    def layer_self(name) -> float:
        return float(sum(t for t, l in zip(own, layer) if l == name))

    def values(indices) -> list:
        return [spans[i][5] for i in indices if spans[i][5] is not None]

    text = picked(lambda n: n.startswith(("boolfn.parse_", "boolfn.format_")))
    walsh_calls = picked(lambda n: n == "walsh.walsh_hadamard")
    butterflies = sum(b * s * (s.bit_length() - 1) for b, s in values(walsh_calls))
    moved = sum(walsh_bytes_computed(b, s, l2_bytes) for b, s in values(walsh_calls))
    collapses = picked(lambda n: n in ("simulate.collapse", "simulate._collapse_by_value"))
    sizes = values(collapses)
    passes = set(picked(lambda n: n == "recover._sampling_pass"))
    round_adds = [s for s in spans if s[0] == "gf2.SpanTracker.add" and s[3] in passes]
    verifies = picked(lambda n: n == "oracle.sampled_verify")
    return {
        "boolfn.plant_s": (total(lambda n: n.startswith("boolfn.plant_")), "s"),
        "boolfn.text_s": (float(sum(own[i] for i in text)), "s"),
        "boolfn.text_bytes": (sum(values(text)), "B"),
        "boolfn.self_s": (layer_self("boolfn"), "s"),
        "walsh.transform_s": (total(lambda n: n == "walsh.walsh_hadamard"), "s"),
        "walsh.transform_calls": (len(walsh_calls), "count"),
        "walsh.butterfly_ops": (butterflies, "count"),
        "walsh.bytes_moved": (moved, "B_computed"),
        "walsh.ops_per_byte": (butterflies / moved if moved else 0.0, "ops/B_computed"),
        "simulate.collapse_s": (float(sum(own[i] for i in collapses)), "s"),
        "simulate.collapse_calls": (len(collapses), "count"),
        "simulate.s_size_mean": (float(np.mean(sizes)) if sizes else 0.0, "count"),
        "simulate.law_s": (total(lambda n: n in ("simulate.CollapseOutcome.weights", "simulate.y_distribution")), "s"),
        "simulate.draw_s": (total(lambda n: n in ("simulate._draw_from_weights", "simulate.sample_y")), "s"),
        "simulate.self_s": (layer_self("simulate"), "s"),
        "recover.rounds": (len(round_adds), "count"),
        "recover.passes": (len(passes), "count"),
        "recover.useful_round_ratio": (
            sum(1 for s in round_adds if s[5]) / len(round_adds) if round_adds else 0.0, "ratio"
        ),
        "recover.self_s": (layer_self("recover"), "s"),
        "gf2.span_s": (layer_self("gf2"), "s"),
        "gf2.span_adds": (names.count("gf2.SpanTracker.add"), "count"),
        "oracle.autocorr_s": (total(lambda n: n == "oracle.autocorrelation"), "s"),
        "oracle.autocorr_calls": (names.count("oracle.autocorrelation"), "count"),
        "oracle.verify_s": (float(sum(own[i] for i in verifies)), "s"),
        "oracle.verify_probes": (sum(values(verifies)), "count"),
        "oracle.self_s": (layer_self("oracle"), "s"),
        "rng.self_s": (layer_self("rng"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
    }


def op_self_sums(spans: list[list], ops: int) -> np.ndarray:
    """Sum of every span's self time per op id: the op's time inside the package."""
    out = np.zeros(ops)
    for s, t in zip(spans, self_times(spans)):
        if 0 <= s[4] < ops:
            out[s[4]] += t
    return out
