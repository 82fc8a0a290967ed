"""Spans and counts recorded around wordsteg's public functions, from outside.

The traced run replaces each wrapped function in every wordsteg module that
holds a reference to it: the calling module looks the name up in its own
globals (cli.load_model, evaluate.steganize, codec.insert_codewords), so
wrapping only the defining module would miss those calls. A function that
the code under test no longer has is skipped and listed as absent.

Spans live in memory and are written out when the run ends. Each carries a
name, start, end, its parent span and the id of the CLI call it belongs to.
scrub_message runs once per corpus line, so its calls are folded: each adds
its time to its parent span and to a running total instead of becoming a
span. A span's self time is its duration minus the time of its children.
"""

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("corpus", "ngram", "codebook", "codec", "evaluate", "cli")


class Span:
    __slots__ = ("id", "parent", "call", "name", "start", "end", "child_s")

    def __init__(self, id, parent, call, name):
        self.id, self.parent, self.call, self.name = id, parent, call, name
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.folded: defaultdict[tuple[int, str], float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        span = Span(
            len(self.spans),
            None if parent is None else parent.id,
            len(self.spans) if parent is None else parent.call,
            name,
        )
        self.spans.append(span)
        self.stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_s += span.duration

    def fold(self, name: str, seconds: float) -> None:
        parent = self.stack[-1]
        parent.child_s += seconds
        self.folded[(parent.call, name)] += seconds

    def keep_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def write(self, path) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "call", "name", "start", "end"],
            "spans": [
                [s.id, s.parent, s.call, s.name, s.start, s.end] for s in self.spans
            ],
            "folded": [[call, name, secs] for (call, name), secs in self.folded.items()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _path_arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _grams(model) -> int:
    counts = getattr(model, "counts", None)
    return sum(len(table) for table in counts.values()) if isinstance(counts, dict) else 0


def _after_load_corpus(tracer, args, kwargs, corpus):
    tracer.counts["corpus.messages"] += len(corpus)
    tracer.counts["corpus.tokens"] += getattr(corpus, "total_tokens", 0)
    tracer.counts["corpus.bytes"] += os.path.getsize(_path_arg(args, kwargs, 0, "path"))


def _after_build(tracer, args, kwargs, model):
    tracer.keep_max("ngram.grams", _grams(model))


def _after_save(tracer, args, kwargs, result):
    tracer.keep_max("ngram.model_bytes", os.path.getsize(_path_arg(args, kwargs, 1, "path")))


def _after_load_model(tracer, args, kwargs, model):
    tracer.keep_max("ngram.model_bytes", os.path.getsize(_path_arg(args, kwargs, 0, "path")))
    tracer.keep_max("ngram.grams", _grams(model))


# module, function, span name, hook run on the result. steganize is wrapped
# apart because a failed call still draws covers.
SPANNED = [
    ("corpus", "load_corpus", "corpus.load", _after_load_corpus),
    ("ngram", "build_model", "ngram.build", _after_build),
    ("ngram", "save_model", "ngram.save", _after_save),
    ("ngram", "load_model", "ngram.load", _after_load_model),
    ("codebook", "select_codebook", "codebook.select", None),
    ("codebook", "save_codebook", "codebook.save", None),
    ("codebook", "load_codebook", "codebook.load", None),
    ("codec", "insert_codewords", "codec.insert", None),
    ("codec", "decode", "codec.decode", None),
    ("evaluate", "run_band_experiment", "evaluate.band", None),
    ("evaluate", "run_density_experiment", "evaluate.density", None),
    ("evaluate", "build_pairs", "evaluate.pairs", None),
    ("evaluate", "distinguisher_accuracy", "evaluate.distinguish", None),
]


def _spanned(tracer, fn, name, after):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _steganize(tracer, fn, steganize_error):
    def wrapper(*args, **kwargs):
        try:
            with tracer.span("codec.steganize"):
                result = fn(*args, **kwargs)
        except steganize_error as exc:
            tracer.counts["codec.steganize_calls"] += 1
            tracer.counts["codec.covers_drawn"] += exc.attempts
            raise
        tracer.counts["codec.steganize_calls"] += 1
        tracer.counts["codec.covers_drawn"] += result.attempts
        return result

    return wrapper


def _scrub(tracer, fn):
    def wrapper(raw):
        start = perf_counter()
        result = fn(raw)
        tracer.fold("corpus.scrub", perf_counter() - start)
        tracer.counts["corpus.lines"] += 1
        tracer.counts["corpus.lines_dropped"] += not result
        return result

    return wrapper


def _counted(tracer, fn, name):
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Wrappers:
    """Installs and removes the wrappers in every loaded wordsteg module."""

    def __init__(self, tracer, modules: dict):
        self.modules = modules
        self.absent = []
        self.replacements = {}  # id(original) -> (original, wrapper)
        steganize_error = getattr(modules.get("wordsteg.errors"), "SteganizeError", ())
        plans = [
            (module, function, lambda fn, n=name, a=after: _spanned(tracer, fn, n, a))
            for module, function, name, after in SPANNED
        ]
        plans += [
            ("corpus", "scrub_message", lambda fn: _scrub(tracer, fn)),
            ("codec", "steganize", lambda fn: _steganize(tracer, fn, steganize_error)),
            ("codec", "insertion_score", lambda fn: _counted(tracer, fn, "codec.slots_scored")),
        ]
        for module_name, function, make in plans:
            original = getattr(modules.get(f"wordsteg.{module_name}"), function, None)
            if original is None:
                self.absent.append(f"{module_name}.{function}")
            else:
                self.replacements[id(original)] = (original, make(original))

    @contextmanager
    def installed(self):
        swapped = []
        try:
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    entry = self.replacements.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        swapped.append((module, attr, value))
            yield
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)


def layer_metrics(tracer: Tracer, scales: dict[int, float]) -> tuple[dict, dict]:
    """Per-layer metrics, and each CLI call's self time split by layer.

    Times are multiplied by their CLI call's factor in `scales` (keyed by the
    call's root span id); counts are not.
    """
    totals: defaultdict[str, float] = defaultdict(float)
    self_by_name: defaultdict[str, float] = defaultdict(float)
    by_call: dict[int, dict] = {}
    trials = 0
    for span in tracer.spans:
        scale = scales[span.call]
        self_s = (span.duration - span.child_s) * scale
        totals[span.name] += span.duration * scale
        self_by_name[span.name] += self_s
        if span.parent is None:
            by_call[span.id] = {"verb": span.name, "wall_s": span.duration * scale}
            by_call[span.id].update({layer: 0.0 for layer in LAYERS})
        by_call[span.call][span.name.split(".")[0]] += self_s
        parent = tracer.spans[span.parent] if span.parent is not None else None
        if parent is not None and parent.name.startswith("evaluate.") and span.name in (
            "codec.steganize",
            "codec.insert",
        ):
            trials += 1
    for (call, name), seconds in tracer.folded.items():
        totals[name] += seconds * scales[call]
        by_call[call][name.split(".")[0]] += seconds * scales[call]

    layer_self = {layer: sum(c[layer] for c in by_call.values()) for layer in LAYERS}
    counts = tracer.counts
    drawn = counts["codec.covers_drawn"]
    metrics = {
        "corpus.load_s": totals["corpus.load"],
        "corpus.scrub_s": totals["corpus.scrub"],
        "corpus.lines": counts["corpus.lines"],
        "corpus.lines_dropped": counts["corpus.lines_dropped"],
        "corpus.messages": counts["corpus.messages"],
        "corpus.tokens": counts["corpus.tokens"],
        "corpus.bytes": counts["corpus.bytes"],
        "ngram.build_s": totals["ngram.build"],
        "ngram.save_s": totals["ngram.save"],
        "ngram.load_s": totals["ngram.load"],
        "ngram.model_bytes": tracer.maxima.get("ngram.model_bytes", 0),
        "ngram.grams": tracer.maxima.get("ngram.grams", 0),
        "codebook.select_s": totals["codebook.select"],
        "codebook.load_s": totals["codebook.load"],
        "codec.steganize_s": totals["codec.steganize"],
        "codec.steganize_self_s": self_by_name["codec.steganize"],
        "codec.insert_s": totals["codec.insert"],
        "codec.decode_s": totals["codec.decode"],
        "codec.steganize_calls": counts["codec.steganize_calls"],
        "codec.covers_drawn": drawn,
        "codec.accept_ratio": counts["codec.steganize_calls"] / drawn if drawn else 0.0,
        "codec.slots_scored": counts["codec.slots_scored"],
        "evaluate.band_s": totals["evaluate.band"],
        "evaluate.band_self_s": self_by_name["evaluate.band"],
        "evaluate.density_s": totals["evaluate.density"],
        "evaluate.density_self_s": self_by_name["evaluate.density"],
        "evaluate.pairs_s": totals["evaluate.pairs"],
        "evaluate.distinguish_s": totals["evaluate.distinguish"],
        "evaluate.trials": trials,
        "cli.self_s": layer_self["cli"],
    }
    metrics.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS[:-1]})
    return metrics, by_call
