"""In-process tracing of the ccgmwe layers from outside the program.

A Tracer replaces the public functions of the ccgmwe modules with wrappers
that record one span per call (name, start, end, parent span, operation)
and read exact counts from the values the functions return.  Callers reach
these functions through module attributes (``parser.parse``,
``treebank.write_dependencies``), so the wrappers see every call between
layers.  ``categories`` is not wrapped: other modules bind its names at
import, so its cost counts inside its callers.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "pipeline", "treebank", "recognition", "collapse",
          "parser", "evaluation")

WRAPPED = {
    "cli": ("main",),
    "pipeline": ("run_pipeline", "read_config", "split_records"),
    "treebank": ("read_treebank", "read_lexicon", "read_dependencies",
                 "read_tokens", "read_occurrences", "write_treebank",
                 "write_dependencies", "write_tokens", "write_occurrences"),
    "recognition": ("recognize", "rebind_tokens"),
    "collapse": ("collapse_tree", "collapse_dependencies", "collapse_tokens",
                 "collapse_all_dependencies", "detect_cycles"),
    "parser": ("train", "parse", "extract_dependencies", "save_model",
               "load_model"),
    "evaluation": ("score", "combine_models", "sig_test"),
}

# named self-time metrics: metric -> the wrapped functions it sums
SELF_TIMES = {
    "parser.parse_s": ("parser.parse",),
    "parser.train_s": ("parser.train",),
    "parser.extract_dependencies_s": ("parser.extract_dependencies",),
    "parser.model_io_s": ("parser.save_model", "parser.load_model"),
    "collapse.collapse_tree_s": ("collapse.collapse_tree",),
    "collapse.deps_s": ("collapse.collapse_dependencies",
                        "collapse.collapse_all_dependencies"),
    "recognition.recognize_s": ("recognition.recognize",),
    "treebank.write_s": tuple("treebank." + n for n in WRAPPED["treebank"]
                              if n.startswith("write_")),
    "treebank.read_s": tuple("treebank." + n for n in WRAPPED["treebank"]
                             if n.startswith("read_")),
    "evaluation.sig_test_s": ("evaluation.sig_test",),
    "evaluation.combine_models_s": ("evaluation.combine_models",),
    "evaluation.score_s": ("evaluation.score",),
    "pipeline.run_pipeline.self_s": ("pipeline.run_pipeline",),
}

LENGTH_BUCKETS = (("len_lt10", 10), ("len_10_19", 20), ("len_20_39", 40),
                  ("len_ge40", None))

COUNTS = ("parser.parse_calls", "parser.parse_distinct",
          "parser.parse_failures", "parser.chart_entries", "collapse.kept",
          "collapse.discarded", "recognition.occurrences",
          "treebank.bytes_written", "evaluation.sig_test_patterns",
          "evaluation.sig_test_exhaustive_calls")


def _bucket(length):
    for name, below in LENGTH_BUCKETS:
        if below is None or length < below:
            return name


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_time")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.parent, self.op = name, start, parent, op
        self.end = None
        self.child_time = 0.0

    @property
    def self_time(self):
        return self.end - self.start - self.child_time


class Tracer:
    """Context manager that wraps the layer functions while it is open.

    Call begin(op) before each operation and summary() after it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._op = None
        self._first = 0
        self._counts = {}
        self._parse_inputs = set()
        self._models = []
        self._bucket_tokens = Counter()
        self._bucket_time = Counter()

    def __enter__(self):
        for layer, names in WRAPPED.items():
            module = importlib.import_module("ccgmwe." + layer)
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name,
                        self._wrap("%s.%s" % (layer, name), original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def begin(self, op):
        self._op = op
        self._first = len(self.spans)
        self._counts = Counter({name: 0 for name in COUNTS})
        self._parse_inputs.clear()
        self._models.clear()
        self._bucket_tokens.clear()
        self._bucket_time.clear()

    def _wrap(self, name, function):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, parent, self._op)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
            if count is not None:
                count(span, args, result)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = function.__name__
        wrapper.__doc__ = function.__doc__
        return wrapper

    # -- counters read from return values ------------------------------

    def _count_parser_parse(self, span, args, result):
        model, tokens = args[0], tuple(args[1])
        counts = self._counts
        counts["parser.parse_calls"] += 1
        key = (id(model), tokens)
        if key not in self._parse_inputs:
            self._parse_inputs.add(key)
            self._models.append(model)      # keeps id(model) unique
        counts["parser.parse_distinct"] = len(self._parse_inputs)
        counts["parser.parse_failures"] += result.tree is None
        counts["parser.chart_entries"] += result.stats["chart_entries"]
        bucket = _bucket(len(tokens))
        self._bucket_tokens[bucket] += len(tokens)
        self._bucket_time[bucket] += span.end - span.start

    def _count_collapse_collapse_tree(self, span, args, result):
        self._counts["collapse.kept"] += len(result.kept)
        self._counts["collapse.discarded"] += len(result.discarded)

    def _count_recognition_recognize(self, span, args, result):
        self._counts["recognition.occurrences"] += len(result)

    def _count_written(self, span, args, result):
        self._counts["treebank.bytes_written"] += os.path.getsize(args[0])

    _count_treebank_write_treebank = _count_written
    _count_treebank_write_dependencies = _count_written
    _count_treebank_write_tokens = _count_written
    _count_treebank_write_occurrences = _count_written

    def _count_evaluation_sig_test(self, span, args, result):
        self._counts["evaluation.sig_test_patterns"] += result.iterations
        self._counts["evaluation.sig_test_exhaustive_calls"] += result.exhaustive

    # -- per-operation summary -----------------------------------------

    def summary(self):
        """Self times by layer and by named function, counts and parser
        throughput by sentence length, for the operation since begin()."""
        by_name = defaultdict(float)
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans[self._first:]:
            by_name[span.name] += span.self_time
            by_layer[span.name.split(".", 1)[0]] += span.self_time
        out = {"%s.self_s" % layer: value for layer, value in by_layer.items()}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(by_name[name] for name in names)
        out.update(self._counts)
        for bucket, _ in LENGTH_BUCKETS:
            busy = self._bucket_time[bucket]
            out["parser.tokens_per_s." + bucket] = (
                self._bucket_tokens[bucket] / busy if busy else 0.0)
        return out

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent
        index, operation."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = index[id(span.parent)] if span.parent else None
                handle.write(json.dumps([span.name, span.start, span.end,
                                         parent, span.op]) + "\n")
