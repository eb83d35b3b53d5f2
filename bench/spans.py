"""In-memory spans around the program's public functions.

`Tracer.patch` replaces a module attribute with a wrapper that records a
span (name, start, end, parent, attributes) per call, so calls made through
that attribute, by the CLI or by another module of the program, are traced
without changing a file of the program. Spans stay in memory until `write`.
"""

import contextlib
import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []   # dicts: name, start, end, parent, attrs
        self._open = []   # indices of the spans not yet ended
        self._patched = []

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "attrs": {}})
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _end(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        record = self._begin(name)
        try:
            yield record
        finally:
            self._end(record)

    def patch(self, module, attr, name, attrs=None, alloc=False):
        """Trace calls through `module.attr`; a missing attribute is skipped.

        `attrs(args, result)` returns counts to store on the span. With
        `alloc`, the span also records its tracemalloc peak in MB.
        """
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._begin(name)
            measure = alloc and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                result = original(*args, **kwargs)
            finally:
                if measure:
                    record["attrs"]["alloc_peak_mb"] = (
                        tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                self._end(record)
            if attrs is not None:
                record["attrs"].update(attrs(args, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unpatch(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f)


def patch_program(tracer, alloc=False):
    """Trace the public functions of every layer of the pipeline.

    With `alloc`, the codebook build, training and evaluation spans also
    read tracemalloc peaks. Tracemalloc slows every allocation, training
    by about a third, so allocation rounds are kept apart from timing rounds.
    """
    from hadahash import analysis, codebook, data, model, retrieval, trainer

    def file_bytes(args, _):
        return {"bytes": os.path.getsize(args[0])}

    def rows(args, _):
        return {"rows": args[1].shape[0]}

    def scanned(args, _):
        queries, database = args[0], args[1]
        evals = queries.num_items * database.num_items
        return {"distance_evals": evals,
                "code_bytes": evals * database.words.shape[1] * 8}

    for attr in ("load_features", "load_labels", "load_split"):
        tracer.patch(data, attr, "data.load", attrs=file_bytes)
    tracer.patch(data, "split_protocol", "data.split")
    tracer.patch(codebook, "build_codebook", "codebook.build", alloc=alloc)
    tracer.patch(trainer, "train", "trainer.train", alloc=alloc)
    tracer.patch(trainer, "target_batch", "codebook.targets")
    tracer.patch(trainer, "backward", "model.backward")
    tracer.patch(trainer, "sgd_step", "model.sgd_step")
    tracer.patch(model, "forward", "model.forward", attrs=rows)
    tracer.patch(retrieval, "binarize", "retrieval.binarize")
    tracer.patch(retrieval, "search", "retrieval.search", attrs=scanned)
    tracer.patch(retrieval, "evaluate", "retrieval.evaluate", alloc=alloc)
    tracer.patch(retrieval, "lsh_codes", "retrieval.lsh")
    tracer.patch(analysis, "codebook_gram", "analysis.codebook_gram")


def layer_times(spans, first=0):
    """Per-layer seconds and counts of the round whose spans start at `first`.

    The harness opens the `cli.<stage>` spans around each subcommand and a
    `bench.search` span around its own search timings; every other span
    comes from `patch_program`.
    """
    rounds = range(first, len(spans))
    duration = {i: spans[i]["end"] - spans[i]["start"] for i in rounds}
    child_time = defaultdict(float)
    for i in rounds:
        if spans[i]["parent"] is not None:
            child_time[spans[i]["parent"]] += duration[i]

    def root(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
        return spans[i]["name"]

    def parent_name(i):
        p = spans[i]["parent"]
        return None if p is None else spans[p]["name"]

    out = defaultdict(float)
    for i in rounds:
        name, attrs = spans[i]["name"], spans[i]["attrs"]
        if name.startswith("cli."):
            out[name + "_s"] += duration[i]
            out["cli.self_s"] += duration[i] - child_time[i]
        elif name == "data.load":
            out["data.load_s"] += duration[i]
            out["data.bytes_read"] += attrs["bytes"]
        elif name in ("data.split", "codebook.build", "codebook.targets",
                      "model.backward", "model.sgd_step", "model.forward",
                      "retrieval.lsh"):
            out[name + "_s"] += duration[i]
            out[name + "_calls"] += 1
        elif name == "trainer.train":
            out["trainer.self_s"] += duration[i] - child_time[i]
        elif name == "retrieval.binarize" and root(i) == "cli.encode":
            out["retrieval.binarize_s"] += duration[i]
        elif name == "retrieval.search" and parent_name(i) == "bench.search":
            out["retrieval.search_s"] += duration[i]
            out["retrieval.distance_evals"] += attrs["distance_evals"]
            out["retrieval.code_bytes_scanned"] += attrs["code_bytes"]
        elif name == "retrieval.search" and root(i) == "cli.eval":
            out["retrieval.eval_rank_s"] += duration[i]
        elif name == "retrieval.evaluate" and root(i) == "cli.eval":
            out["retrieval.eval_score_s"] += duration[i] - child_time[i]
        if name == "model.forward":
            out["model.forward_rows"] += attrs["rows"]
        if "alloc_peak_mb" in attrs:
            key = {"codebook.build": "codebook.alloc_peak_mb",
                   "trainer.train": "trainer.alloc_peak_mb"}.get(
                       name, "retrieval.eval_alloc_peak_mb")
            if name != "retrieval.evaluate" or root(i) == "cli.eval":
                out[key] = max(out[key], attrs["alloc_peak_mb"])
    return dict(out)
