"""Benchmark of the hadahash pipeline, one workload per process.

A run writes seeded inputs, warms up, then repeats whole rounds until its
time is spent. A round runs the user's pipeline in process through
`hadahash.cli.main` (split, codebook, train, encode query and database,
eval, lsh-baseline) and, after each subcommand, times a block of
`retrieval.search` calls with a top-R limit against the encoded database:
one batched call, then one call per query. End-to-end metrics are means
over untraced rounds. With tracing on, traced rounds alternate with
untraced ones and give the per-layer metrics, and the difference in
pipeline time is the tracing overhead. After the last round the outputs
are checked against the oracles in `checks.py`.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import gen
import spans
from hadahash import analysis, cli, retrieval
from hadahash import codebook as cb


@dataclass(frozen=True)
class Workload:
    data: gen.DataSpec
    bits: int
    hidden: str
    epochs: int
    batch_size: int
    lr: float
    loss_mode: str
    query_per_class: int
    train_per_class: int
    top_r: int
    searches: int       # timed queries per round; see Searches
    calls: dict         # calls per untraced round of short stages


WORKLOADS = {
    # A wide hidden layer, a direct Sylvester codebook (16 classes, K = 64)
    # and many epochs: backward, sgd_step and the trainer loop dominate.
    "train-dense": Workload(
        data=gen.DataSpec(classes=16, items=16 * 500, dim=128, informative=32,
                          separation=0.65, nuisance=1.5),
        bits=64, hidden="1024", epochs=20, batch_size=64, lr=0.01,
        loss_mode="CE", query_per_class=40, train_per_class=80, top_r=100,
        searches=4000, calls={"split": 5, "codebook": 5, "encode": 3}),
    # Low-dimensional features, no hidden layer, a projected codebook
    # (32 classes need order 64 > K = 32) and 100k database codes: the
    # split, XOR+popcount, ranking and AP dominate; training is nearly idle.
    "scan-large": Workload(
        data=gen.DataSpec(classes=32, items=32 * 3125, dim=40, informative=32,
                          separation=1.0, nuisance=1.5),
        bits=32, hidden="", epochs=5, batch_size=64, lr=0.05,
        loss_mode="CE", query_per_class=4, train_per_class=300, top_r=100,
        searches=2000, calls={"train": 2, "encode": 2}),
    # One to three labels per item over 160 classes, K = 128 (two words),
    # a projected codebook and masked targets: evaluate spends its time on
    # per-query relevance over the N x C label matrix.
    "multilabel": Workload(
        data=gen.DataSpec(classes=160, items=12000, dim=96, informative=64,
                          separation=1.2, nuisance=1.5, max_labels=3),
        bits=128, hidden="256", epochs=15, batch_size=64, lr=0.01,
        loss_mode="BCE", query_per_class=3, train_per_class=40, top_r=100,
        searches=2000, calls={"split": 4, "codebook": 4, "encode": 3}),
}

# The LSH baseline uses one draw of planes for every seed; see README.
LSH_SEED = 0

STAGES = ("split", "codebook", "train", "encode", "eval", "lsh")
STEPS = ("split", "codebook", "train", "encode", "encode", "eval", "lsh")

# A traced run starts with an untraced round, a round of timing spans and a
# round of allocation peaks, then alternates untraced and timing rounds.
ROUNDS_TRACED = ("plain", "spans", "alloc")

# Outputs that must be byte-identical in every round: every output of the
# pipeline except the training history, whose seconds column is wall time.
DETERMINISTIC = ("split", "codebook", "model", "query_codes", "db_codes",
                 "report", "lsh_report", "lsh_query_codes", "lsh_db_codes")


def smoke(workload):
    """The same workload at a size that runs in about a second."""
    return replace(workload,
                   data=replace(workload.data,
                                items=workload.data.classes * 40),
                   query_per_class=2, train_per_class=10, epochs=2,
                   searches=40, calls={"split": 2, "encode": 2})


class OperationFailed(Exception):
    """A subcommand exited with an error or raised."""


class Files:
    def __init__(self, workdir):
        self.dir = Path(workdir)
        names = {"features": "features.hcfs", "labels": "labels.hcls",
                 "split": "split.txt", "codebook": "codebook.hccb",
                 "model": "model.hcmd", "history": "history.csv",
                 "query_codes": "query.hcbc", "db_codes": "database.hcbc",
                 "report": "report.json", "lsh_report": "lsh.json",
                 "lsh_query_codes": "lsh_query.hcbc",
                 "lsh_db_codes": "lsh_database.hcbc"}
        for key, name in names.items():
            setattr(self, key, str(self.dir / name))


def pipeline(w, f, seed):
    """(stage, argv) of every subcommand of one round, in order."""
    s = str(seed)
    return [
        ("split", ["split", "--labels", f.labels,
                   "--query-per-class", str(w.query_per_class),
                   "--train-per-class", str(w.train_per_class),
                   "--seed", s, "--out", f.split]),
        ("codebook", ["codebook", "--bits", str(w.bits),
                      "--classes", str(w.data.classes), "--seed", s,
                      "--out", f.codebook]),
        ("train", ["train", "--features", f.features, "--labels", f.labels,
                   "--split", f.split, "--codebook", f.codebook,
                   "--hidden", w.hidden, "--epochs", str(w.epochs),
                   "--batch-size", str(w.batch_size), "--lr", str(w.lr),
                   "--loss-mode", w.loss_mode, "--seed", s,
                   "--out", f.model, "--history", f.history]),
        ("encode", ["encode", "--model", f.model, "--features", f.features,
                    "--split", f.split, "--subset", "query",
                    "--out", f.query_codes]),
        ("encode", ["encode", "--model", f.model, "--features", f.features,
                    "--split", f.split, "--subset", "database",
                    "--out", f.db_codes]),
        ("eval", ["eval", "--query-codes", f.query_codes,
                  "--database-codes", f.db_codes, "--labels", f.labels,
                  "--split", f.split, "--out", f.report]),
        ("lsh", ["lsh-baseline", "--features", f.features,
                 "--labels", f.labels, "--split", f.split,
                 "--bits", str(w.bits), "--seed", str(LSH_SEED),
                 "--out", f.lsh_report,
                 "--query-codes-out", f.lsh_query_codes,
                 "--database-codes-out", f.lsh_db_codes]),
    ]


def run_cli(argv):
    log = io.StringIO()
    try:
        with contextlib.redirect_stderr(log):
            code = cli.main(argv)
    except Exception as err:  # an uncaught error is a failed operation
        raise OperationFailed(f"hadahash {argv[0]} raised {err!r}") from err
    if code != 0:
        raise OperationFailed(
            f"hadahash {argv[0]} exited {code}: {log.getvalue().strip()}")


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


class Searches:
    """The timed searches of a round, built before timing starts.

    The queries are `searches` distinct codes: the query set, then database
    codes drawn with the seed. Repeating the query set instead would leave
    p99 to its one or two slowest queries. They are cut into one block per
    subcommand. After each subcommand the round makes one batched top-R call
    over the block, then one call per query of the block, so the timings
    sample the machine through the whole round rather than in one burst.
    """

    def __init__(self, w, seed, queries, database):
        self.database, self.top_r = database, w.top_r
        self.num_queries = queries.num_items
        extra = np.random.default_rng(seed).choice(
            database.num_items, max(0, w.searches - queries.num_items),
            replace=False)
        words = np.vstack([queries.words, database.words[extra]])[:w.searches]
        blocks = np.array_split(np.arange(w.searches), len(STEPS))
        self.batches = [retrieval.BinaryCodeSet(words=words[b],
                                                code_bits=queries.code_bits)
                        for b in blocks]
        self.singles = [[retrieval.BinaryCodeSet(words=words[i:i + 1],
                                                 code_bits=queries.code_bits)
                         for i in b] for b in blocks]


def stage_calls(w, stage, traced):
    """Calls of one step of `stage` in a round.

    Untraced rounds call short stages several times and time the mean call,
    so that every stage covers enough work in a run. Traced rounds call each
    step once, so that their spans describe one pass of the pipeline.
    """
    return 1 if traced else w.calls.get(stage, 1)


def run_round(w, f, seed, searches, tracer=None):
    """One round; returns (seconds per stage, latencies per block, top-R)."""
    seconds = dict.fromkeys((*STAGES, "search"), 0.0)
    blocks, ranked = [], []
    for (stage, argv), batch, singles in zip(pipeline(w, f, seed),
                                             searches.batches,
                                             searches.singles):
        calls = stage_calls(w, stage, tracer is not None)
        with _span(tracer, "cli." + stage):
            start = time.perf_counter()
            for _ in range(calls):
                run_cli(argv)
            seconds[stage] += (time.perf_counter() - start) / calls
        with _span(tracer, "bench.search"):
            start = time.perf_counter()
            ranked += retrieval.search(batch, searches.database,
                                       limit=searches.top_r)
            seconds["search"] += time.perf_counter() - start
            latencies = []
            for single in singles:
                start = time.perf_counter()
                retrieval.search(single, searches.database,
                                 limit=searches.top_r)
                latencies.append(time.perf_counter() - start)
        blocks.append(latencies)
    return seconds, blocks, ranked[:searches.num_queries]


def round_ops(w, traced=False):
    """Operations in one round: subcommands, batched calls, each query."""
    subcommands = sum(stage_calls(w, stage, traced) for stage in STEPS)
    return subcommands + len(STEPS) + w.searches


def digests(f, keys=DETERMINISTIC):
    return {key: hashlib.sha256(Path(getattr(f, key)).read_bytes()).hexdigest()
            for key in keys}


def output_checks(w, seed, f, features, labels, ranked):
    """[(name, problems)] for the outputs of the last round."""
    split = checks.read_split(f.split)
    query_labels = labels[split["query"]].astype(bool)
    db_labels = labels[split["database"]].astype(bool)
    results = []

    codewords = checks.read_codebook(f.codebook)
    book = cb.build_codebook(w.bits, w.data.classes, seed)
    order = checks.select_order(w.bits, w.data.classes)
    if order == w.bits:
        results.append(("direct codebook", checks.check_direct_codebook(
            codewords, book.selected_indices)))
    else:
        projection = cb.sample_projection(order, w.bits, seed).values
        results.append(("projected codebook", checks.check_projected_codebook(
            codewords, book.selected_indices, projection)))

    layers = checks.read_network(f.model)
    for subset, path in (("query", f.query_codes), ("database", f.db_codes)):
        words, _ = checks.read_codes(path)
        u = checks.hash_activations(layers, features[split[subset]])
        ok = np.array_equal(words, checks.pack(u >= 0.0))
        results.append((f"{subset} codes are signs of the forward pass",
                        [] if ok else ["encoded bits differ"]))

    maps = {}
    for name, q_path, db_path, report_path in (
            ("hcdh", f.query_codes, f.db_codes, f.report),
            ("lsh", f.lsh_query_codes, f.lsh_db_codes, f.lsh_report)):
        q_pm1 = checks.unpack(*checks.read_codes(q_path))
        db_pm1 = checks.unpack(*checks.read_codes(db_path))
        aps = checks.textbook_aps(q_pm1, db_pm1, query_labels, db_labels)
        with open(report_path) as fh:
            maps[name] = json.load(fh)["map"]
        problems = []
        if None in aps:
            problems.append("a query has no relevant database item")
        elif abs(maps[name] - float(np.mean(aps))) > 1e-9:
            problems.append(f"report mAP {maps[name]!r} != textbook "
                            f"{float(np.mean(aps))!r}")
        results.append((f"{name} report mAP", problems))
        if name == "hcdh":
            results.append(("top-R and per-query AP on a sample",
                             _sample_problems(w, seed, q_pm1, db_pm1, aps,
                                              query_labels, db_labels,
                                              f, ranked)))

    results.append(("map > map_lsh", [] if maps["hcdh"] > maps["lsh"] else
                    [f"mAP {maps['hcdh']} <= LSH {maps['lsh']}"]))
    losses = checks.read_hadamard_losses(f.history)
    results.append(("hadamard loss falls", [] if losses[-1] < losses[0] else
                    [f"loss {losses[0]} -> {losses[-1]}"]))
    return results, maps


def _sample_problems(w, seed, q_pm1, db_pm1, aps, query_labels, db_labels,
                     f, ranked, size=16):
    """Brute-force top-R and evaluate's per-query AP on seeded queries."""
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(len(ranked), size=min(size, len(ranked)),
                                replace=False))
    order, dist = checks.full_ranking(q_pm1[sample], db_pm1)
    problems = []
    for row, qi in enumerate(sample):
        top = order[row, :w.top_r]
        if not (np.array_equal(ranked[qi].indices, top)
                and np.array_equal(ranked[qi].distances, dist[row, top])):
            problems.append(f"query {qi}: top-{w.top_r} differs")
    queries = retrieval.load_codes(f.query_codes)
    database = retrieval.load_codes(f.db_codes)
    subset = retrieval.BinaryCodeSet(words=queries.words[sample],
                                     code_bits=queries.code_bits)
    report = retrieval.evaluate(subset, database, query_labels[sample],
                                db_labels)
    expected = np.array([aps[i] for i in sample])
    if (report.average_precisions.shape != expected.shape
            or not np.allclose(report.average_precisions, expected,
                               rtol=0, atol=1e-12)):
        problems.append("evaluate's per-query AP differs from textbook AP")
    return problems


def end_to_end(w, rounds, latencies, maps, peak_mb, n_train, n_query, n_db):
    """Means over rounds, so rates are total work over total time.

    The machine's speed drifts by a fifth or more over seconds, so a median
    over the few rounds of a run jumps from one state to another between
    runs; a mean moves only with the share of time spent in each.

    Every round times the same single queries in the same order. A query's
    latency is the median of its timings over the rounds, so a stall of the
    machine during one round does not make a slow query; p50 and p99 are
    taken over the queries, at least a thousand, so at least ten lie beyond
    p99.
    """
    def mean(key):
        return statistics.fmean(r[key] for r in rounds)

    per_query = np.median([np.concatenate(blocks) for blocks in latencies],
                          axis=0)
    p50, p99 = np.percentile(per_query, [50, 99])

    values = {
        "setup_s": (mean("split") + mean("codebook"), "s"),
        "pipeline_s": (sum(mean(s) for s in STAGES), "s"),
        "train_samples_per_s": (n_train * w.epochs / mean("train"), "1/s"),
        "encode_items_per_s": ((n_query + n_db) / mean("encode"), "1/s"),
        "eval_queries_per_s": (n_query / mean("eval"), "1/s"),
        "search_qps": (w.searches / mean("search"), "1/s"),
        "query_p50_ms": (float(p50) * 1e3, "ms"),
        "query_p99_ms": (float(p99) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "map": (maps["hcdh"], "ratio"),
        "map_lsh": (maps["lsh"], "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


PER_LAYER_UNITS = {
    "cli.split_s": "s", "cli.codebook_s": "s", "cli.train_s": "s",
    "cli.encode_s": "s", "cli.eval_s": "s", "cli.lsh_s": "s",
    "cli.self_s": "s",
    "data.load_s": "s", "data.bytes_read": "B", "data.split_s": "s",
    "codebook.build_s": "s", "codebook.order": "count",
    "codebook.dense_bytes": "B", "codebook.min_distance_bits": "bits",
    "codebook.targets_s": "s", "codebook.alloc_peak_mb": "MB",
    "model.backward_s": "s", "model.backward_calls": "count",
    "model.sgd_step_s": "s", "model.sgd_step_calls": "count",
    "model.forward_s": "s", "model.forward_rows": "count",
    "trainer.self_s": "s", "trainer.epochs": "count",
    "trainer.batches": "count", "trainer.final_hadamard_loss": "loss",
    "trainer.codeword_agreement": "ratio", "trainer.alloc_peak_mb": "MB",
    "retrieval.binarize_s": "s", "retrieval.search_s": "s",
    "retrieval.distance_evals": "count",
    "retrieval.code_bytes_scanned": "B", "retrieval.eval_rank_s": "s",
    "retrieval.eval_score_s": "s", "retrieval.rankings_bytes": "B",
    "retrieval.eval_alloc_peak_mb": "MB", "retrieval.lsh_s": "s",
    "analysis.bit_balance_dev": "ratio",
    "analysis.gram_max_off_diagonal": "ratio",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def per_layer(w, f, traced, alloc_peaks, untraced_pipeline, features, labels,
              n_query, n_db):
    """Means over timing rounds of the span times, plus computed values."""
    keys = set().union(*traced)
    values = {k: statistics.fmean(t.get(k, 0.0) for t in traced)
              for k in keys}
    values.update(alloc_peaks)
    traced_pipeline = statistics.fmean(
        sum(t.get(f"cli.{s}_s", 0.0) for s in STAGES) for t in traced)
    codewords = checks.read_codebook(f.codebook)
    split = checks.read_split(f.split)
    order = checks.select_order(w.bits, w.data.classes)
    u = checks.hash_activations(checks.read_network(f.model),
                                features[split["train"]])
    balance = analysis.bit_balance(retrieval.load_codes(f.db_codes))
    gram = analysis.codebook_gram(cb.load_codebook(f.codebook))
    off = np.abs(gram[~np.eye(gram.shape[0], dtype=bool)])
    values.update({
        "codebook.order": order,
        "codebook.dense_bytes": order * order * 16,
        "codebook.min_distance_bits": checks.min_distance_bits(codewords),
        "trainer.epochs": w.epochs,
        "trainer.batches": values.get("model.backward_calls", 0),
        "trainer.final_hadamard_loss":
            checks.read_hadamard_losses(f.history)[-1],
        "trainer.codeword_agreement": checks.codeword_agreement(
            u, codewords, labels[split["train"]]),
        "retrieval.rankings_bytes": n_query * n_db * 12,
        "analysis.bit_balance_dev": float(np.mean(np.abs(balance - 0.5))),
        "analysis.gram_max_off_diagonal": float(off.max()) if off.size else 0.0,
        "trace.overhead_s": traced_pipeline - untraced_pipeline,
        "trace.overhead_share":
            (traced_pipeline - untraced_pipeline) / untraced_pipeline,
    })
    return {k: {"value": float(values.get(k, 0.0)), "unit": unit}
            for k, unit in PER_LAYER_UNITS.items()}


def write_inputs(w, seed, f):
    features, labels = gen.generate(w.data, seed)
    gen.write_features(features, f.features)
    gen.write_labels(labels, f.labels)
    return features, labels


def measure(w, seed, seconds, trace, workdir, trace_path=None):
    """Run one workload; returns the result object the command prints."""
    f = Files(workdir)
    f.dir.mkdir(parents=True)
    features, labels = write_inputs(w, seed, f)
    # Warm-up: the subcommands up to the codes, untimed. Their codes are the
    # ones every round writes again, byte for byte, so the searches of a
    # round can use them before the round's own encode.
    for _, argv in pipeline(w, f, seed)[:len(STEPS) - 2]:
        run_cli(argv)
    searches = Searches(w, seed, retrieval.load_codes(f.query_codes),
                        retrieval.load_codes(f.db_codes))
    reference = digests(f, ("query_codes", "db_codes"))

    tracer = spans.Tracer() if trace else None
    untraced, traced, latencies = [], [], []
    alloc_peaks, attempted = {}, 0
    schedule = ROUNDS_TRACED if trace else ("plain",)
    start = time.perf_counter()
    for i in itertools.count():
        kind = (schedule[i] if i < len(schedule) else
                "spans" if trace and i % 2 else "plain")
        began = time.perf_counter()
        if kind == "plain":
            seconds_used, blocks, ranked = run_round(w, f, seed, searches)
            untraced.append(seconds_used)
            latencies.append(blocks)
        else:
            first_span = len(tracer.spans)
            spans.patch_program(tracer, alloc=kind == "alloc")
            try:
                _, _, ranked = run_round(w, f, seed, searches, tracer)
            finally:
                tracer.unpatch()
            times = spans.layer_times(tracer.spans, first_span)
            if kind == "alloc":
                alloc_peaks = {k: v for k, v in times.items()
                               if k.endswith("alloc_peak_mb")}
            else:
                traced.append(times)
        attempted += round_ops(w, kind != "plain")
        current = digests(f)
        # The first round's other outputs join the warm-up's codes.
        if len(reference) < len(current):
            reference = current | reference
        if current != reference:
            raise OperationFailed("outputs changed between rounds")
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - began
        if elapsed + last / 2 >= seconds and i + 1 >= len(schedule):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    split = checks.read_split(f.split)
    n_train, n_query, n_db = (split[k].size for k in
                              ("train", "query", "database"))
    results, maps = output_checks(w, seed, f, features, labels, ranked)
    attempted += len(results)
    failed = [(name, p) for name, p in results if p]
    if trace:
        untraced_pipeline = statistics.fmean(
            sum(r[s] for s in STAGES) for r in untraced)
        metrics = per_layer(w, f, traced, alloc_peaks, untraced_pipeline,
                            features, labels, n_query, n_db)
        if trace_path:
            tracer.write(trace_path)
    else:
        metrics = end_to_end(w, untraced, latencies, maps, peak / 1024,
                             n_train, n_query, n_db)
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}, failed


def run(workload, seed, seconds, trace, root):
    """Measure in a fresh directory under `root`, removed afterwards."""
    workdir = Path(root) / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    trace_path = Path(root) / f"trace-{workload}-s{seed}.json"
    try:
        return measure(WORKLOADS[workload], seed, seconds, trace, workdir,
                       trace_path if trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
