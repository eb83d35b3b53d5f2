"""Command-line pipelines over the library modules.

Every subcommand validates its inputs before writing anything, logs to
stderr only, and is byte-idempotent for identical flags and inputs on one
machine (the wall-clock column of training histories is the one documented
exception). Trained models can differ in their last bits between machines:
numpy picks its `exp`, `log` and `tanh` kernels by the CPU's SIMD level
(AVX-512, AVX2, ...), and those kernels round differently, so compare
model bytes only between runs on one machine.

`encode`, `eval` and `lsh-baseline` (and `sweep` and `ablate`, which encode
and evaluate every run) keep one worker thread per CPU the process may run
on. OpenBLAS adds its own threads to each matrix product of an encode, so
`OPENBLAS_NUM_THREADS=1`, as the benchmark sets it, keeps the CPUs from
being oversubscribed: on 2 CPUs, encoding 20,000 x 128 rows through a
1024-wide hidden layer took 57 ms with one BLAS thread and 84-101 ms with
OpenBLAS's default.

Exit codes: 0 success, 2 validation error, out of memory or a number too
large for its type, 3 I/O error, 4 numeric failure.
"""

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import analysis, codebook as cb, data, model, retrieval, trainer
from .io import FileFormatError


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _parse_hidden(text: str):
    text = text.strip()
    if not text:
        return ()
    widths = []
    for i, token in enumerate(text.split(",")):
        try:
            widths.append(int(token))
        except ValueError:
            raise ValueError(f"--hidden: layer {i} width {token!r} is not an "
                             f"integer") from None
    return tuple(widths)


def _check_subset(args) -> None:
    if args.subset and not args.split:
        raise ValueError("--subset needs --split")


def _subset_rows(args, split, num_items: int):
    """The --subset rows of `split` (database by default); every row
    without a split."""
    if not split:
        return np.arange(num_items)
    return getattr(split, args.subset or "database")


def _check_code_counts(query_codes, db_codes, split) -> None:
    if query_codes.num_items != split.query.size:
        raise ValueError("query code count does not match the split")
    if db_codes.num_items != split.database.size:
        raise ValueError("database code count does not match the split")


def cmd_codebook(args) -> int:
    book = cb.build_codebook(args.bits, args.classes, args.seed)
    cb.save_codebook(book, args.out)
    sums = book.codewords.astype(np.int64).sum(axis=1)
    _log(f"codebook: C={book.num_classes} K={book.code_bits} "
         f"order={cb.select_order(args.bits, args.classes)} "
         f"provenance={book.provenance}, "
         f"max |codeword sum| = {np.abs(sums).max()}")
    _log(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    features, labels = data.make_synthetic_blobs(
        args.classes, args.per_class, args.dim, args.spread, args.seed)
    data.save_features(features, args.features_out)
    data.save_labels(labels, args.labels_out)
    _log(f"wrote {features.num_items} items of dim {features.dim} to "
         f"{args.features_out} and labels to {args.labels_out}")
    return 0


def cmd_split(args) -> int:
    labels = data.load_labels(args.labels)
    split = data.split_protocol(labels, args.query_per_class,
                                args.train_per_class, args.seed)
    data.save_split(split, args.out)
    database_only, query, train = np.bincount(split.roles, minlength=3)
    _log(f"split: {query} query, {train} train, "
         f"{database_only + train} database -> {args.out}")
    return 0


def _train_config(args) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr,
        lr_halving_period_epochs=args.lr_halve_every, momentum=args.momentum,
        weight_decay=args.weight_decay, lambda_=getattr(args, "lambda"),
        loss_mode=args.loss_mode, variant=args.variant.replace("-", "_"),
        seed=args.seed, checkpoint_every=args.checkpoint_every)


def _load_training_inputs(args):
    features = data.load_features(args.features)
    labels = data.load_labels(args.labels)
    split = data.load_split(args.split, features.num_items)
    book = cb.load_codebook(args.codebook)
    return features, labels, split, book


def cmd_train(args) -> int:
    features, labels, split, book = _load_training_inputs(args)
    config = _train_config(args)
    _, history = trainer.train(config, features, labels, split, book,
                               hidden=_parse_hidden(args.hidden),
                               out=args.out, resume=args.resume)
    if history.records:
        _log(f"epoch {history.records[-1].epoch}: "
             f"total loss {history.records[-1].loss.total:.6f}")
    if args.history:
        history.to_csv(args.history)
    _log(f"wrote model to {args.out} after {config.epochs} epochs")
    return 0


def cmd_encode(args) -> int:
    _check_subset(args)
    net = model.load_network(args.model)
    features = data.load_features(args.features)
    split = args.split and data.load_split(args.split, features.num_items)
    codes = retrieval.encode_rows(
        features.values, _subset_rows(args, split, features.num_items),
        model.hash_layer(net), net.widest_layer, net.code_bits)
    retrieval.save_codes(codes, args.out)
    _log(f"wrote {codes.num_items} codes of {codes.code_bits} bits (sign) "
         f"to {args.out}")
    return 0


def _write_report(report, args) -> None:
    with open(args.out, "w") as f:
        f.write(report.to_json() + "\n")
    if getattr(args, "pr_csv", None):
        _write_csv(args.pr_csv, ("recall", "precision"), report.pr_csv_rows())
    if getattr(args, "pk_csv", None):
        _write_csv(args.pk_csv, ("k", "precision"),
                   report.precision_at_csv_rows())
    _log(f"mAP@{report.params['map_at']} = {report.mean_ap:.6f} "
         f"({report.skipped_queries} queries skipped) -> {args.out}")


def cmd_eval(args) -> int:
    query_codes = retrieval.load_codes(args.query_codes)
    db_codes = retrieval.load_codes(args.database_codes)
    labels = data.load_labels(args.labels)
    split = data.load_split(args.split, labels.num_items)
    _check_code_counts(query_codes, db_codes, split)
    report = retrieval.evaluate(
        query_codes, db_codes, labels.values[split.query],
        labels.values[split.database], limit=args.map_at,
        denominator=args.map_denominator)
    _write_report(report, args)
    return 0


def cmd_lsh_baseline(args) -> int:
    features = data.load_features(args.features)
    labels = data.load_labels(args.labels)
    if features.num_items != labels.num_items:
        raise ValueError(f"feature count {features.num_items} != label count "
                         f"{labels.num_items}")
    split = data.load_split(args.split, features.num_items)
    db_codes = retrieval.lsh_codes(features.values, args.bits, args.seed,
                                   rows=split.database)
    query_codes = retrieval.lsh_codes(features.values, args.bits, args.seed,
                                      rows=split.query)
    if args.query_codes_out:
        retrieval.save_codes(query_codes, args.query_codes_out)
    if args.database_codes_out:
        retrieval.save_codes(db_codes, args.database_codes_out)
    report = retrieval.evaluate(
        query_codes, db_codes, labels.values[split.query],
        labels.values[split.database], limit=args.map_at,
        denominator=args.map_denominator)
    _write_report(report, args)
    return 0


def cmd_analyze(args) -> int:
    # A report whose inputs are only partly given is rejected before any
    # file is read.
    _check_subset(args)
    for report, flags, also in (
            ("activation histogram",
             {"--model": args.model, "--features": args.features}, {}),
            ("confusion",
             {"--query-codes": args.query_codes,
              "--database-codes": args.database_codes,
              "--labels": args.labels}, {"--split": args.split})):
        missing = [flag for flag, value in {**flags, **also}.items() if not value]
        if any(flags.values()) and missing:
            raise ValueError(f"the {report} report also needs "
                             f"{', '.join(missing)}")
    # --split picks the rows of the histogram and the confusion report,
    # --subset only those of the histogram; no other report reads them.
    for flag, value, readers in (
            ("--split", args.split, (args.model, args.query_codes)),
            ("--subset", args.subset, (args.model,))):
        if value and not any(readers):
            raise ValueError(f"no report given reads {flag}")

    # Every report is computed before the output directory is made, so a
    # rejected input leaves nothing behind.
    reports = []  # (log label, file name, CSV header, CSV rows)
    summary = {}

    if args.codes:
        codes = retrieval.load_codes(args.codes)
        balance = analysis.bit_balance(codes)
        reports.append(("bit balance", f"bit_balance_k{codes.code_bits}.csv",
                        ("bit", "fraction_positive"),
                        list(enumerate(balance.tolist()))))
        summary["bit_balance"] = {
            "min": float(balance.min()), "max": float(balance.max()),
            "within_0.2_0.8": float(((balance >= 0.2) & (balance <= 0.8)).mean())}

    if args.model:
        net = model.load_network(args.model)
        features = data.load_features(args.features)
        split = args.split and data.load_split(args.split, features.num_items)
        counts, edges = analysis.activation_histogram(
            features.values, _subset_rows(args, split, features.num_items),
            model.hash_layer(net), net.widest_layer, args.bins)
        reports.append(("activation histogram",
                        f"activation_hist_k{net.code_bits}_b{args.bins}.csv",
                        ("bin_low", "bin_high", "count"),
                        [(repr(float(edges[i])), repr(float(edges[i + 1])), int(c))
                         for i, c in enumerate(counts)]))
        outer = int(max(1, round(args.bins * 0.05)))
        summary["activation_outer_mass"] = float(
            (counts[:outer].sum() + counts[-outer:].sum()) / counts.sum())

    if args.query_codes:
        query_codes = retrieval.load_codes(args.query_codes)
        db_codes = retrieval.load_codes(args.database_codes)
        labels = data.load_labels(args.labels)
        # With the histogram, the one split was read for the features.
        if not args.model:
            split = data.load_split(args.split, labels.num_items)
        elif features.num_items != labels.num_items:
            raise ValueError(f"feature count {features.num_items} != label "
                             f"count {labels.num_items}")
        _check_code_counts(query_codes, db_codes, split)
        # No query: search checks the codes and --top and ranks nothing.
        retrieval.search(replace(query_codes, words=query_codes.words[:0]),
                         db_codes, limit=args.top)

        def rankings():
            # One query at a time, so a report holds one ranking, not Q.
            for qi in range(query_codes.num_items):
                yield retrieval.search(
                    replace(query_codes, words=query_codes.words[qi:qi + 1]),
                    db_codes, limit=args.top)[0]

        for weighted, name in ((True, "confusion"), (False, "confusion_unweighted")):
            matrix = analysis.confusion_matrix(
                rankings(), labels.values[split.query],
                labels.values[split.database], args.top, weighted=weighted)
            reports.append((name, f"{name}_k{query_codes.code_bits}_top{args.top}.csv",
                            [f"class_{j}" for j in range(matrix.shape[1])],
                            [[repr(float(v)) for v in row] for row in matrix]))
            if weighted:
                summary["confusion_min_diagonal"] = float(np.diag(matrix).min())

    if args.codebook:
        book = cb.load_codebook(args.codebook)
        gram = analysis.codebook_gram(book)
        reports.append(("codebook gram",
                        f"codebook_gram_c{book.num_classes}_k{book.code_bits}.csv",
                        [f"class_{j}" for j in range(book.num_classes)],
                        [[repr(float(v)) for v in row] for row in gram]))
        off = np.abs(gram[~np.eye(book.num_classes, dtype=bool)])
        summary["gram_max_off_diagonal"] = float(off.max()) if off.size else 0.0

    if not summary:
        raise ValueError("no analysis inputs given; see --help")
    os.makedirs(args.outdir, exist_ok=True)
    for label, name, header, table in reports:
        path = os.path.join(args.outdir, name)
        _write_csv(path, header, table)
        _log(f"{label} -> {path}")
    summary_path = os.path.join(args.outdir, "summary.json")
    with open(summary_path, "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    _log(f"summary -> {summary_path}")
    return 0


def cmd_sweep(args) -> int:
    features, labels, split, book = _load_training_inputs(args)
    config = _train_config(args)
    lambdas = [float(tok) for tok in args.lambdas.split(",")]
    rows = analysis.lambda_sweep(config, lambdas, features, labels, split,
                                 book, hidden=_parse_hidden(args.hidden),
                                 map_at=args.map_at)
    _write_csv(args.out, ("lambda", "map"), rows)
    for lam, value in rows:
        _log(f"lambda={lam:g}: mAP={value:.6f}")
    _log(f"wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    features, labels, split, book = _load_training_inputs(args)
    config = _train_config(args)
    rows = analysis.ablate(config, features, labels, split, book,
                           hidden=_parse_hidden(args.hidden),
                           map_at=args.map_at)
    _write_csv(args.out, ("variant", "map"), rows)
    for variant, value in rows:
        _log(f"{variant}: mAP={value:.6f}")
    _log(f"wrote {args.out}")
    return 0


def _add_train_flags(parser) -> None:
    defaults = trainer.TrainConfig()
    parser.add_argument("--hidden", default="256",
                        help="comma-separated hidden layer widths (default: 256)")
    parser.add_argument("--epochs", type=int, default=defaults.epochs,
                        help=f"training epochs (default: {defaults.epochs})")
    parser.add_argument("--batch-size", type=int, default=defaults.batch_size,
                        help=f"mini-batch size (default: {defaults.batch_size})")
    parser.add_argument("--lr", type=float, default=defaults.base_lr,
                        help=f"base learning rate (default: {defaults.base_lr})")
    parser.add_argument("--lr-halve-every", type=int,
                        default=defaults.lr_halving_period_epochs,
                        help="epochs between halvings (default: "
                             f"{defaults.lr_halving_period_epochs})")
    parser.add_argument("--momentum", type=float, default=defaults.momentum,
                        help=f"SGD momentum (default: {defaults.momentum})")
    parser.add_argument("--weight-decay", type=float,
                        default=defaults.weight_decay,
                        help=f"weight decay (default: {defaults.weight_decay})")
    parser.add_argument("--lambda", type=float, default=defaults.lambda_,
                        help="classification loss weight (default: "
                             f"{defaults.lambda_})")
    parser.add_argument("--loss-mode", choices=("CE", "BCE"),
                        default=defaults.loss_mode,
                        help=f"classification loss (default: {defaults.loss_mode})")
    parser.add_argument("--variant",
                        choices=("full", "codebook-only", "classifier-only"),
                        default="full", help="loss ablation (default: full)")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help=f"training seed (default: {defaults.seed})")
    parser.add_argument("--checkpoint-every", type=int,
                        default=defaults.checkpoint_every,
                        help="save the model and the optimizer state every "
                             "N epochs and after the last one; 0 disables, "
                             "but --resume always checkpoints (default: 0)")


def _add_split_flag(parser, required: bool) -> None:
    parser.add_argument("--split", required=required,
                        help="split file written by `hadahash split` for "
                             "these items")


def _add_data_flags(parser) -> None:
    parser.add_argument("--features", required=True, help="HCFS or text features")
    parser.add_argument("--labels", required=True, help="HCLS or text labels")
    _add_split_flag(parser, required=True)
    parser.add_argument("--codebook", required=True, help="HCCB codebook file")


def _add_eval_flags(parser) -> None:
    parser.add_argument("--map-at", type=int, default=None,
                        help="AP cutoff R (default: full ranking)")
    parser.add_argument("--map-denominator", choices=("cutoff", "relevant"),
                        default="cutoff",
                        help="AP denominator: min(R, relevant) or relevant "
                             "(default: cutoff)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it takes a few ms.

    A subcommand's handler is `cmd_<command>`, looked up by `main` at call
    time, so the parser holds no handler."""
    # No abbreviations: `_apply_config_file` reads only --config itself.
    parser = argparse.ArgumentParser(
        prog="hadahash",
        description="Balanced orthogonal codebooks, hash training, and "
                    "Hamming retrieval.",
        allow_abbrev=False)
    parser.add_argument("--config", default=None,
                        help="key=value file of flag defaults, true or false "
                             "for switches; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="generate a class codebook")
    p.add_argument("--bits", type=int, required=True, help="code length K")
    p.add_argument("--classes", type=int, required=True, help="class count C")
    p.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    p.add_argument("--out", required=True, help="output HCCB path")

    p = sub.add_parser("synth", help="generate synthetic blob features")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--spread", type=float, default=0.5,
                   help="noise scale (default: 0.5)")
    p.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    p.add_argument("--features-out", required=True)
    p.add_argument("--labels-out", required=True)

    p = sub.add_parser("split", help="build the query/train/database split")
    p.add_argument("--labels", required=True)
    p.add_argument("--query-per-class", type=int, required=True)
    p.add_argument("--train-per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the hash network")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="output HCMD checkpoint")
    p.add_argument("--history", default=None, help="per-epoch CSV path")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint at --out; --seed, "
                        "--batch-size, --lr, --lr-halve-every, --momentum, "
                        "--weight-decay, --lambda, --loss-mode and "
                        "--variant must be the checkpoint's, while "
                        "--epochs and --checkpoint-every may differ")

    p = sub.add_parser("encode", help="binarize model outputs into codes")
    p.add_argument("--model", required=True, help="HCMD checkpoint")
    p.add_argument("--features", required=True)
    _add_split_flag(p, required=False)
    p.add_argument("--subset", choices=("query", "train", "database"),
                   default=None,
                   help="split rows to encode; needs --split (default: "
                        "database)")
    p.add_argument("--out", required=True, help="output HCBC path")

    p = sub.add_parser("eval", help="mAP and PR curve for encoded sets")
    p.add_argument("--query-codes", required=True)
    p.add_argument("--database-codes", required=True)
    p.add_argument("--labels", required=True)
    _add_split_flag(p, required=True)
    _add_eval_flags(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--pr-csv", default=None, help="PR curve CSV path")
    p.add_argument("--pk-csv", default=None, help="precision@k CSV path")

    p = sub.add_parser("analyze", help="balance/activation/confusion/gram reports")
    p.add_argument("--codes", default=None, help="HCBC codes for bit balance")
    p.add_argument("--model", default=None, help="HCMD model for activations")
    p.add_argument("--features", default=None)
    _add_split_flag(p, required=False)
    p.add_argument("--subset", choices=("query", "train", "database"),
                   default=None,
                   help="split rows to histogram; needs --split "
                        "(default: database)")
    p.add_argument("--bins", type=int, default=50,
                   help="histogram bins (default: 50)")
    p.add_argument("--query-codes", default=None)
    p.add_argument("--database-codes", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--top", type=int, default=100,
                   help="confusion cutoff (default: 100)")
    p.add_argument("--codebook", default=None)
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("sweep", help="train and evaluate across lambda values")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--lambdas",
                   default=",".join(str(v) for v in analysis.DEFAULT_LAMBDA_GRID),
                   help="comma-separated lambda grid")
    p.add_argument("--map-at", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("ablate", help="compare full/codebook-only/classifier-only")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--map-at", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("lsh-baseline",
                       help="random-hyperplane codes over raw features, then eval")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    _add_split_flag(p, required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    _add_eval_flags(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--pr-csv", default=None)
    p.add_argument("--pk-csv", default=None)
    p.add_argument("--query-codes-out", default=None)
    p.add_argument("--database-codes-out", default=None)

    return parser


def _apply_config_file(argv):
    """Insert key=value entries from --config PATH or --config=PATH as
    flags right after the subcommand, so explicit flags (parsed later)
    win."""
    for at, token in enumerate(argv):
        if token == "--config" and at + 1 < len(argv):
            path, rest = argv[at + 1], argv[:at] + argv[at + 2:]
            break
        if token.startswith("--config="):
            path, rest = token[len("--config="):], argv[:at] + argv[at + 1:]
            break
    else:
        return argv
    extra = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flag, value = f"--{key.strip().replace('_', '-')}", value.strip()
            # A switch takes no value: true gives the bare flag, false none.
            if value == "true":
                extra.append(flag)
            elif value != "false":
                extra.extend([flag, value])
    for i, token in enumerate(rest):
        if not token.startswith("-"):
            return rest[:i + 1] + extra + rest[i + 1:]
    return rest + extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ValueError as err:
        _log(f"error: {err}")
        return 2
    except FileFormatError as err:
        _log(f"error: {err}")
        return 3
    except OSError as err:
        _log(f"error: {err}")
        return 3
    except trainer.NumericError as err:
        _log(f"error: {err}")
        return 4
    except MemoryError as err:
        _log(f"error: out of memory: {err}")
        return 2
    except OverflowError as err:
        _log(f"error: number too large: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
