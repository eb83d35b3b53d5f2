"""Mini-batch training loop: deterministic shuffling, halving LR schedule,
momentum SGD with weight decay, and exact checkpoint/resume."""

import csv
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .codebook import Codebook, target_batch
from .data import FeatureSet, LabelSet, Split, check_split
from .io import (FileFormatError, read_array, read_header, write_array,
                 write_header)
from .model import (VARIANTS, HashNetwork, LossBreakdown, NetworkSpec,
                    backward, build_network, load_network, save_network,
                    sgd_step)
from .rng import make_rng

TRAIN_STATE_MAGIC = b"HCTS"
TRAIN_STATE_VERSION = 2
# Next epoch, total velocity entries, then the `RESUME_FIELDS` in order,
# loss mode and variant as tags.
TRAIN_STATE_HEADER = "IQQQdQdddBB"
# The config fields a resumed run must share with its checkpoint; epochs
# and checkpoint_every may differ.
RESUME_FIELDS = ("seed", "batch_size", "base_lr", "lr_halving_period_epochs",
                 "momentum", "weight_decay", "lambda_", "loss_mode",
                 "variant")
_LOSS_MODES = ("CE", "BCE")
_MAX_U64 = 2**64 - 1

HISTORY_COLUMNS = ("epoch", "lr", "hadamard_loss", "classification_loss",
                   "total_loss", "seconds")


class NumericError(ArithmeticError):
    """A training loss or parameter stopped being finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 128
    base_lr: float = 1e-4
    lr_halving_period_epochs: int = 50
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lambda_: float = 1.0
    loss_mode: str = "CE"
    variant: str = "full"
    seed: int = 0
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        for name in ("base_lr", "momentum", "weight_decay", "lambda_"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name.rstrip('_')} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.lr_halving_period_epochs < 1:
            raise ValueError("lr_halving_period_epochs must be positive")
        if self.momentum < 0:
            raise ValueError("momentum must be non-negative")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.lambda_ < 0:
            raise ValueError("lambda must be non-negative")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.loss_mode not in _LOSS_MODES:
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        # The checkpoint sidecar stores these as unsigned 64-bit fields.
        for name in ("seed", "batch_size", "lr_halving_period_epochs"):
            if not 0 <= getattr(self, name) <= _MAX_U64:
                raise ValueError(f"{name} must fit in 64 bits, got "
                                 f"{getattr(self, name)}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    loss: LossBreakdown
    seconds: float


@dataclass
class TrainHistory:
    records: List[EpochRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(HISTORY_COLUMNS)
            for r in self.records:
                writer.writerow([r.epoch, repr(r.lr), repr(r.loss.hadamard),
                                 repr(r.loss.classification), repr(r.loss.total),
                                 f"{r.seconds:.6f}"])


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """Base rate halved once per halving period (epochs are 0-based)."""
    return config.base_lr * 0.5 ** (epoch // config.lr_halving_period_epochs)


def _non_finite_parameter(net: HashNetwork) -> Optional[str]:
    """The first of `net.param_arrays()` that holds a non-finite value, as
    "layer i weights", "layer i bias", "classifier weights" or "classifier
    bias", or None when every parameter is finite."""
    names = [f"layer {i}" for i in range(len(net.layers))] + ["classifier"]
    for layer, name in zip(net.all_layers(), names):
        for part in ("weights", "bias"):
            if not np.isfinite(getattr(layer, part)).all():
                return f"{name} {part}"
    return None


def _run_epochs(net: HashNetwork, velocity: List[np.ndarray],
                config: TrainConfig, first_epoch: int,
                train_x: np.ndarray, train_targets, train_labels,
                checkpoint_path=None) -> TrainHistory:
    """Train the epochs from `first_epoch` on. A non-finite batch loss, or
    a parameter left non-finite by an epoch, is a NumericError naming the
    epoch, the batch and the first non-finite parameter; it is raised
    before the epoch's checkpoint is written."""
    target_values, target_mask = train_targets
    n_train = train_x.shape[0]
    params = net.param_arrays()
    history = TrainHistory()

    for epoch in range(first_epoch, config.epochs):
        start = time.perf_counter()
        lr = learning_rate(config, epoch)
        order = make_rng(config.seed, epoch).permutation(n_train)
        hadamard_sum = 0.0
        cls_sum = 0.0
        effective_lambda = config.lambda_
        for index, lo in enumerate(range(0, n_train, config.batch_size)):
            batch = order[lo:lo + config.batch_size]
            breakdown, grads = backward(
                net, train_x[batch], target_values[batch], target_mask[batch],
                train_labels[batch], config.lambda_, mode=config.loss_mode,
                variant=config.variant)
            if not np.isfinite(breakdown.total):
                bad = _non_finite_parameter(net) or "no parameter"
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {index}: "
                    f"{breakdown}; {bad} holds a non-finite value")
            hadamard_sum += breakdown.hadamard * batch.size
            cls_sum += breakdown.classification * batch.size
            effective_lambda = breakdown.lambda_
            for param, grad, v in zip(params, grads, velocity):
                decay = config.weight_decay if param.ndim == 2 else 0.0
                sgd_step(param, grad, v, lr, momentum=config.momentum,
                         weight_decay=decay)
        bad = _non_finite_parameter(net)
        if bad:
            raise NumericError(f"{bad} holds a non-finite value after epoch "
                               f"{epoch}, batch {index}")
        mean = LossBreakdown.compose(hadamard_sum / n_train, cls_sum / n_train,
                                     effective_lambda)
        history.records.append(EpochRecord(
            epoch=epoch, lr=lr, loss=mean,
            seconds=time.perf_counter() - start))
        # The last epoch is saved too, so the model and the optimizer state
        # at checkpoint_path always come from the same epoch.
        every = config.checkpoint_every
        if checkpoint_path is not None and (
                epoch + 1 == config.epochs
                or every > 0 and (epoch + 1) % every == 0):
            save_checkpoint(net, velocity, epoch + 1, checkpoint_path, config)
    return history


def train(config: TrainConfig, features: FeatureSet, labels: LabelSet,
          split: Split, codebook: Codebook, hidden: Tuple[int, ...] = (256,),
          out=None, resume: bool = False):
    """Train a network; returns (network, history).

    A fresh run draws its weights from the config seed, with zero velocity.
    With `resume`, the run continues from the checkpoint at `out`, whose
    epoch counter and velocity make it bit-identical to an uninterrupted
    run. The checkpoint must have been trained with this config's
    `RESUME_FIELDS` (seed, batch_size, base_lr, lr_halving_period_epochs,
    momentum, weight_decay, lambda_, loss_mode and variant); only epochs
    and checkpoint_every may differ. A mismatch, a checkpoint past
    `config.epochs` or one of another architecture is a ValueError, raised
    before any epoch trains. Each epoch's shuffle is reseeded from (seed,
    epoch).

    Save policy: with `out` given, the file there ends holding the last
    epoch's model. A checkpointing run (`config.checkpoint_every` > 0, or a
    resume) saves the model and its optimizer state, at
    `train_state_path(out)`, every `checkpoint_every` epochs and after its
    last epoch, so both files come from the same epoch. A run that trains
    no epoch saves the model alone.
    """
    if resume and out is None:
        raise ValueError("resume needs out, the checkpoint path")
    if features.num_items != labels.num_items:
        raise ValueError(
            f"feature count {features.num_items} != label count {labels.num_items}")
    if codebook.num_classes != labels.num_classes:
        raise ValueError(
            f"codebook has {codebook.num_classes} classes, labels have "
            f"{labels.num_classes}")
    if split.train.size == 0:
        raise ValueError("training split is empty")
    check_split(split, features.num_items)
    if config.loss_mode == "CE" and np.any(labels.values.sum(axis=1) != 1):
        raise ValueError("CE mode requires single-label data; use BCE")
    spec = NetworkSpec(input_dim=features.dim, hidden=tuple(hidden),
                       code_bits=codebook.code_bits,
                       num_classes=labels.num_classes)
    if resume:
        net, velocity, first_epoch, trained_with = load_checkpoint(out)
        for name, value in trained_with.items():
            if getattr(config, name) != value:
                raise ValueError(
                    f"checkpoint {out} was trained with {name} {value!r}, "
                    f"not the requested {getattr(config, name)!r}")
        if first_epoch > config.epochs:
            raise ValueError(
                f"checkpoint {out} is at epoch {first_epoch}, past "
                f"the {config.epochs} epochs requested")
        if net.architecture() != spec.architecture():
            raise ValueError(
                f"checkpoint architecture {net.architecture()} does not match "
                f"requested {spec.architecture()}")
    else:
        net = build_network(spec, config.seed)
        velocity = [np.zeros_like(p) for p in net.param_arrays()]
        first_epoch = 0

    train_idx = split.train
    train_x = features.values[train_idx].astype(np.float64)
    train_targets = target_batch(codebook, labels.values[train_idx])
    if config.loss_mode == "CE":
        train_labels = np.argmax(labels.values[train_idx], axis=1).astype(np.int64)
    else:
        train_labels = labels.values[train_idx].astype(np.float64)
    checkpoint_path = out if resume or config.checkpoint_every > 0 else None
    history = _run_epochs(net, velocity, config, first_epoch, train_x,
                          train_targets, train_labels, checkpoint_path)
    # A checkpointing run that trained has saved its last epoch already.
    if out is not None and (checkpoint_path is None or not history.records):
        save_network(net, out)
    return net, history


def train_state_path(checkpoint_path) -> str:
    return str(checkpoint_path) + ".state"


def save_checkpoint(net: HashNetwork, velocity: List[np.ndarray],
                    next_epoch: int, path, config: TrainConfig) -> None:
    """Model checkpoint plus a sidecar with the optimizer state and the
    `RESUME_FIELDS` of the config that trained it."""
    fields = [getattr(config, name) for name in RESUME_FIELDS]
    fields[-2:] = _LOSS_MODES.index(config.loss_mode), VARIANTS.index(
        config.variant)
    save_network(net, path)
    with open(train_state_path(path), "wb") as f:
        write_header(f, TRAIN_STATE_MAGIC, TRAIN_STATE_VERSION,
                     TRAIN_STATE_HEADER, next_epoch,
                     sum(v.size for v in velocity), *fields)
        for v in velocity:
            write_array(f, v, "<f8")


def load_checkpoint(path):
    """Returns (network, velocity, next_epoch, trained_with), the last a
    dict of the `RESUME_FIELDS` the checkpoint was trained with."""
    net = load_network(path)
    state_path = train_state_path(path)
    with open(state_path, "rb") as f:
        next_epoch, total, *fields = read_header(
            f, TRAIN_STATE_MAGIC, TRAIN_STATE_VERSION, TRAIN_STATE_HEADER)
        flat = read_array(f, "<f8", total, "velocity payload")
    mode_tag, variant_tag = fields[-2:]
    if mode_tag >= len(_LOSS_MODES) or variant_tag >= len(VARIANTS):
        raise FileFormatError(f"{state_path}: unknown loss mode tag "
                              f"{mode_tag} or variant tag {variant_tag}")
    fields[-2:] = _LOSS_MODES[mode_tag], VARIANTS[variant_tag]
    params = net.param_arrays()
    if total != sum(p.size for p in params):
        raise FileFormatError(
            f"{path}: velocity state does not match the architecture")
    velocity = []
    offset = 0
    for p in params:
        velocity.append(flat[offset:offset + p.size].reshape(p.shape))
        offset += p.size
    return net, velocity, next_epoch, dict(zip(RESUME_FIELDS, fields))
