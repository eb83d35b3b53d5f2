"""Mini-batch training loop: deterministic shuffling, halving LR schedule,
momentum SGD with weight decay, and exact checkpoint/resume."""

import csv
import time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .codebook import Codebook, target_batch
from .data import FeatureSet, LabelSet, Split, check_split
from .io import (FileFormatError, expect_magic, expect_version, read_array,
                 read_u32, read_u64, write_array, write_u32, write_u64)
from .model import (HashNetwork, LossBreakdown, NetworkSpec, backward,
                    build_network, load_network, save_network, sgd_step)
from .rng import make_rng

TRAIN_STATE_MAGIC = b"HCTS"
TRAIN_STATE_VERSION = 1

HISTORY_COLUMNS = ("epoch", "lr", "hadamard_loss", "classification_loss",
                   "total_loss", "seconds")


class NumericError(ArithmeticError):
    """A loss or gradient stopped being finite."""


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
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.lr_halving_period_epochs < 1:
            raise ValueError("lr_halving_period_epochs must be positive")
        if self.lambda_ < 0:
            raise ValueError("lambda must be non-negative")
        if self.loss_mode not in ("CE", "BCE"):
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")


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


def _validate_inputs(config: TrainConfig, features: FeatureSet, labels: LabelSet,
                     split: Split, codebook: Codebook) -> None:
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


def _run_epochs(net: HashNetwork, velocity: List[np.ndarray],
                config: TrainConfig, first_epoch: int,
                train_x: np.ndarray, train_targets, train_labels,
                checkpoint_path=None) -> TrainHistory:
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
        for lo in range(0, n_train, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            breakdown, grads = backward(
                net, train_x[batch], target_values[batch], target_mask[batch],
                train_labels[batch], config.lambda_, mode=config.loss_mode,
                variant=config.variant)
            if not np.isfinite(breakdown.total):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}: {breakdown}")
            hadamard_sum += breakdown.hadamard * batch.size
            cls_sum += breakdown.classification * batch.size
            effective_lambda = breakdown.lambda_
            for param, grad, v in zip(params, grads, velocity):
                decay = config.weight_decay if param.ndim == 2 else 0.0
                sgd_step(param, grad, v, lr, momentum=config.momentum,
                         weight_decay=decay)
        mean = LossBreakdown.compose(hadamard_sum / n_train, cls_sum / n_train,
                                     effective_lambda)
        history.records.append(EpochRecord(
            epoch=epoch, lr=lr, loss=mean,
            seconds=time.perf_counter() - start))
        if (checkpoint_path is not None and config.checkpoint_every > 0
                and (epoch + 1) % config.checkpoint_every == 0):
            save_checkpoint(net, velocity, epoch + 1, checkpoint_path)
    return history


def _prepare(config, features, labels, split, codebook):
    train_idx = split.train
    train_x = features.values[train_idx].astype(np.float64)
    train_targets = target_batch(codebook, labels.values[train_idx])
    if config.loss_mode == "CE":
        train_labels = np.argmax(labels.values[train_idx], axis=1).astype(np.int64)
    else:
        train_labels = labels.values[train_idx].astype(np.float64)
    return train_x, train_targets, train_labels


def train(config: TrainConfig, features: FeatureSet, labels: LabelSet,
          split: Split, codebook: Codebook, hidden: Tuple[int, ...] = (256,),
          checkpoint_path=None):
    """Train a fresh network; returns (network, history).

    Deterministic given the config: weights are initialized from the config
    seed and each epoch's shuffle is reseeded from (seed, epoch).
    """
    _validate_inputs(config, features, labels, split, codebook)
    spec = NetworkSpec(input_dim=features.dim, hidden=tuple(hidden),
                       code_bits=codebook.code_bits,
                       num_classes=labels.num_classes)
    net = build_network(spec, config.seed)
    velocity = [np.zeros_like(p) for p in net.param_arrays()]
    train_x, train_targets, train_labels = _prepare(
        config, features, labels, split, codebook)
    history = _run_epochs(net, velocity, config, 0, train_x, train_targets,
                          train_labels, checkpoint_path)
    return net, history


def resume(checkpoint_path, config: TrainConfig, features: FeatureSet,
           labels: LabelSet, split: Split, codebook: Codebook,
           hidden: Tuple[int, ...] = (256,)):
    """Continue training from a checkpoint written by save_checkpoint.

    The restored epoch counter and velocity state make the continuation
    bit-identical to an uninterrupted run with the same config.
    """
    _validate_inputs(config, features, labels, split, codebook)
    net, velocity, next_epoch = load_checkpoint(checkpoint_path)
    expected = NetworkSpec(input_dim=features.dim, hidden=tuple(hidden),
                           code_bits=codebook.code_bits,
                           num_classes=labels.num_classes)
    fresh = build_network(expected, 0)
    if net.architecture() != fresh.architecture():
        raise ValueError(
            f"checkpoint architecture {net.architecture()} does not match "
            f"requested {fresh.architecture()}")
    train_x, train_targets, train_labels = _prepare(
        config, features, labels, split, codebook)
    history = _run_epochs(net, velocity, config, next_epoch, train_x,
                          train_targets, train_labels, checkpoint_path)
    return net, history


def train_state_path(checkpoint_path) -> str:
    return str(checkpoint_path) + ".state"


def save_checkpoint(net: HashNetwork, velocity: List[np.ndarray],
                    next_epoch: int, path) -> None:
    """Model checkpoint plus a sidecar with the optimizer state."""
    save_network(net, path)
    with open(train_state_path(path), "wb") as f:
        f.write(TRAIN_STATE_MAGIC)
        write_u32(f, TRAIN_STATE_VERSION)
        write_u32(f, next_epoch)
        total = sum(v.size for v in velocity)
        write_u64(f, total)
        for v in velocity:
            write_array(f, v, "<f8")


def load_checkpoint(path):
    """Returns (network, velocity, next_epoch)."""
    net = load_network(path)
    with open(train_state_path(path), "rb") as f:
        expect_magic(f, TRAIN_STATE_MAGIC, train_state_path(path))
        expect_version(f, TRAIN_STATE_VERSION, train_state_path(path))
        next_epoch = read_u32(f, "epoch counter")
        total = read_u64(f, "velocity size")
        flat = read_array(f, "<f8", total, "velocity payload")
    params = net.param_arrays()
    if total != sum(p.size for p in params):
        raise FileFormatError(
            f"{path}: velocity state does not match the architecture")
    velocity = []
    offset = 0
    for p in params:
        velocity.append(flat[offset:offset + p.size].reshape(p.shape))
        offset += p.size
    return net, velocity, next_epoch
