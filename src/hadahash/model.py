"""Feed-forward hash network with analytic gradients.

The feature path is a stack of dense layers ending in a tanh hash layer of
width K; a linear classifier of width C sits on top of the hash layer. The
training objective is a masked mean-squared error pulling hash activations
toward their class codewords, plus an optional classification loss weighted
by lambda. All parameters are 64-bit during training.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .io import (FileFormatError, expect_magic, expect_version, read_array,
                 read_u8, read_u32, write_array, write_u8, write_u32)
from .rng import make_rng

CHECKPOINT_MAGIC = b"HCMD"
CHECKPOINT_VERSION = 1

ACTIVATION_TAGS = {"relu": 0, "tanh": 1, "identity": 2}
_TAG_TO_ACTIVATION = {tag: name for name, tag in ACTIVATION_TAGS.items()}

VARIANTS = ("full", "codebook_only", "classifier_only")

# Rows per forward pass when encoding a whole set, so memory holds one block
# of activations per layer instead of N x width.
ENCODE_BLOCK_ROWS = 1024


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_in, fan_out) float64
    bias: np.ndarray     # (fan_out,) float64
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATION_TAGS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValueError("layer weight/bias shapes do not chain")


@dataclass
class HashNetwork:
    """Feature layers (last one is the tanh hash layer) plus a linear classifier."""

    layers: List[DenseLayer]
    classifier: DenseLayer

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least the hash layer")
        width = self.layers[0].weights.shape[0]
        for layer in self.layers:
            if layer.weights.shape[0] != width:
                raise ValueError("layer dimensions do not chain")
            width = layer.weights.shape[1]
        if self.layers[-1].activation != "tanh":
            raise ValueError("hash layer must use tanh activation")
        if self.classifier.activation != "identity":
            raise ValueError("classifier must be linear")
        if self.classifier.weights.shape[0] != width:
            raise ValueError("classifier input width must match the hash layer")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def code_bits(self) -> int:
        return self.layers[-1].weights.shape[1]

    @property
    def num_classes(self) -> int:
        return self.classifier.weights.shape[1]

    def all_layers(self) -> List[DenseLayer]:
        return [*self.layers, self.classifier]

    def param_arrays(self) -> List[np.ndarray]:
        """Weights and biases in declaration order, mutable views."""
        params = []
        for layer in self.all_layers():
            params.append(layer.weights)
            params.append(layer.bias)
        return params

    def architecture(self) -> Tuple[Tuple[int, int, str], ...]:
        return tuple((l.weights.shape[0], l.weights.shape[1], l.activation)
                     for l in self.all_layers())


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden: Tuple[int, ...]
    code_bits: int
    num_classes: int


def build_network(spec: NetworkSpec, seed: int) -> HashNetwork:
    """Glorot-uniform weights from the seeded generator, zero biases."""
    rng = make_rng(seed)

    def dense(fan_in, fan_out, activation):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return DenseLayer(weights=weights, bias=np.zeros(fan_out), activation=activation)

    widths = [spec.input_dim, *spec.hidden]
    layers = [dense(widths[i], widths[i + 1], "relu") for i in range(len(widths) - 1)]
    layers.append(dense(widths[-1], spec.code_bits, "tanh"))
    classifier = dense(spec.code_bits, spec.num_classes, "identity")
    return HashNetwork(layers=layers, classifier=classifier)


def _apply(activation: str, z: np.ndarray) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "tanh":
        return np.tanh(z)
    return z


def _forward_cached(net: HashNetwork, x: np.ndarray):
    """Feature-path activations per layer, hash output, logits."""
    a = x
    cache = []
    for layer in net.layers:
        z = a @ layer.weights + layer.bias
        a = _apply(layer.activation, z)
        cache.append((z, a))
    logits = a @ net.classifier.weights + net.classifier.bias
    return cache, a, logits


def forward(net: HashNetwork, x: np.ndarray):
    """Hash activations in (-1, 1) and classifier logits for a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"batch must be a non-empty 2-D array, got shape {x.shape}")
    if x.shape[1] != net.input_dim:
        raise ValueError(f"batch width {x.shape[1]} != network input {net.input_dim}")
    _, u, logits = _forward_cached(net, x)
    return u, logits


def hash_activations(net: HashNetwork, x: np.ndarray) -> np.ndarray:
    """Hash activations of every row of x, forwarded ENCODE_BLOCK_ROWS at a time."""
    if x.shape[0] == 0:
        raise ValueError("no rows to encode")
    return np.vstack([forward(net, x[lo:lo + ENCODE_BLOCK_ROWS])[0]
                      for lo in range(0, x.shape[0], ENCODE_BLOCK_ROWS)])


def hadamard_loss(u: np.ndarray, target_values: np.ndarray,
                  target_mask: np.ndarray):
    """Masked mean-squared pull of hash activations toward codeword targets.

    value = (1 / (2 * batch)) * sum(mask * (u - t)^2)
    grad  = (1 / batch) * mask * (u - t)
    """
    if u.shape != target_values.shape or u.shape != target_mask.shape:
        raise ValueError("activation/target shapes do not match")
    batch = u.shape[0]
    diff = np.where(target_mask, u - target_values, 0.0)
    value = float(np.sum(diff * diff) / (2.0 * batch))
    grad = diff / batch
    return value, grad


def cross_entropy_loss(logits: np.ndarray, class_index: np.ndarray):
    """Mean negative log softmax probability of the true class.

    Stabilized by a per-row max shift; the gradient with respect to the
    logits is (softmax - onehot) / batch.
    """
    class_index = np.asarray(class_index)
    batch, num_classes = logits.shape
    if np.any(class_index < 0) or np.any(class_index >= num_classes):
        raise ValueError("class index out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(batch)
    value = float(np.mean(log_norm - shifted[rows, class_index]))
    softmax = np.exp(shifted - log_norm[:, None])
    grad = softmax
    grad[rows, class_index] -= 1.0
    return value, grad / batch


def bce_loss(logits: np.ndarray, y: np.ndarray):
    """Per-class sigmoid binary cross entropy, mean over batch and classes.

    Uses the log-sum-exp form max(z,0) - z*y + log(1 + exp(-|z|)), which is
    exact and never overflows; the gradient is (sigmoid(z) - y) / (B * C).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != logits.shape:
        raise ValueError("label matrix shape does not match logits")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary")
    batch, num_classes = logits.shape
    elementwise = (np.maximum(logits, 0.0) - logits * y
                   + np.log1p(np.exp(-np.abs(logits))))
    value = float(elementwise.sum() / (batch * num_classes))
    sigmoid = 1.0 / (1.0 + np.exp(-logits))
    grad = (sigmoid - y) / (batch * num_classes)
    return value, grad


@dataclass(frozen=True)
class LossBreakdown:
    hadamard: float
    classification: float
    lambda_: float
    total: float

    @staticmethod
    def compose(hadamard: float, classification: float, lambda_: float) -> "LossBreakdown":
        return LossBreakdown(hadamard=hadamard, classification=classification,
                             lambda_=lambda_,
                             total=hadamard + lambda_ * classification)


def backward(net: HashNetwork, x: np.ndarray, target_values: np.ndarray,
             target_mask: np.ndarray, labels, lambda_: float,
             mode: str = "CE", variant: str = "full"):
    """Loss breakdown and exact gradients of the combined objective.

    The gradients come as a list parallel to `net.param_arrays()`: weights
    and bias of each feature layer, then the classifier's.

    The classification gradient flows through the classifier into the hash
    activations, where the codeword-regression gradient is added; both then
    backpropagate through the feature path. `variant` selects the ablations:
    "codebook_only" drops the classification term from the objective and
    "classifier_only" drops the codeword term.
    """
    if mode not in ("CE", "BCE"):
        raise ValueError(f"unknown loss mode {mode!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if lambda_ < 0:
        raise ValueError(f"lambda must be non-negative, got {lambda_}")
    x = np.asarray(x, dtype=np.float64)
    cache, u, logits = _forward_cached(net, x)

    hadamard_value, grad_u_hadamard = hadamard_loss(u, target_values, target_mask)
    if mode == "CE":
        cls_value, grad_logits = cross_entropy_loss(logits, labels)
    else:
        cls_value, grad_logits = bce_loss(logits, labels)

    include_hadamard = variant != "classifier_only"
    if variant == "full":
        effective_lambda = lambda_
    elif variant == "codebook_only":
        effective_lambda = 0.0
    else:
        effective_lambda = 1.0

    grad_logits = grad_logits * effective_lambda
    grads = [u.T @ grad_logits, grad_logits.sum(axis=0)]
    grad_a = grad_logits @ net.classifier.weights.T
    if include_hadamard:
        grad_a = grad_a + grad_u_hadamard

    for i in range(len(net.layers) - 1, -1, -1):
        z, a = cache[i]
        layer = net.layers[i]
        if layer.activation == "tanh":
            grad_z = grad_a * (1.0 - a * a)
        elif layer.activation == "relu":
            grad_z = grad_a * (z > 0.0)
        else:
            grad_z = grad_a
        a_prev = x if i == 0 else cache[i - 1][1]
        grads[:0] = [a_prev.T @ grad_z, grad_z.sum(axis=0)]
        if i > 0:
            grad_a = grad_z @ layer.weights.T

    breakdown = LossBreakdown.compose(
        hadamard=hadamard_value if include_hadamard else 0.0,
        classification=cls_value,
        lambda_=effective_lambda)
    return breakdown, grads


def sgd_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float = 0.9, weight_decay: float = 5e-4) -> None:
    """One momentum-SGD update of `param` and `velocity`, both in place.

    v <- momentum * v + grad + weight_decay * param
    param <- param - lr * v

    The decay term is added even when weight_decay is 0: adding 0.0 * param
    can turn a -0.0 velocity entry into +0.0, and resumed training must
    reproduce every bit. Callers pass weight_decay=0 for bias vectors.
    """
    velocity *= momentum
    velocity += grad
    velocity += weight_decay * param
    param -= lr * velocity


def save_network(net: HashNetwork, path) -> None:
    """Checkpoint: architecture header then parameters as little-endian f64."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        write_u32(f, CHECKPOINT_VERSION)
        all_layers = net.all_layers()
        write_u32(f, len(all_layers))
        for layer in all_layers:
            write_u32(f, layer.weights.shape[0])
            write_u32(f, layer.weights.shape[1])
            write_u8(f, ACTIVATION_TAGS[layer.activation])
        for layer in all_layers:
            write_array(f, layer.weights, "<f8")
            write_array(f, layer.bias, "<f8")


def load_network(path) -> HashNetwork:
    with open(path, "rb") as f:
        expect_magic(f, CHECKPOINT_MAGIC, path)
        expect_version(f, CHECKPOINT_VERSION, path)
        count = read_u32(f, "layer count")
        if count < 2:
            raise FileFormatError(
                f"{path}: checkpoint needs at least hash and classifier layers")
        shapes = []
        for _ in range(count):
            fan_in = read_u32(f, "layer fan-in")
            fan_out = read_u32(f, "layer fan-out")
            tag = read_u8(f, "activation tag")
            if tag not in _TAG_TO_ACTIVATION:
                raise FileFormatError(f"{path}: unknown activation tag {tag}")
            shapes.append((fan_in, fan_out, _TAG_TO_ACTIVATION[tag]))
        layers = []
        for fan_in, fan_out, activation in shapes:
            weights = read_array(f, "<f8", fan_in * fan_out, "weights").reshape(fan_in, fan_out)
            bias = read_array(f, "<f8", fan_out, "bias")
            layers.append(DenseLayer(weights=weights, bias=bias, activation=activation))
    return HashNetwork(layers=layers[:-1], classifier=layers[-1])
