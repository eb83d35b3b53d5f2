"""Feed-forward hash network with analytic gradients.

The feature path is a stack of dense layers ending in a tanh hash layer of
width K; a linear classifier of width C sits on top of the hash layer. The
training objective is a masked mean-squared error pulling hash activations
toward their class codewords, plus an optional classification loss weighted
by lambda.

Training computes in float32: `trainer.train` rounds the network, its
optimizer state and its batches to float32 once, and `backward`, the losses
and `sgd_step` then compute in the dtype of the network they are given.
Files and encoding stay float64: HCMD stores every weight and bias as
float64, an exact upcast of the float32 values training leaves, and
`forward` computes in float64 whatever the batch's dtype.

One layer loop, `_activations`, feeds both `forward`, which keeps only the
hash layer that encoding reads, and `backward`, which alone computes the
logits (the classifier only trains) and consumes each activation once its
gradient is taken.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .io import (FileFormatError, check_end, read_array, read_header,
                 write_array, write_header)
from .rng import make_rng

CHECKPOINT_MAGIC = b"HCMD"
CHECKPOINT_VERSION = 1
# The layer count, then one packed record per layer.
CHECKPOINT_HEADER = "I"
LAYER_RECORD = np.dtype([("fan_in", "<u4"), ("fan_out", "<u4"),
                         ("activation", "u1")])

ACTIVATION_TAGS = {"relu": 0, "tanh": 1, "identity": 2}
_TAG_TO_ACTIVATION = {tag: name for name, tag in ACTIVATION_TAGS.items()}

VARIANTS = ("full", "codebook_only", "classifier_only")

# Float64 entries of the widest row a block makes when a whole set is
# encoded or hashed: a block of `row_blocks(n, width)` holds
# max(ENCODE_BLOCK_MIN_ROWS, ENCODE_BLOCK_ENTRIES // width) rows, 1 MiB
# of float64 per activation unless the floor binds. Memory holds the set's
# packed codes and, per worker thread, one block of rows and the
# activation of one layer at a time (two while `_activations` multiplies),
# never N x width floats, and no more at a wide layer than at a narrow
# one. Below 128 rows the per-block calls cost more than the GEMM saves
# (up to x1.8 slower at 14-32 rows of a 9000-wide layer); above it,
# memory grows with the rows and speed does not. A one-row tail joins the
# block before it: BLAS multiplies a single row through another kernel
# (gemv), whose last bit can differ from the GEMM's, so every row of a set
# of two or more goes through a GEMM.
ENCODE_BLOCK_ENTRIES = 1 << 17
ENCODE_BLOCK_MIN_ROWS = 128

# Entries per flat block of `sgd_step`: its four passes over a block of
# velocity, parameter and their temporaries stay in cache.
SGD_BLOCK_ENTRIES = 32768


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_in, fan_out) float64, float32 in training
    bias: np.ndarray     # (fan_out,) of the weights' dtype
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
        for i, layer in enumerate(self.all_layers()):
            if layer.weights.shape[1] < 1:
                raise ValueError(f"layer {i} has width 0; every layer needs "
                                 "at least one output")
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

    @property
    def widest_layer(self) -> int:
        """Entries of the widest float64 row `forward` makes: the input's or
        a feature layer's (the classifier does not run there)."""
        return max(self.input_dim, *(l.weights.shape[1] for l in self.layers))

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

    def astype(self, dtype) -> "HashNetwork":
        """A copy with every weight and bias cast to `dtype`."""
        cast = [DenseLayer(l.weights.astype(dtype), l.bias.astype(dtype),
                           l.activation) for l in self.all_layers()]
        return HashNetwork(layers=cast[:-1], classifier=cast[-1])


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden: Tuple[int, ...]
    code_bits: int
    num_classes: int

    def __post_init__(self):
        for i, (_, width, _) in enumerate(self.architecture()):
            if width < 1:
                raise ValueError(f"layer {i} has width {width}; every layer "
                                 "needs at least one output")

    def architecture(self) -> Tuple[Tuple[int, int, str], ...]:
        """(fan_in, fan_out, activation) of each layer built from this
        spec, as `HashNetwork.architecture` lists them."""
        widths = (self.input_dim, *self.hidden, self.code_bits)
        activations = ("relu",) * len(self.hidden) + ("tanh",)
        return (*zip(widths[:-1], widths[1:], activations),
                (self.code_bits, self.num_classes, "identity"))


def param_names(net: HashNetwork) -> List[str]:
    """"layer i weights", "layer i bias", ..., "classifier weights" and
    "classifier bias", parallel to `net.param_arrays()`."""
    names = [f"layer {i}" for i in range(len(net.layers))] + ["classifier"]
    return [f"{name} {part}" for name in names
            for part in ("weights", "bias")]


def first_non_finite(net: HashNetwork, arrays=None) -> Optional[str]:
    """The name (`param_names`) of the first of `arrays`, which run
    parallel to `net.param_arrays()` (the parameters themselves by
    default), that holds a non-finite value; None when every one is
    finite."""
    if arrays is None:
        arrays = net.param_arrays()
    for part, values in zip(param_names(net), arrays):
        if not np.isfinite(values).all():
            return part
    return None


def build_network(spec: NetworkSpec, seed: int) -> HashNetwork:
    """Glorot-uniform weights from the seeded generator, zero biases."""
    rng = make_rng(seed)
    layers = []
    for fan_in, fan_out, activation in spec.architecture():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(DenseLayer(weights=weights, bias=np.zeros(fan_out),
                                 activation=activation))
    return HashNetwork(layers=layers[:-1], classifier=layers[-1])


def _activations(net: HashNetwork, a: np.ndarray):
    """Each feature layer's activation of the batch a, in order, in the
    dtype of a and of the network.

    Each product is biased and activated in place, and rebinding `a` drops
    the layer before (the batch too). A relu is positive exactly where its
    pre-activation is, so `a > 0` is its derivative mask, bit for bit.
    """
    for layer in net.layers:
        a = a @ layer.weights
        a += layer.bias
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        elif layer.activation == "tanh":
            np.tanh(a, out=a)
        yield a


def forward(net: HashNetwork, x: np.ndarray) -> np.ndarray:
    """Hash activations in [-1, 1] for a batch; the classifier is not run."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError(f"batch must be a non-empty 2-D array, got shape {a.shape}")
    if a.shape[1] != net.input_dim:
        raise ValueError(f"batch width {a.shape[1]} != network input {net.input_dim}")
    for a in _activations(net, a):
        pass
    return a


def row_blocks(n: int, width: int):
    """(lo, hi) bounds of the blocks of n rows whose widest float64 row has
    `width` entries: max(ENCODE_BLOCK_MIN_ROWS, ENCODE_BLOCK_ENTRIES //
    width) rows each.

    A one-row tail joins the block before it, so with n >= 2 no block has
    a single row.
    """
    if n == 0:
        raise ValueError("no rows to encode")
    step = max(ENCODE_BLOCK_MIN_ROWS, ENCODE_BLOCK_ENTRIES // width)
    cuts = list(range(0, n, step))
    if n > 1 and n - cuts[-1] == 1:
        cuts.pop()
    cuts.append(n)
    return list(zip(cuts[:-1], cuts[1:]))


def hash_layer(net: HashNetwork):
    """The map from a block of feature rows to its hash activations; its
    widest row is `net.widest_layer` entries, the width to block it by.

    It calls the module's `forward`, so a wrapper put there sees every block
    that `retrieval.encode_rows` encodes, on any thread, and no training
    batch: `backward` runs `_activations` itself.
    """
    return lambda rows: forward(net, rows)


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
    diff /= batch
    return value, diff


def cross_entropy_loss(logits: np.ndarray, class_index: np.ndarray):
    """Mean negative log softmax probability of the true class.

    Stabilized by a per-row max shift; the gradient with respect to the
    logits is (softmax - onehot) / batch.
    """
    class_index = np.asarray(class_index)
    batch, num_classes = logits.shape
    if class_index.size and (class_index.min() < 0
                             or class_index.max() >= num_classes):
        raise ValueError("class index out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(batch)
    # The sum and the division in the logits' dtype, as `np.mean` makes them.
    value = float((log_norm - shifted[rows, class_index]).sum() / batch)
    grad = np.exp(shifted - log_norm[:, None])
    grad[rows, class_index] -= 1.0
    grad /= batch
    return value, grad


def bce_loss(logits: np.ndarray, y: np.ndarray):
    """Per-class sigmoid binary cross entropy, mean over batch and classes.

    Uses the log-sum-exp form max(z,0) - z*y + log(1 + exp(-|z|)), which is
    exact and never overflows; the gradient is (sigmoid(z) - y) / (B * C).
    """
    y = np.asarray(y, dtype=logits.dtype)
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
    backpropagate through the activations `_activations` makes for
    `forward` too. `variant` selects the ablations: "codebook_only" drops
    the classification term from the objective and "classifier_only" drops
    the codeword term.

    It computes in the dtype of the network's weights: the batch and the
    BCE labels are cast to it, and the targets are expected in it.

    Every elementwise step writes into a buffer this call made and reads no
    more: the logits take their bias in place, the loss gradients are
    scaled and summed in place, and each layer's activation is overwritten
    by its derivative once its gradient is taken. The values and their
    order are those of the out-of-place formulas, bit for bit. `x`, the
    targets, the labels and the network are never written.
    """
    if mode not in ("CE", "BCE"):
        raise ValueError(f"unknown loss mode {mode!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if lambda_ < 0:
        raise ValueError(f"lambda must be non-negative, got {lambda_}")
    # The batch itself, in the network's dtype, is the activation below the
    # first layer.
    acts = [np.asarray(x, dtype=net.layers[0].weights.dtype)]
    acts.extend(_activations(net, acts[0]))
    u = acts[-1]
    logits = u @ net.classifier.weights
    logits += net.classifier.bias

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

    grad_logits *= effective_lambda
    grads = [u.T @ grad_logits, grad_logits.sum(axis=0)]
    grad_a = grad_logits @ net.classifier.weights.T
    if include_hadamard:
        grad_a += grad_u_hadamard

    # Layer i's gradient reads the activation below it, acts[i], so its own
    # activation acts[i + 1] is free to take its derivative; acts[0], the
    # caller's batch, is never written.
    for i in range(len(net.layers) - 1, -1, -1):
        a = acts[i + 1]
        layer = net.layers[i]
        if layer.activation == "tanh":
            a *= a
            np.subtract(1.0, a, out=a)
            grad_a *= a
        elif layer.activation == "relu":
            np.multiply(grad_a, a > 0.0, out=grad_a)
        grads[:0] = [acts[i].T @ grad_a, grad_a.sum(axis=0)]
        if i > 0:
            grad_a = grad_a @ layer.weights.T

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

    The arrays must be C-contiguous, so that no update lands on a copy. A
    param of more than SGD_BLOCK_ENTRIES entries is updated one flat block
    at a time, through this function, and needs a grad and a velocity of
    its own shape: each entry takes the same four operations in the same
    order, so it gets the bits of one whole-array pass. Anything else is a
    ValueError.
    """
    if not (param.flags.c_contiguous and grad.flags.c_contiguous
            and velocity.flags.c_contiguous):
        raise ValueError("param, grad and velocity must be C-contiguous")
    if param.size > SGD_BLOCK_ENTRIES:
        if grad.shape != param.shape or velocity.shape != param.shape:
            raise ValueError(f"grad {grad.shape} and velocity "
                             f"{velocity.shape} must have the param's shape "
                             f"{param.shape}")
        flat = param.reshape(-1), grad.reshape(-1), velocity.reshape(-1)
        for lo in range(0, param.size, SGD_BLOCK_ENTRIES):
            sgd_step(*(a[lo:lo + SGD_BLOCK_ENTRIES] for a in flat), lr,
                     momentum, weight_decay)
        return
    velocity *= momentum
    velocity += grad
    velocity += weight_decay * param
    param -= lr * velocity


def save_network(net: HashNetwork, path) -> None:
    """Checkpoint: architecture header then parameters as little-endian f64."""
    all_layers = net.all_layers()
    records = [(*layer.weights.shape, ACTIVATION_TAGS[layer.activation])
               for layer in all_layers]
    with open(path, "wb") as f:
        write_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                     CHECKPOINT_HEADER, len(all_layers))
        write_array(f, records, LAYER_RECORD)
        for layer in all_layers:
            write_array(f, layer.weights, "<f8")
            write_array(f, layer.bias, "<f8")


def load_network(path) -> HashNetwork:
    with open(path, "rb") as f:
        count, = read_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             CHECKPOINT_HEADER)
        if count < 2:
            raise FileFormatError(
                f"{path}: checkpoint needs at least hash and classifier layers")
        records = read_array(f, LAYER_RECORD, count, "layer records").tolist()
        for _, _, tag in records:
            if tag not in _TAG_TO_ACTIVATION:
                raise FileFormatError(f"{path}: unknown activation tag {tag}")
        layers = []
        for fan_in, fan_out, tag in records:
            activation = _TAG_TO_ACTIVATION[tag]
            weights = read_array(f, "<f8", fan_in * fan_out, "weights").reshape(fan_in, fan_out)
            bias = read_array(f, "<f8", fan_out, "bias")
            layers.append(DenseLayer(weights=weights, bias=bias, activation=activation))
        check_end(f)
    net = HashNetwork(layers=layers[:-1], classifier=layers[-1])
    # Training never saves a non-finite parameter, and one would encode as
    # plausible codes: a NaN activation binarizes to 0.
    bad = first_non_finite(net)
    if bad:
        raise FileFormatError(f"{path}: {bad} holds a non-finite value")
    return net
