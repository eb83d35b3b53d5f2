import math

import numpy as np
import pytest

from hadahash.io import BadMagicError, FileFormatError, TruncatedFileError
from hadahash.model import (DenseLayer, HashNetwork, LossBreakdown,
                            NetworkSpec, backward, bce_loss, build_network,
                            cross_entropy_loss, forward, hadamard_loss,
                            load_network, save_network, sgd_step)
from hadahash import model
from hadahash.rng import make_rng


def _zero_network(input_dim=3, hidden=4, code_bits=2, num_classes=3):
    return HashNetwork(
        layers=[
            DenseLayer(np.zeros((input_dim, hidden)), np.zeros(hidden), "relu"),
            DenseLayer(np.zeros((hidden, code_bits)), np.zeros(code_bits), "tanh"),
        ],
        classifier=DenseLayer(np.zeros((code_bits, num_classes)),
                              np.zeros(num_classes), "identity"))


def _total_loss(net, x, tv, tm, labels, lam, mode, variant="full"):
    breakdown, _ = backward(net, x, tv, tm, labels, lam, mode=mode, variant=variant)
    return breakdown.total


def _finite_difference_grads(net, x, tv, tm, labels, lam, mode, variant="full",
                             eps_scale=1e-5):
    """Central differences of the composed objective for every parameter."""
    fd = []
    for param in net.param_arrays():
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = param[idx]
            eps = eps_scale * max(1.0, abs(original))
            param[idx] = original + eps
            up = _total_loss(net, x, tv, tm, labels, lam, mode, variant)
            param[idx] = original - eps
            down = _total_loss(net, x, tv, tm, labels, lam, mode, variant)
            param[idx] = original
            grad[idx] = (up - down) / (2.0 * eps)
        fd.append(grad)
    return fd


def _relative_error(analytic, numeric):
    num = np.linalg.norm(analytic - numeric)
    den = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return num / den


def _cached_forward(net, x):
    """Textbook (z, a) of each feature layer: z = a @ W + b, then a = f(z),
    in the network's dtype."""
    a = np.asarray(x, dtype=net.layers[0].weights.dtype)
    cache = []
    for layer in net.layers:
        z = a @ layer.weights + layer.bias
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "tanh":
            a = np.tanh(z)
        else:
            a = z
        cache.append((z, a))
    return cache


def _cached_backward(net, x, tv, tm, labels, lam, mode, variant,
                     relu_passes=lambda z: z > 0.0):
    """Reference backward over the (z, a) cache, in the network's dtype: a
    relu passes the gradient where `relu_passes(z)`."""
    x = np.asarray(x, dtype=net.layers[0].weights.dtype)
    cache = _cached_forward(net, x)
    u = cache[-1][1]
    logits = u @ net.classifier.weights + net.classifier.bias
    hadamard_value, grad_u = hadamard_loss(u, tv, tm)
    loss = cross_entropy_loss if mode == "CE" else bce_loss
    cls_value, grad_logits = loss(logits, labels)
    lam = {"full": lam, "codebook_only": 0.0, "classifier_only": 1.0}[variant]
    grad_logits = grad_logits * lam
    grads = [u.T @ grad_logits, grad_logits.sum(axis=0)]
    grad_a = grad_logits @ net.classifier.weights.T
    if variant != "classifier_only":
        grad_a = grad_a + grad_u
    for i in reversed(range(len(net.layers))):
        z, a = cache[i]
        layer = net.layers[i]
        if layer.activation == "tanh":
            grad_z = grad_a * (1.0 - a * a)
        elif layer.activation == "relu":
            grad_z = grad_a * relu_passes(z)
        else:
            grad_z = grad_a
        a_prev = x if i == 0 else cache[i - 1][1]
        grads[:0] = [a_prev.T @ grad_z, grad_z.sum(axis=0)]
        grad_a = grad_z @ layer.weights.T
    breakdown = LossBreakdown.compose(
        hadamard=0.0 if variant == "classifier_only" else hadamard_value,
        classification=cls_value, lambda_=lam)
    return breakdown, grads


def _assert_same_bits(got, expected):
    assert got[0] == expected[0]
    assert len(got[1]) == len(expected[1])
    for g, e in zip(got[1], expected[1]):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert g.tobytes() == e.tobytes()


def _random_case(rng, mode, depth=None):
    if depth is None:
        depth = rng.integers(0, 3)
    hidden = tuple(int(rng.integers(2, 16)) for _ in range(depth))
    spec = NetworkSpec(input_dim=int(rng.integers(2, 10)), hidden=hidden,
                       code_bits=int(rng.integers(2, 12)),
                       num_classes=int(rng.integers(2, 8)))
    net = build_network(spec, seed=int(rng.integers(0, 10_000)))
    # jitter the zero biases so no relu pre-activation sits exactly on the
    # kink, where central differences are not valid
    for param in net.param_arrays():
        param += rng.normal(scale=0.05, size=param.shape)
    batch = int(rng.integers(1, 6))
    x = rng.normal(size=(batch, spec.input_dim))
    tv = rng.choice([-1.0, 0.0, 1.0], size=(batch, spec.code_bits))
    tm = tv != 0
    tv[~tm] = 0.0
    # keep at least one live bit per row
    for i in range(batch):
        if not tm[i].any():
            tm[i, 0] = True
            tv[i, 0] = 1.0
    if mode == "CE":
        labels = rng.integers(0, spec.num_classes, size=batch)
    else:
        labels = (rng.random((batch, spec.num_classes)) < 0.5).astype(np.float64)
    lam = float(rng.choice([0.0, 0.3, 1.0, 2.5]))
    return net, x, tv, tm, labels, lam


def _golden_two_layer():
    """A relu and a tanh layer under a two-class classifier, and one row."""
    w0 = np.array([[0.5, -1.0], [0.25, 0.75]])
    b0 = np.array([0.1, -0.2])
    w1 = np.array([[1.5], [-0.5]])
    b1 = np.array([0.05])
    net = HashNetwork(
        layers=[DenseLayer(w0, b0, "relu"), DenseLayer(w1, b1, "tanh")],
        classifier=DenseLayer(np.array([[2.0], [0.0]]).T, np.array([0.3, -0.3]),
                              "identity"))
    return net, np.array([[1.0, 2.0]])


# The golden network's hash output and logits for its row, computed with
# scalar math, independent of the vectorized path.
_GOLDEN_Z0 = [1.0 * 0.5 + 2.0 * 0.25 + 0.1, 1.0 * -1.0 + 2.0 * 0.75 - 0.2]
_GOLDEN_U = math.tanh(max(_GOLDEN_Z0[0], 0.0) * 1.5
                      + max(_GOLDEN_Z0[1], 0.0) * -0.5 + 0.05)
_GOLDEN_LOGITS = [_GOLDEN_U * 2.0 + 0.3, _GOLDEN_U * 0.0 - 0.3]


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = _zero_network()
        u = forward(net, np.ones((4, 3)))
        assert u.shape == (4, 2)
        assert np.all(u == 0.0)

    def test_hash_activations_inside_unit_interval(self):
        net = build_network(NetworkSpec(5, (8,), 6, 4), seed=0)
        rng = np.random.default_rng(0)
        u = forward(net, rng.normal(scale=2.0, size=(20, 5)))
        assert np.all(np.abs(u) < 1.0)
        # extreme inputs saturate to 1.0 exactly in float64, never beyond
        u_big = forward(net, rng.normal(scale=1e6, size=(20, 5)))
        assert np.all(np.abs(u_big) <= 1.0)

    def test_golden_two_layer_forward(self):
        net, x = _golden_two_layer()
        assert forward(net, x)[0, 0] == pytest.approx(_GOLDEN_U, rel=1e-15)

    def test_batch_permutation_equivariance(self):
        net = build_network(NetworkSpec(4, (6,), 5, 3), seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 4))
        perm = rng.permutation(10)
        assert np.array_equal(forward(net, x)[perm], forward(net, x[perm]))

    @pytest.mark.parametrize("hidden", [(), (12,), (256, 64)])
    @pytest.mark.parametrize("rows", [1, 2, 7, 1025])
    def test_matches_the_cached_forward_bitwise(self, hidden, rows):
        # The in-place layers keep every bit of the textbook (z, a) cache's
        # output, with a checkpoint's identity layer among them too.
        net = build_network(NetworkSpec(40, hidden, 33, 4), seed=len(hidden))
        x = np.random.default_rng(rows).normal(scale=2.0, size=(rows, 40))
        for batch in (x, x.astype(np.float32)):
            assert forward(net, batch).tobytes() == \
                _cached_forward(net, batch)[-1][1].tobytes()
        if hidden:
            net.layers[0].activation = "identity"
            assert forward(net, x).tobytes() == \
                _cached_forward(net, x)[-1][1].tobytes()

    def test_rejects_width_mismatch_and_empty_batch(self):
        net = build_network(NetworkSpec(4, (6,), 5, 3), seed=1)
        with pytest.raises(ValueError, match="width"):
            forward(net, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-empty"):
            forward(net, np.zeros((0, 4)))


class TestHadamardLoss:
    def test_exact_fit_is_zero(self):
        t = np.array([[1.0, -1.0, 1.0]])
        value, grad = hadamard_loss(t.copy(), t, np.ones_like(t, dtype=bool))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_zero_activations_cost_half_per_bit(self):
        k = 6
        t = np.array([[1.0, -1.0] * 3])
        value, _ = hadamard_loss(np.zeros((1, k)), t, np.ones((1, k), dtype=bool))
        assert value == pytest.approx(k / 2)

    def test_masked_bits_do_not_contribute(self):
        u = np.array([[0.5, -0.9]])
        t = np.array([[1.0, 0.0]])
        mask = np.array([[True, False]])
        value, grad = hadamard_loss(u, t, mask)
        assert value == pytest.approx(0.5 * 0.25)
        assert grad[0, 1] == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, size=(4, 8))
        t = rng.choice([-1.0, 1.0], size=(4, 8))
        mask = np.ones_like(t, dtype=bool)
        perm = rng.permutation(8)
        v1, _ = hadamard_loss(u, t, mask)
        v2, _ = hadamard_loss(u[:, perm], t[:, perm], mask[:, perm])
        assert v1 == pytest.approx(v2, rel=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = rng.uniform(-0.99, 0.99, size=(3, 5))
            t = rng.choice([-1.0, 0.0, 1.0], size=(3, 5))
            mask = t != 0
            _, grad = hadamard_loss(u, t, mask)
            fd = np.zeros_like(u)
            eps = 1e-6
            for idx in np.ndindex(u.shape):
                up = u.copy(); up[idx] += eps
                dn = u.copy(); dn[idx] -= eps
                fd[idx] = (hadamard_loss(up, t, mask)[0]
                           - hadamard_loss(dn, t, mask)[0]) / (2 * eps)
            assert _relative_error(grad, fd) < 1e-6


class TestCrossEntropyLoss:
    def test_uniform_logits(self):
        value, _ = cross_entropy_loss(np.zeros((1, 3)), np.array([1]))
        assert value == pytest.approx(math.log(3), rel=1e-12)

    def test_large_logit_is_stable(self):
        value, grad = cross_entropy_loss(np.array([[1000.0, 0.0, 0.0]]),
                                         np.array([0]))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        _, grad = cross_entropy_loss(logits, labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        softmax = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        onehot = np.eye(6)[labels]
        assert np.allclose(grad, (softmax - onehot) / 4, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(3, 4))
        labels = rng.integers(0, 4, size=3)
        _, grad = cross_entropy_loss(logits, labels)
        fd = np.zeros_like(logits)
        eps = 1e-6
        for idx in np.ndindex(logits.shape):
            up = logits.copy(); up[idx] += eps
            dn = logits.copy(); dn[idx] -= eps
            fd[idx] = (cross_entropy_loss(up, labels)[0]
                       - cross_entropy_loss(dn, labels)[0]) / (2 * eps)
        assert _relative_error(grad, fd) < 1e-6

    def test_rejects_out_of_range_class(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy_loss(np.zeros((1, 3)), np.array([3]))


class TestBceLoss:
    def test_zero_logits(self):
        value, _ = bce_loss(np.zeros((2, 4)), np.ones((2, 4)))
        assert value == pytest.approx(math.log(2), rel=1e-12)

    def test_confident_correct_logit_vanishes(self):
        value, _ = bce_loss(np.full((1, 2), 50.0), np.ones((1, 2)))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_gradient_formula(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(3, 5))
        y = (rng.random((3, 5)) < 0.5).astype(np.float64)
        _, grad = bce_loss(logits, y)
        sigmoid = 1.0 / (1.0 + np.exp(-logits))
        assert np.allclose(grad, (sigmoid - y) / (3 * 5), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(2, 4))
        y = (rng.random((2, 4)) < 0.5).astype(np.float64)
        _, grad = bce_loss(logits, y)
        fd = np.zeros_like(logits)
        eps = 1e-6
        for idx in np.ndindex(logits.shape):
            up = logits.copy(); up[idx] += eps
            dn = logits.copy(); dn[idx] -= eps
            fd[idx] = (bce_loss(up, y)[0] - bce_loss(dn, y)[0]) / (2 * eps)
        assert _relative_error(grad, fd) < 1e-6

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            bce_loss(np.zeros((1, 2)), np.array([[0.5, 1.0]]))


class TestBackward:
    @pytest.mark.parametrize("mode, labels", [
        ("CE", [0]), ("CE", [1]), ("BCE", [[1.0, 0.0]]), ("BCE", [[0.0, 1.0]])])
    def test_golden_two_layer_classification_loss(self, mode, labels):
        # Only backward makes the logits: its classification loss must be
        # the loss of the scalar-computed logits.
        net, x = _golden_two_layer()
        breakdown, _ = backward(net, x, np.zeros((1, 1)),
                                np.zeros((1, 1), dtype=bool),
                                np.array(labels), 1.0, mode=mode)
        if mode == "CE":
            log_norm = math.log(sum(math.exp(v) for v in _GOLDEN_LOGITS))
            expected = log_norm - _GOLDEN_LOGITS[labels[0]]
        else:
            expected = sum(math.log1p(math.exp(v)) - v * y for v, y
                           in zip(_GOLDEN_LOGITS, labels[0])) / 2
        assert breakdown.classification == pytest.approx(expected, rel=1e-14)

    def test_lambda_zero_equals_codeword_term_alone(self):
        rng = np.random.default_rng(9)
        net = build_network(NetworkSpec(4, (5,), 3, 2), seed=3)
        x = rng.normal(size=(4, 4))
        tv = rng.choice([-1.0, 1.0], size=(4, 3))
        tm = np.ones_like(tv, dtype=bool)
        labels = rng.integers(0, 2, size=4)
        _, with_zero = backward(net, x, tv, tm, labels, 0.0, mode="CE")
        _, codeword_only = backward(net, x, tv, tm, labels, 5.0, mode="CE",
                                    variant="codebook_only")
        for a, b in zip(with_zero, codeword_only):
            assert np.array_equal(a, b)

    def test_breakdown_total_identity(self):
        rng = np.random.default_rng(10)
        net = build_network(NetworkSpec(4, (), 3, 2), seed=3)
        x = rng.normal(size=(2, 4))
        tv = rng.choice([-1.0, 1.0], size=(2, 3))
        tm = np.ones_like(tv, dtype=bool)
        breakdown, _ = backward(net, x, tv, tm, np.array([0, 1]), 0.7, mode="CE")
        assert breakdown.total == breakdown.hadamard + 0.7 * breakdown.classification

    def test_zero_gradient_fixed_point(self):
        # Zero network on a class-balanced batch: hash output matches the
        # all-masked target and the classifier sits at a critical point.
        net = _zero_network(input_dim=3, hidden=4, code_bits=2, num_classes=2)
        x = np.array([[1.0, -2.0, 0.5], [0.3, 0.4, -0.1]])
        tv = np.zeros((2, 2))
        tm = np.zeros((2, 2), dtype=bool)
        labels = np.array([0, 1])
        breakdown, grads = backward(net, x, tv, tm, labels, 1.0, mode="CE")
        assert breakdown.hadamard == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_classifier_only_blocks_codeword_gradient(self):
        # With zero classifier weights, the only path into the feature
        # layers is the codeword term; classifier_only must cut it.
        net = build_network(NetworkSpec(4, (5,), 3, 2), seed=3)
        net.classifier.weights[...] = 0.0
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 4))
        tv = rng.choice([-1.0, 1.0], size=(4, 3))
        tm = np.ones_like(tv, dtype=bool)
        labels = rng.integers(0, 2, size=4)
        _, grads = backward(net, x, tv, tm, labels, 1.0, mode="CE",
                            variant="classifier_only")
        for g in grads[:-2]:  # weights and bias of each feature layer
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("variant", model.VARIANTS)
    @pytest.mark.parametrize("mode", ["CE", "BCE"])
    def test_matches_the_cached_backward_bitwise(self, mode, variant, depth):
        # Each case runs on a float32 network, training's precision, and on
        # the float64 one it was drawn as.
        rng = np.random.default_rng([depth, len(variant), len(mode)])
        for _ in range(3):
            net64, x, tv64, tm, labels, lam = _random_case(rng, mode, depth)
            for dtype in (np.float32, np.float64):
                net, tv = net64.astype(dtype), tv64.astype(dtype)
                got = backward(net, x, tv, tm, labels, lam, mode, variant)
                assert all(g.dtype == dtype for g in got[1])
                _assert_same_bits(got, _cached_backward(
                    net, x, tv, tm, labels, lam, mode, variant))

    @pytest.mark.parametrize("hidden", [(3,), (3, 4)])
    @pytest.mark.parametrize("mode", ["CE", "BCE"])
    def test_relu_blocks_the_gradient_at_signed_zeros(self, mode, hidden):
        # Relu unit 0 of the first layer sits at +0.0 on every row, and unit
        # 1 at -0.0 on row 0: a GEMM of two or more rows and inputs sums the
        # underflowing products of its tiny inputs and weights to -0.0, and
        # its bias is -0.0. Neither unit is on, so neither passes its
        # nonzero upstream gradient.
        rng = np.random.default_rng(len(hidden))
        net = build_network(NetworkSpec(5, hidden, 6, 3), seed=4)
        x = rng.normal(size=(4, 5))
        tv = rng.choice([-1.0, 1.0], size=(4, 6))
        tm = np.ones_like(tv, dtype=bool)
        labels = (rng.integers(0, 3, size=4) if mode == "CE"
                  else (rng.random((4, 3)) < 0.5).astype(np.float64))
        lam = 0.5
        first = net.layers[0]
        first.weights[:, 0] = 0.0
        first.bias[0] = 0.0
        first.weights[:, 1] = 1e-200
        first.bias[1] = -0.0
        x[0] = -1e-200
        z = _cached_forward(net, x)[0][0]
        assert np.all(z[:, 0] == 0.0) and not np.any(np.signbit(z[:, 0]))
        assert z[0, 1] == 0.0 and np.signbit(z[0, 1])
        args = (net, x, tv, tm, labels, lam, mode, "full")
        got = backward(*args)
        _assert_same_bits(got, _cached_backward(*args))
        for unit in (0, 1):
            leaky = _cached_backward(
                *args, relu_passes=lambda z: (z > 0.0) | (
                    (z == 0.0) & (np.arange(z.shape[1]) == unit)))
            assert got[1][1][unit] != leaky[1][1][unit]

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["CE", "BCE"])
    def test_leaves_its_inputs_alone(self, mode, depth):
        # backward overwrites its own buffers only: the batch, targets,
        # labels and parameters keep their bytes, so a second call on the
        # same arguments returns the same bits. The batch is float64, so
        # backward's first activation is `x` itself.
        rng = np.random.default_rng([depth, len(mode), 7])
        net, x, tv, tm, labels, lam = _random_case(rng, mode, depth)
        inputs = [x, tv, tm, labels, *net.param_arrays()]
        before = [a.tobytes() for a in inputs]
        first = backward(net, x, tv, tm, labels, lam, mode)
        assert [a.tobytes() for a in inputs] == before
        _assert_same_bits(backward(net, x, tv, tm, labels, lam, mode), first)
        assert [a.tobytes() for a in inputs] == before

    @pytest.mark.parametrize("mode", ["CE", "BCE"])
    def test_composed_gradients_match_finite_differences(self, mode):
        rng = np.random.default_rng(12 if mode == "CE" else 13)
        for _ in range(4):
            net, x, tv, tm, labels, lam = _random_case(rng, mode)
            _, grads = backward(net, x, tv, tm, labels, lam, mode=mode)
            fd = _finite_difference_grads(net, x, tv, tm, labels, lam, mode)
            for analytic, numeric in zip(grads, fd):
                assert _relative_error(analytic, numeric) < 1e-5


class TestSgdStep:
    def test_plain_step(self):
        p, v = np.array([1.0]), np.array([0.0])
        sgd_step(p, np.array([1.0]), v, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert p[0] == pytest.approx(0.9)

    def test_momentum_recursion(self):
        p, v = np.array([0.0]), np.array([0.0])
        sgd_step(p, np.array([1.0]), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p[0] == pytest.approx(-0.1)
        sgd_step(p, np.array([1.0]), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p[0] == pytest.approx(-0.29)

    def test_decay_only_shrinks_geometrically(self):
        p, v = np.array([2.0]), np.array([0.0])
        for _ in range(3):
            sgd_step(p, np.array([0.0]), v, lr=0.1, momentum=0.0,
                     weight_decay=5e-4)
        assert p[0] == pytest.approx(2.0 * (1 - 0.1 * 5e-4) ** 3, rel=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_in_place_matches_out_of_place_bits(self, weight_decay):
        block = model.SGD_BLOCK_ENTRIES
        rng = np.random.default_rng(5)
        # One entry, one block and either side of it, two blocks and a
        # tail, and rows of 10,001 entries, of which rows 3 and 6 straddle
        # a block edge.
        for shape in [(1,), (block - 1,), (block,), (block + 1,),
                      (2 * block + 7,), (7, 10_001)]:
            param, grad, velocity = (rng.normal(size=shape)
                                     for _ in range(3))
            # The eight sign combinations of zeros in param, grad and
            # velocity on the entries around each block edge and each end.
            size = param.size
            signs = {"param": [0.0, -0.0] * 4,
                     "grad": [0.0, 0.0, -0.0, -0.0] * 2,
                     "velocity": [0.0] * 4 + [-0.0] * 4}
            for edge in range(0, size + block, block):
                at = np.arange(min(edge, size) - 4, min(edge, size) + 4)
                keep = (at >= 0) & (at < size)
                for name, array in (("param", param), ("grad", grad),
                                    ("velocity", velocity)):
                    array.reshape(-1)[at[keep]] = np.array(signs[name])[keep]
            for _ in range(3):
                expected_v = 0.9 * velocity + grad + weight_decay * param
                expected_p = param - 0.01 * expected_v
                assert sgd_step(param, grad, velocity, lr=0.01, momentum=0.9,
                                weight_decay=weight_decay) is None
                assert param.tobytes() == expected_p.tobytes()
                assert velocity.tobytes() == expected_v.tobytes()

    @pytest.mark.parametrize("which", ["param", "grad", "velocity"])
    @pytest.mark.parametrize("make", [
        # A transposed matrix and a strided vector.
        lambda: np.full((4, 6), 0.5).T, lambda: np.full(12, 0.5)[::2]])
    def test_non_contiguous_argument_is_an_error(self, which, make):
        odd = make()
        arrays = {name: odd if name == which else np.full(odd.shape, 0.5)
                  for name in ("param", "grad", "velocity")}
        before = {name: a.copy() for name, a in arrays.items()}
        with pytest.raises(ValueError, match="must be C-contiguous"):
            sgd_step(arrays["param"], arrays["grad"], arrays["velocity"],
                     lr=0.1)
        for name, a in arrays.items():
            assert a.tobytes() == before[name].tobytes()

    @pytest.mark.parametrize("which", ["grad", "velocity"])
    def test_a_blocked_update_needs_the_param_shape(self, which):
        # Flat blocks of a (2, B) param would pair its entries with those
        # of a (B, 2) array of the same size, which no whole-array update
        # accepts.
        shape = (2, model.SGD_BLOCK_ENTRIES)
        arrays = {name: np.full(shape, 0.5)
                  for name in ("param", "grad", "velocity")}
        arrays[which] = np.full(shape[::-1], 0.5)
        with pytest.raises(ValueError, match="must have the param's shape"):
            sgd_step(arrays["param"], arrays["grad"], arrays["velocity"],
                     lr=0.1)
        assert all(np.all(a == 0.5) for a in arrays.values())

    def test_arrays_update_elementwise(self):
        p = np.array([1.0, -1.0])
        g = np.array([0.5, 0.5])
        sgd_step(p, g, np.zeros(2), lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(p, [0.95, -1.05])


class TestRowBlocks:
    # 2**17 entries over a width of 128 make blocks of 1024 rows.
    @pytest.mark.parametrize("n, bounds", [
        (1, [(0, 1)]),
        (2, [(0, 2)]),
        (1023, [(0, 1023)]),
        (1024, [(0, 1024)]),
        (1025, [(0, 1025)]),
        (1026, [(0, 1024), (1024, 1026)]),
        (2049, [(0, 1024), (1024, 2049)]),
        (3000, [(0, 1024), (1024, 2048), (2048, 3000)]),
    ])
    def test_one_row_tail_joins_the_block_before(self, n, bounds):
        assert model.ENCODE_BLOCK_ENTRIES == 1 << 17
        assert model.row_blocks(n, 128) == bounds

    @pytest.mark.parametrize("n, width, bounds", [
        # The budget rounds down: 3276 rows of 40 entries.
        (3277, 40, [(0, 3277)]),
        (3278, 40, [(0, 3276), (3276, 3278)]),
        (2, 1, [(0, 2)]),
        (131073, 1, [(0, 131073)]),
        (131074, 1, [(0, 131072), (131072, 131074)]),
        # 1024 entries are the last width the budget sets alone; wider rows
        # take the 128-row floor, a one-row tail still joining the block
        # before.
        (257, 1024, [(0, 128), (128, 257)]),
        (129, 1025, [(0, 129)]),
        (258, 1025, [(0, 128), (128, 256), (256, 258)]),
        (300, 9000, [(0, 128), (128, 256), (256, 300)]),
    ])
    def test_rows_are_the_budget_over_the_width_with_a_floor(self, n, width,
                                                             bounds):
        assert model.ENCODE_BLOCK_MIN_ROWS == 128
        assert model.row_blocks(n, width) == bounds

    def test_no_rows_is_an_error(self):
        with pytest.raises(ValueError, match="no rows to encode"):
            model.row_blocks(0, 8)

    @pytest.mark.parametrize("spec, widest", [
        (NetworkSpec(6, (), 16, 3), 16),
        (NetworkSpec(40, (), 32, 3), 40),
        (NetworkSpec(6, (9000,), 16, 3), 9000),
        (NetworkSpec(6, (12, 300, 5), 16, 3), 300),
        # The classifier does not run when a set is encoded.
        (NetworkSpec(6, (8,), 16, 5000), 16)])
    def test_widest_layer(self, spec, widest):
        assert build_network(spec, seed=0).widest_layer == widest


class TestBuildNetwork:
    @pytest.mark.parametrize("hidden", [(), (8,), (8, 4)])
    def test_spec_architecture_is_the_built_one(self, hidden):
        spec = NetworkSpec(6, hidden, 5, 3)
        assert spec.architecture() == build_network(spec, seed=4).architecture()

    def test_draws_glorot_weights_layer_by_layer(self):
        # The reference draw order: feature layers input to hash, then the
        # classifier, each fan_in x fan_out from one seeded stream.
        spec = NetworkSpec(6, (8, 4), 5, 3)
        net = build_network(spec, seed=4)
        rng = make_rng(4)
        for layer, (fan_in, fan_out) in zip(
                net.all_layers(), [(6, 8), (8, 4), (4, 5), (5, 3)]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            expected = rng.uniform(-limit, limit, size=(fan_in, fan_out))
            assert np.array_equal(layer.weights, expected)
            assert np.array_equal(layer.bias, np.zeros(fan_out))

    def test_astype_rounds_a_copy(self):
        # Training's float32 copy: each entry rounded once, the source
        # untouched, and back to float64 exactly.
        net = build_network(NetworkSpec(6, (8,), 5, 3), seed=4)
        before = [p.copy() for p in net.param_arrays()]
        single = net.astype(np.float32)
        assert single.architecture() == net.architecture()
        for p, q, b in zip(single.param_arrays(), net.param_arrays(), before):
            assert p.dtype == np.float32 and np.array_equal(p, b.astype(np.float32))
            assert np.array_equal(q, b)
        for p, q in zip(single.astype(np.float64).param_arrays(),
                        single.param_arrays()):
            assert p.dtype == np.float64 and np.array_equal(p, q)

    @pytest.mark.parametrize("hidden, code_bits, num_classes, message", [
        ((-3,), 5, 3, "layer 0 has width -3"),
        ((4, 0), 5, 3, "layer 1 has width 0"),
        ((), 0, 3, "layer 0 has width 0"),
        ((8,), 5, 0, "layer 2 has width 0")])
    def test_spec_rejects_widths_below_one(self, hidden, code_bits,
                                           num_classes, message):
        with pytest.raises(ValueError, match=message):
            NetworkSpec(6, hidden, code_bits, num_classes)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        net = build_network(NetworkSpec(6, (8, 4), 5, 3), seed=4)
        path = tmp_path / "net.hcmd"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.architecture() == net.architecture()
        for a, b in zip(loaded.param_arrays(), net.param_arrays()):
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "net.hcmd"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(BadMagicError):
            load_network(path)

    def test_truncated(self, tmp_path):
        net = build_network(NetworkSpec(6, (8,), 5, 3), seed=4)
        path = tmp_path / "net.hcmd"
        save_network(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(TruncatedFileError):
            load_network(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layer, part, name", [
        (0, "weights", "layer 0 weights"), (0, "bias", "layer 0 bias"),
        (1, "weights", "layer 1 weights"), (2, "bias", "classifier bias")])
    def test_non_finite_parameter_is_rejected(self, tmp_path, bad, layer,
                                              part, name):
        net = build_network(NetworkSpec(6, (8,), 5, 3), seed=4)
        getattr(net.all_layers()[layer], part).flat[-1] = bad
        path = tmp_path / "net.hcmd"
        save_network(net, path)
        with pytest.raises(FileFormatError) as err:
            load_network(path)
        assert str(err.value) == f"{path}: {name} holds a non-finite value"

    @pytest.mark.parametrize("hidden", [(0,), (4, 0)])
    def test_zero_width_layer_is_rejected(self, tmp_path, hidden):
        with pytest.raises(ValueError, match="width 0"):
            build_network(NetworkSpec(6, hidden, 5, 3), seed=4)
        # A checkpoint whose records declare such a layer fails on load.
        widths = (6, *hidden, 5)
        net = build_network(NetworkSpec(6, (), 5, 3), seed=4)
        net.layers = [DenseLayer(np.zeros(widths[i:i + 2]),
                                 np.zeros(widths[i + 1]),
                                 "relu" if i < len(hidden) else "tanh")
                      for i in range(len(widths) - 1)]
        save_network(net, tmp_path / "net.hcmd")
        with pytest.raises(ValueError,
                           match=f"layer {len(hidden) - 1} has width 0"):
            load_network(tmp_path / "net.hcmd")

    def test_network_invariants_enforced(self):
        with pytest.raises(ValueError, match="tanh"):
            HashNetwork(
                layers=[DenseLayer(np.zeros((2, 2)), np.zeros(2), "relu")],
                classifier=DenseLayer(np.zeros((2, 2)), np.zeros(2), "identity"))
        with pytest.raises(ValueError, match="chain"):
            HashNetwork(
                layers=[DenseLayer(np.zeros((2, 3)), np.zeros(3), "relu"),
                        DenseLayer(np.zeros((4, 2)), np.zeros(2), "tanh")],
                classifier=DenseLayer(np.zeros((2, 2)), np.zeros(2), "identity"))


class TestLossBreakdown:
    def test_compose_identity(self):
        b = LossBreakdown.compose(1.25, 0.5, 0.1)
        assert b.total == 1.25 + 0.1 * 0.5
