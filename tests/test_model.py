import math

import numpy as np
import pytest

from hadahash.io import BadMagicError, TruncatedFileError
from hadahash.model import (DenseLayer, HashNetwork, LossBreakdown,
                            NetworkSpec, backward, bce_loss, build_network,
                            cross_entropy_loss, forward, hadamard_loss,
                            hash_activations, load_network, save_network,
                            sgd_step)
from hadahash import model


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


def _random_case(rng, mode):
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


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = _zero_network()
        u, logits = forward(net, np.ones((4, 3)))
        assert np.all(u == 0.0)
        assert np.all(logits == 0.0)

    def test_hash_activations_inside_unit_interval(self):
        net = build_network(NetworkSpec(5, (8,), 6, 4), seed=0)
        rng = np.random.default_rng(0)
        u, _ = forward(net, rng.normal(scale=2.0, size=(20, 5)))
        assert np.all(np.abs(u) < 1.0)
        # extreme inputs saturate to 1.0 exactly in float64, never beyond
        u_big, _ = forward(net, rng.normal(scale=1e6, size=(20, 5)))
        assert np.all(np.abs(u_big) <= 1.0)

    def test_golden_two_layer_forward(self):
        # Expected values computed with scalar math, independent of the
        # vectorized path.
        w0 = np.array([[0.5, -1.0], [0.25, 0.75]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[1.5], [-0.5]])
        b1 = np.array([0.05])
        net = HashNetwork(
            layers=[DenseLayer(w0, b0, "relu"), DenseLayer(w1, b1, "tanh")],
            classifier=DenseLayer(np.array([[2.0], [0.0]]).T, np.array([0.3, -0.3]),
                                  "identity"))
        x = np.array([[1.0, 2.0]])
        z0 = [1.0 * 0.5 + 2.0 * 0.25 + 0.1, 1.0 * -1.0 + 2.0 * 0.75 - 0.2]
        a0 = [max(z0[0], 0.0), max(z0[1], 0.0)]
        z1 = a0[0] * 1.5 + a0[1] * -0.5 + 0.05
        u_expected = math.tanh(z1)
        logits_expected = [u_expected * 2.0 + 0.3, u_expected * 0.0 - 0.3]
        u, logits = forward(net, x)
        assert u[0, 0] == pytest.approx(u_expected, rel=1e-15)
        assert logits[0].tolist() == pytest.approx(logits_expected, rel=1e-15)

    def test_batch_permutation_equivariance(self):
        net = build_network(NetworkSpec(4, (6,), 5, 3), seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 4))
        perm = rng.permutation(10)
        u, logits = forward(net, x)
        u_perm, logits_perm = forward(net, x[perm])
        assert np.array_equal(u[perm], u_perm)
        assert np.array_equal(logits[perm], logits_perm)

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
        rng = np.random.default_rng(5)
        shape = (6, 4)
        param = rng.normal(size=shape)
        param[0] = [0.0, -0.0, 0.0, -0.0]
        grad = rng.normal(size=shape)
        grad[0] = [0.0, 0.0, -0.0, -0.0]
        velocity = rng.normal(size=shape)
        velocity[0] = -0.0
        for _ in range(3):
            expected_v = 0.9 * velocity + grad + weight_decay * param
            expected_p = param - 0.01 * expected_v
            assert sgd_step(param, grad, velocity, lr=0.01, momentum=0.9,
                            weight_decay=weight_decay) is None
            assert param.tobytes() == expected_p.tobytes()
            assert velocity.tobytes() == expected_v.tobytes()

    def test_arrays_update_elementwise(self):
        p = np.array([1.0, -1.0])
        g = np.array([0.5, 0.5])
        sgd_step(p, g, np.zeros(2), lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(p, [0.95, -1.05])


class TestHashActivations:
    def test_forwards_in_blocks(self, monkeypatch):
        net = build_network(NetworkSpec(6, (5,), 8, 3), seed=2)
        x = np.random.default_rng(3).normal(
            size=(2 * model.ENCODE_BLOCK_ROWS + 7, 6))
        seen = []
        real_forward = model.forward

        def counting_forward(net, rows):
            seen.append(rows.shape[0])
            return real_forward(net, rows)

        monkeypatch.setattr(model, "forward", counting_forward)
        u = hash_activations(net, x)
        assert seen == [model.ENCODE_BLOCK_ROWS, model.ENCODE_BLOCK_ROWS, 7]
        blocks = [real_forward(net, x[lo:lo + model.ENCODE_BLOCK_ROWS])[0]
                  for lo in range(0, x.shape[0], model.ENCODE_BLOCK_ROWS)]
        assert np.array_equal(u, np.vstack(blocks))
        assert np.allclose(u, real_forward(net, x)[0], rtol=1e-12, atol=1e-15)


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
