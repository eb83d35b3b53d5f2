import csv
from dataclasses import replace

import numpy as np
import pytest

from hadahash import model, trainer
from hadahash.codebook import build_codebook, target_batch
from hadahash.analysis import ablate, lambda_sweep
from hadahash.data import (LabelSet, Split, make_synthetic_blobs,
                           split_protocol)
from hadahash.io import FileFormatError
from hadahash.model import NetworkSpec, build_network, load_network, sgd_step
from hadahash.rng import make_rng
from hadahash.trainer import (RESUME_FIELDS, NumericError, TrainConfig,
                              learning_rate, load_checkpoint, save_checkpoint,
                              train)
from test_model import _cached_backward


@pytest.fixture(scope="module")
def small_setup():
    features, labels = make_synthetic_blobs(4, 30, 8, 0.5, seed=1)
    split = split_protocol(labels, 2, 10, seed=1)
    book = build_codebook(8, 4, seed=1)
    return features, labels, split, book


@pytest.fixture(scope="module")
def blob_setup():
    features, labels = make_synthetic_blobs(8, 200, 16, 0.5, seed=1)
    split = split_protocol(labels, 10, 50, seed=1)
    book = build_codebook(16, 8, seed=2)
    return features, labels, split, book


def _params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.param_arrays(),
                                                    b.param_arrays()))


class TestSchedule:
    def test_closed_form(self):
        config = TrainConfig(epochs=200, base_lr=1e-4,
                             lr_halving_period_epochs=50)
        for epoch in range(200):
            assert learning_rate(config, epoch) == 1e-4 * 0.5 ** (epoch // 50)

    def test_history_lr_matches_schedule(self, small_setup):
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=7, base_lr=0.01,
                             lr_halving_period_epochs=3, seed=5)
        _, history = train(config, features, labels, split, book, hidden=(8,))
        for record in history.records:
            assert record.lr == learning_rate(config, record.epoch)


class TestTrain:
    def test_zero_epochs_returns_initial_network(self, small_setup):
        # The Glorot draw rounded to float32, returned as float64.
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=0, seed=9)
        net, history = train(config, features, labels, split, book, hidden=(8,))
        fresh = build_network(NetworkSpec(8, (8,), 8, 4), seed=9)
        assert _params_equal(net, fresh.astype(np.float32))
        assert not _params_equal(net, fresh)
        assert all(p.dtype == np.float64 for p in net.param_arrays())
        assert history.records == []

    def test_deterministic_history_and_parameters(self, small_setup):
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=5, base_lr=0.01, seed=4)
        net_a, hist_a = train(config, features, labels, split, book, hidden=(8,))
        net_b, hist_b = train(config, features, labels, split, book, hidden=(8,))
        assert _params_equal(net_a, net_b)
        for ra, rb in zip(hist_a.records, hist_b.records):
            assert ra.epoch == rb.epoch
            assert ra.lr == rb.lr
            assert ra.loss == rb.loss

    def test_loss_drops_by_an_order_of_magnitude(self, blob_setup):
        # Frozen desk-scale regression: the observed ratio on this setup is
        # about 0.003, far under the 0.1 bound.
        features, labels, split, book = blob_setup
        config = TrainConfig(epochs=60, base_lr=0.01, lambda_=1.0, seed=1)
        _, history = train(config, features, labels, split, book)
        first = history.records[0].loss.total
        last = history.records[-1].loss.total
        assert last < 0.1 * first

    def test_losses_stay_finite(self, blob_setup):
        features, labels, split, book = blob_setup
        config = TrainConfig(epochs=10, base_lr=0.01, seed=1)
        _, history = train(config, features, labels, split, book)
        for record in history.records:
            assert np.isfinite(record.loss.total)
            assert np.isfinite(record.loss.hadamard)
            assert np.isfinite(record.loss.classification)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            TrainConfig(variant="bogus")

    @pytest.mark.parametrize("name, value", [
        ("seed", -1), ("seed", 2**64), ("batch_size", 2**64),
        ("lr_halving_period_epochs", 2**64)])
    def test_rejects_fields_past_64_bits(self, name, value):
        with pytest.raises(ValueError) as err:
            TrainConfig(**{name: value})
        assert str(err.value) == f"{name} must fit in 64 bits, got {value}"

    def test_accepts_the_largest_64_bit_fields(self):
        TrainConfig(seed=2**64 - 1, batch_size=2**64 - 1,
                    lr_halving_period_epochs=2**64 - 1)

    def test_out_without_checkpointing_holds_the_model(self, small_setup,
                                                       tmp_path):
        features, labels, split, book = small_setup
        out = tmp_path / "model.hcmd"
        config = TrainConfig(epochs=2, base_lr=0.01, seed=3)
        net, _ = train(config, features, labels, split, book, hidden=(8,),
                       out=out)
        assert _params_equal(load_network(out), net)
        assert sorted(tmp_path.iterdir()) == [out]

    def test_resume_needs_out(self, small_setup):
        features, labels, split, book = small_setup
        with pytest.raises(ValueError, match="checkpoint path"):
            train(TrainConfig(epochs=1), features, labels, split, book,
                  hidden=(8,), resume=True)

    def test_rejects_mismatched_codebook(self, small_setup):
        features, labels, split, _ = small_setup
        wrong = build_codebook(8, 6, seed=1)
        with pytest.raises(ValueError, match="classes"):
            train(TrainConfig(epochs=1), features, labels, split, wrong)

    @pytest.mark.parametrize("run", ["train", "ablate", "sweep"])
    @pytest.mark.parametrize("num_items", [119, 121])
    def test_split_of_another_item_count_trains_no_epoch(
            self, small_setup, monkeypatch, run, num_items):
        features, labels, split, book = small_setup

        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(trainer, "_run_epochs", no_epoch)
        roles = np.zeros(num_items, dtype=np.uint8)
        roles[:119] = split.roles[:119]
        other = Split(roles=roles)
        config = TrainConfig(epochs=1)
        calls = {
            "train": lambda: train(config, features, labels, other, book),
            "ablate": lambda: ablate(config, features, labels, other, book),
            "sweep": lambda: lambda_sweep(config, [0, 1], features, labels,
                                          other, book)}
        with pytest.raises(ValueError) as err:
            calls[run]()
        assert str(err.value) == (f"the split covers {num_items} items, not "
                                  f"the 120 features")

    def test_rejects_multilabel_in_ce_mode(self, small_setup):
        features, _, split, book = small_setup
        values = np.zeros((features.num_items, 4), dtype=np.uint8)
        values[:, 0] = 1
        values[::2, 1] = 1
        labels = LabelSet(values=values)
        with pytest.raises(ValueError, match="single-label"):
            train(TrainConfig(epochs=1, loss_mode="CE"), features, labels,
                  split, book)
        # One two-label row among one-hot rows: N + 1 positives.
        values[:, 1] = 0
        values[7, 1] = 1
        with pytest.raises(ValueError, match="^CE mode requires single-label "
                                             "data; use BCE$"):
            train(TrainConfig(epochs=1, loss_mode="CE"), features,
                  LabelSet(values=values), split, book)

    def test_numeric_blowup_raises(self, small_setup):
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=3, base_lr=1e200, weight_decay=1e200, seed=1)
        with pytest.raises(NumericError):
            train(config, features, labels, split, book, hidden=(8,))

    @pytest.mark.parametrize("layer, part, name", [
        (0, "weights", "layer 0 weights"), (1, "bias", "layer 1 bias"),
        (2, "weights", "classifier weights"), (2, "bias", "classifier bias")])
    def test_non_finite_loss_names_the_parameter(self, small_setup, tmp_path,
                                                 monkeypatch, layer, part,
                                                 name):
        # A resumed network with one NaN entry: the run's first batch has a
        # NaN loss, and the error names the parameter that holds it. The
        # loaders reject a non-finite file, so the NaN enters after the load.
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=3, base_lr=0.01, seed=1, batch_size=16)
        path = tmp_path / "m.hcmd"
        train(replace(config, epochs=1), features, labels, split, book,
              hidden=(8,), out=path)
        net = load_network(path)
        save_checkpoint(net, [np.zeros_like(p) for p in net.param_arrays()],
                        1, path, config)
        real_load = trainer.load_checkpoint

        def load_with_nan(checkpoint_path):
            loaded = real_load(checkpoint_path)
            getattr(loaded[0].all_layers()[layer], part).flat[3] = np.nan
            return loaded

        monkeypatch.setattr(trainer, "load_checkpoint", load_with_nan)
        with pytest.raises(NumericError) as info:
            train(config, features, labels, split, book, hidden=(8,),
                  out=path, resume=True)
        message = str(info.value)
        assert message.startswith("non-finite loss at epoch 1, batch 0: ")
        assert message.endswith(f"; {name} holds a non-finite value")

    def test_non_finite_loss_over_finite_parameters_says_so(self, small_setup,
                                                            tmp_path):
        # Every hash activation saturates at +1 and every classifier weight
        # is 3e38, near float32's largest: the float32 logits overflow
        # although each parameter is finite.
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=2, base_lr=0.01, seed=1)
        path = tmp_path / "m.hcmd"
        net = build_network(NetworkSpec(8, (8,), 8, 4), seed=1).astype(
            np.float32)
        net.layers[1].bias[:] = 3e38
        net.classifier.weights[:] = 3e38
        save_checkpoint(net, [np.zeros_like(p) for p in net.param_arrays()],
                        0, path, config)
        with pytest.raises(NumericError) as info:
            train(config, features, labels, split, book, hidden=(8,),
                  out=path, resume=True)
        message = str(info.value)
        assert message.startswith("non-finite loss at epoch 0, batch 0: ")
        assert message.endswith("; no parameter holds a non-finite value")

    @pytest.mark.parametrize("checkpoint_every", [0, 1])
    def test_non_finite_last_update_is_not_saved(self, small_setup, tmp_path,
                                                 checkpoint_every):
        # One batch per epoch: its loss is finite and its update overflows.
        # The epoch's check raises before any model or checkpoint is saved.
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=1, batch_size=1000, base_lr=1e200,
                             weight_decay=1e200, seed=1,
                             checkpoint_every=checkpoint_every)
        path = tmp_path / "m.hcmd"
        with pytest.raises(NumericError, match=(
                r"^layer 0 weights holds a non-finite value after epoch "
                r"0, batch 0$")):
            train(config, features, labels, split, book, hidden=(8,),
                  out=path)
        assert list(tmp_path.iterdir()) == []

    def test_history_csv_columns(self, small_setup, tmp_path):
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=3, base_lr=0.01, seed=1)
        _, history = train(config, features, labels, split, book, hidden=(8,))
        path = tmp_path / "history.csv"
        history.to_csv(path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "lr", "hadamard_loss",
                           "classification_loss", "total_loss", "seconds"]
        assert len(rows) == 4
        assert float(rows[1][4]) == history.records[0].loss.total


class TestWholeRun:
    """A whole run of a net whose weights span several `sgd_step` blocks
    against a test-local loop over the reference backward and the
    out-of-place SGD formula, with the same shuffles and learning rates,
    all in float32."""

    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize("mode", ["CE", "BCE"])
    def test_matches_the_reference_loop(self, small_setup, tmp_path, mode,
                                        resume):
        features, labels, split, book = small_setup
        hidden = (9000,)
        config = TrainConfig(epochs=3, batch_size=16, base_lr=0.01,
                             lr_halving_period_epochs=2, lambda_=0.5,
                             loss_mode=mode, seed=2, checkpoint_every=3)
        net = build_network(NetworkSpec(features.dim, hidden, book.code_bits,
                                        labels.num_classes),
                            config.seed).astype(np.float32)
        assert net.layers[0].weights.size > 2 * model.SGD_BLOCK_ENTRIES
        velocity = [np.zeros_like(p) for p in net.param_arrays()]
        x = features.values[split.train].astype(np.float32)
        tv, tm = target_batch(book, labels.values[split.train])
        tv = tv.astype(np.float32)
        y = labels.values[split.train]
        y = (np.argmax(y, axis=1).astype(np.int64) if mode == "CE"
             else y.astype(np.float32))
        for epoch in range(config.epochs):
            lr = learning_rate(config, epoch)
            order = make_rng(config.seed, epoch).permutation(x.shape[0])
            for lo in range(0, x.shape[0], config.batch_size):
                b = order[lo:lo + config.batch_size]
                _, grads = _cached_backward(net, x[b], tv[b], tm[b], y[b],
                                            config.lambda_, mode, "full")
                for i, (p, g) in enumerate(zip(net.param_arrays(), grads)):
                    assert g.dtype == np.float32
                    decay = config.weight_decay if p.ndim == 2 else 0.0
                    velocity[i] = config.momentum * velocity[i] + g + decay * p
                    p[...] = p - lr * velocity[i]
        expected = tmp_path / "expected.hcmd"
        save_checkpoint(net, velocity, config.epochs, expected, config)

        out = tmp_path / "trained.hcmd"
        if resume:
            train(replace(config, epochs=1, checkpoint_every=1), features,
                  labels, split, book, hidden=hidden, out=out)
        train(config, features, labels, split, book, hidden=hidden, out=out,
              resume=resume)
        assert out.read_bytes() == expected.read_bytes()
        assert (tmp_path / "trained.hcmd.state").read_bytes() == (
            tmp_path / "expected.hcmd.state").read_bytes()


class TestResume:
    def test_resume_equals_straight_run(self, small_setup, tmp_path):
        features, labels, split, book = small_setup
        ckpt = tmp_path / "model.hcmd"
        short = TrainConfig(epochs=6, base_lr=0.01, seed=3, checkpoint_every=6)
        train(short, features, labels, split, book, hidden=(8,), out=ckpt)
        full_config = TrainConfig(epochs=12, base_lr=0.01, seed=3)
        resumed, more = train(full_config, features, labels, split, book,
                              hidden=(8,), out=ckpt, resume=True)
        straight, whole = train(full_config, features, labels, split, book,
                                hidden=(8,))
        assert _params_equal(resumed, straight)
        assert [r.epoch for r in more.records] == list(range(6, 12))
        for ra, rb in zip(more.records, whole.records[6:]):
            assert ra.loss == rb.loss

    def test_resume_rejects_wrong_width(self, small_setup, tmp_path):
        features, labels, split, book = small_setup
        ckpt = tmp_path / "model.hcmd"
        config = TrainConfig(epochs=2, base_lr=0.01, seed=3, checkpoint_every=2)
        train(config, features, labels, split, book, hidden=(8,), out=ckpt)
        wrong_book = build_codebook(16, 4, seed=1)
        with pytest.raises(ValueError, match="architecture"):
            train(replace(config, epochs=4), features, labels, split,
                  wrong_book, hidden=(8,), out=ckpt, resume=True)

    def test_resume_rejects_a_checkpoint_past_the_epochs(self, small_setup,
                                                         tmp_path):
        features, labels, split, book = small_setup
        ckpt = tmp_path / "model.hcmd"
        config = TrainConfig(epochs=4, base_lr=0.01, seed=3, checkpoint_every=4)
        train(config, features, labels, split, book, hidden=(8,), out=ckpt)
        with pytest.raises(ValueError) as err:
            train(replace(config, epochs=3), features, labels, split,
                  book, hidden=(8,), out=ckpt, resume=True)
        assert str(err.value) == (f"checkpoint {ckpt} is at epoch 4, past "
                                  f"the 3 epochs requested")
        _, history = train(config, features, labels, split, book,
                           hidden=(8,), out=ckpt, resume=True)
        assert history.records == []

    @pytest.mark.parametrize("name, value", [
        ("seed", 4), ("batch_size", 7), ("base_lr", 0.5),
        ("lr_halving_period_epochs", 2), ("momentum", 0.5),
        ("weight_decay", 0.0), ("lambda_", 0.5), ("loss_mode", "BCE"),
        ("variant", "codebook_only")])
    def test_resume_rejects_another_config(self, small_setup, tmp_path,
                                           monkeypatch, name, value):
        features, labels, split, book = small_setup
        ckpt = tmp_path / "model.hcmd"
        config = TrainConfig(epochs=2, base_lr=0.01, seed=3,
                             checkpoint_every=2)
        train(config, features, labels, split, book, hidden=(8,), out=ckpt)
        files = {p: p.read_bytes() for p in tmp_path.iterdir()}
        epochs = []
        monkeypatch.setattr(trainer, "_run_epochs",
                            lambda *args, **kwargs: epochs.append(args))
        with pytest.raises(ValueError) as err:
            train(replace(config, epochs=4, checkpoint_every=0,
                          **{name: value}),
                  features, labels, split, book, hidden=(8,), out=ckpt,
                  resume=True)
        assert str(err.value) == (
            f"checkpoint {ckpt} was trained with {name} "
            f"{getattr(config, name)!r}, not the requested {value!r}")
        assert epochs == []
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_checkpoint_round_trip(self, small_setup, tmp_path):
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=4, base_lr=0.01, seed=3)
        net, _ = train(config, features, labels, split, book, hidden=(8,))
        velocity = [np.random.default_rng(0).normal(size=p.shape).astype(
            np.float32) for p in net.param_arrays()]
        path = tmp_path / "ck.hcmd"
        save_checkpoint(net, velocity, 4, path, config)
        loaded_net, loaded_velocity, epoch, trained_with = load_checkpoint(
            path)
        assert epoch == 4
        assert trained_with == {name: getattr(config, name)
                                for name in RESUME_FIELDS}
        assert _params_equal(loaded_net, net)
        for a, b in zip(loaded_velocity, velocity):
            assert a.dtype == np.float32 and np.array_equal(a, b)

    @pytest.mark.parametrize("at, tag", [(-2, 2), (-1, 3)])
    def test_unknown_loss_mode_or_variant_tag_is_a_format_error(
            self, tmp_path, at, tag):
        net = build_network(NetworkSpec(8, (8,), 8, 4), seed=1)
        path = tmp_path / "ck.hcmd"
        save_checkpoint(net, [np.zeros_like(p) for p in net.param_arrays()],
                        0, path, TrainConfig())
        state = tmp_path / "ck.hcmd.state"
        raw = bytearray(state.read_bytes())
        # The two tags end the 78-byte header.
        raw[78 + at] = tag
        state.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="unknown loss mode tag"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index, name", [
        (0, "layer 0 weights"), (1, "layer 0 bias"), (3, "layer 1 bias"),
        (4, "classifier weights")])
    def test_non_finite_velocity_is_a_format_error(self, tmp_path, bad,
                                                   index, name):
        net = build_network(NetworkSpec(8, (8,), 8, 4), seed=1)
        velocity = [np.zeros_like(p) for p in net.param_arrays()]
        velocity[index].flat[-1] = bad
        path = tmp_path / "ck.hcmd"
        save_checkpoint(net, velocity, 0, path, TrainConfig())
        with pytest.raises(FileFormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}.state: the velocity of {name} "
                                  f"holds a non-finite value")

    def test_loaded_velocity_updates_in_place(self, small_setup, tmp_path):
        features, labels, split, book = small_setup
        config = TrainConfig(epochs=1, base_lr=0.01, seed=3)
        net, _ = train(config, features, labels, split, book, hidden=(8,))
        velocity = [np.full(p.shape, 0.5) for p in net.param_arrays()]
        path = tmp_path / "ck.hcmd"
        save_checkpoint(net, velocity, 1, path, config)
        loaded_net, loaded_velocity, _, _ = load_checkpoint(path)
        for param, v in zip(loaded_net.param_arrays(), loaded_velocity):
            assert param.flags.writeable and v.flags.writeable
            before = param.copy()
            sgd_step(param, np.ones_like(param), v, lr=0.1, momentum=0.5,
                     weight_decay=0.0)
            assert np.array_equal(v, np.full(v.shape, 1.25))
            assert np.array_equal(param, before - 0.125)
