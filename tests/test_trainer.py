import json
import math

import numpy as np
import pytest
from test_loss import db_loss_oracle
from test_metrics import ap_threshold_oracle

from tailkit.data import LabelMatrix, class_stats
from tailkit.loss import DbLossParams
from tailkit.sampler import (
    SamplerConfig,
    build_epoch,
    class_repeat_factors,
    sample_repeat_factors,
)
from tailkit.trainer import (
    PLAIN_BCE,
    LinearModel,
    SynthSpec,
    TrainConfig,
    _loss_terms,
    _uniform,
    class_terciles,
    evaluate_arm,
    forward,
    generate_synthetic,
    holdout_split,
    load_model,
    power_law_frequencies,
    run_comparison,
    save_model,
    train,
)


def train_oracle(features, labels, cfg, loss, sampler, loss_params, sampler_cfg, margin_override=None):
    """(weights, bias, trace, epoch lengths) of plain SGD with one `db_loss_oracle` per batch.

    `loss` is "db" or "plain-bce" and `sampler` "cas" or "uniform".  The plain arms are the reference
    for `PLAIN_BCE` and `_uniform`: unit weights and zero margins, and a repeat factor of 1 per sample.
    """
    n, d = features.shape
    c = labels.n_classes
    if loss == "db":
        weights, margin_vec = _loss_terms(class_stats(labels).counts, loss_params, margin_override)
    else:
        weights, margin_vec = np.ones(c), np.zeros(c)
    if sampler == "cas":
        freqs = labels.values.sum(axis=0, dtype=np.int64) / float(n)
        r_class = class_repeat_factors(freqs, sampler_cfg)
        repeat = sample_repeat_factors(labels, r_class, sampler_cfg)
    else:
        repeat = np.ones(n)
    w, b = np.zeros((c, d)), np.zeros(c)
    y_all = labels.values.astype(np.float64)
    trace, lengths = [], []
    for epoch in range(cfg.epochs):
        plan = build_epoch(repeat, sampler_cfg, epoch=epoch)
        loss_sum = 0.0
        for start in range(0, plan.epoch_len, cfg.batch_size):
            batch = plan.indices[start : start + cfg.batch_size]
            x_b = features[batch]
            z = x_b @ w.T + b
            loss, grad = db_loss_oracle(z, y_all[batch], weights, margin_vec)
            w -= cfg.learning_rate * (grad.T @ x_b)
            b -= cfg.learning_rate * grad.sum(axis=0)
            loss_sum += loss * batch.size
        trace.append(loss_sum / plan.epoch_len)
        lengths.append(plan.epoch_len)
    return w, b, trace, lengths


def small_spec(seed=0, **overrides):
    base = dict(
        n_samples=200, n_classes=5, feature_dim=8, power_law_exponent=1.0, noise_std=0.2, seed=seed
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestPowerLaw:
    def test_exponent_zero_uniform(self):
        f = power_law_frequencies(6, 0.0)
        assert (f == f[0]).all()

    def test_head_tail_ratio(self):
        f = power_law_frequencies(20, 1.5)
        assert f[0] / f[19] == pytest.approx(20.0**1.5, rel=1e-12)

    def test_head_frequency_applied(self):
        f = power_law_frequencies(4, 2.0, head=0.3)
        assert f[0] == 0.3


class TestGenerateSynthetic:
    def test_deterministic(self):
        a_feat, a_lab = generate_synthetic(small_spec(3))
        b_feat, b_lab = generate_synthetic(small_spec(3))
        np.testing.assert_array_equal(a_feat, b_feat)
        np.testing.assert_array_equal(a_lab.values, b_lab.values)

    def test_every_class_has_a_positive(self):
        _, labels = generate_synthetic(small_spec(1, n_samples=30, n_classes=10, feature_dim=16))
        assert (labels.values.sum(axis=0) >= 1).all()

    def test_noise_free_single_positive_equals_prototype(self):
        spec = small_spec(2, noise_std=0.0)
        features, labels = generate_synthetic(spec)
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        power_law_frequencies(spec.n_classes, spec.power_law_exponent, spec.head_frequency)
        prototypes = rng.standard_normal((spec.n_classes, spec.feature_dim))
        singles = np.nonzero(labels.values.sum(axis=1) == 1)[0]
        assert singles.size > 0
        for i in singles[:10]:
            c = int(np.nonzero(labels.values[i])[0][0])
            np.testing.assert_allclose(features[i], prototypes[c], atol=1e-12)

    def test_empirical_frequencies_track_power_law(self):
        spec = small_spec(5, n_samples=5000, n_classes=8, power_law_exponent=1.0)
        _, labels = generate_synthetic(spec)
        expected = power_law_frequencies(8, 1.0, spec.head_frequency)
        observed = labels.values.sum(axis=0) / 5000
        np.testing.assert_allclose(observed, expected, atol=0.03)

    def test_infeasible_spec(self):
        with pytest.raises(ValueError):
            SynthSpec(n_samples=0, n_classes=2, feature_dim=4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_samples", 60.0),
            ("n_classes", True),
            ("feature_dim", 4.5),
            ("seed", -1),
            ("noise_std", math.nan),
            ("noise_std", math.inf),
            ("power_law_exponent", math.nan),
            ("power_law_exponent", "1.5"),
        ],
    )
    def test_bad_field_named(self, field, value):
        fields = dict(n_samples=60, n_classes=3, feature_dim=4)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            SynthSpec(**fields)

    def test_warns_when_classes_exceed_dims(self):
        with pytest.warns(UserWarning):
            generate_synthetic(small_spec(0, n_classes=9, feature_dim=4))


class TestForward:
    def test_zero_model(self):
        model = LinearModel(np.zeros((3, 4)), np.zeros(3), ["a", "b", "c"])
        z = forward(model, np.ones((2, 4)))
        assert (z == 0).all()

    def test_basis_vector_picks_row(self):
        w = np.eye(3)
        model = LinearModel(w, np.zeros(3), ["a", "b", "c"])
        z = forward(model, np.array([[0.0, 1.0, 0.0]]))
        assert z.tolist() == [[0.0, 1.0, 0.0]]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        x = rng.standard_normal((5, 6))
        model = LinearModel(w, b, list("abcd"))
        z = forward(model, x)
        for i in range(5):
            for c in range(4):
                expected = b[c]
                for d in range(6):
                    expected += w[c, d] * x[i, d]
                assert z[i, c] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        model = LinearModel(np.zeros((2, 3)), np.zeros(2), ["a", "b"])
        with pytest.raises(ValueError):
            forward(model, np.zeros((1, 4)))


def test_zero_positive_class_takes_the_terms_of_count_one():
    """A class without positives is weighted and margined as if it had one (counts 8, 2, 0 of 10)."""
    from tailkit.loss import class_weights, effective_numbers, margins

    values = [[int(i < 8), int(i < 2), 0] for i in range(10)]
    labels = LabelMatrix([f"s{i}" for i in range(10)], values, ["c0", "c1", "c2"])
    params = DbLossParams()
    weights, margin_vec = _loss_terms(class_stats(labels).counts, params)
    counts = np.array([8, 2, 1])
    assert weights.tolist() == class_weights(effective_numbers(counts, params.beta), params.alpha).tolist()
    assert margin_vec.tolist() == margins(counts, params.margin_scale).tolist()
    # the largest of both, not the weight 1 / margin 0 of a neutral class
    assert weights.argmax() == 2 and margin_vec.argmax() == 2


class TestTrain:
    def test_zero_learning_rate_leaves_model_unchanged(self):
        features, labels = generate_synthetic(small_spec(4))
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=16)
        model, trace = train(features, labels, cfg, DbLossParams(), SamplerConfig())
        assert (model.weights == 0).all() and (model.bias == 0).all()
        assert len(trace) == 3

    def test_single_sample_converges(self):
        features = np.array([[1.0, 0.0]])
        labels = LabelMatrix(["s0"], [[1]], ["c0"])
        cfg = TrainConfig(learning_rate=1.0, epochs=300, batch_size=1)
        model, trace = train(features, labels, cfg, PLAIN_BCE, _uniform(SamplerConfig()))
        assert trace[-1] < 0.02
        assert trace == sorted(trace, reverse=True)

    def test_deterministic_end_to_end(self):
        features, labels = generate_synthetic(small_spec(6))
        cfg = TrainConfig(learning_rate=0.3, epochs=4, batch_size=32)
        a, _ = train(features, labels, cfg, DbLossParams(), SamplerConfig(seed=9))
        b, _ = train(features, labels, cfg, DbLossParams(), SamplerConfig(seed=9))
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_db_with_neutral_terms_equals_plain_bce(self):
        """`PLAIN_BCE` at r_max 1 gives the bits of the oracle's own plain BCE over a plain shuffle,
        with a partial last batch and a class with no positive (whose count is clamped to 1)."""
        cfg = TrainConfig(learning_rate=0.2, epochs=3, batch_size=16)
        for seed in (0, 3, 7):
            features, labels = generate_synthetic(small_spec(seed))
            values = labels.values.copy()
            values[:, 3] = 0
            labels = LabelMatrix(labels.ids, values, labels.class_names)
            sampler_cfg = SamplerConfig(threshold=0.05, r_max=10.0, seed=seed)
            model, trace = train(features, labels, cfg, PLAIN_BCE, _uniform(sampler_cfg))
            w, b, expected, lengths = train_oracle(
                features, labels, cfg, "plain-bce", "uniform", DbLossParams(), sampler_cfg
            )
            assert model.weights.tobytes() == w.tobytes() and model.bias.tobytes() == b.tobytes()
            assert trace == expected
            assert lengths == [200] * 3 and 200 % cfg.batch_size

    def test_loss_trace_non_increasing_plain_bce(self):
        spec = small_spec(8, noise_std=0.0)
        features, labels = generate_synthetic(spec)
        cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=200)
        _, trace = train(features, labels, cfg, PLAIN_BCE, _uniform(SamplerConfig()))
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -0.1])
    def test_learning_rate_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr, epochs=1, batch_size=1)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.0, True])
    def test_integer_fields_reject_float_and_bool(self, field, value):
        fields = {"learning_rate": 0.1, "epochs": 2, "batch_size": 8, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            TrainConfig(**fields)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_margin_override_rejected_before_training(self, bad):
        features, labels = generate_synthetic(small_spec(4))
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=16)
        margin = np.zeros(labels.n_classes)
        margin[2] = bad
        with pytest.raises(ValueError, match="margins"):
            train(features, labels, cfg, DbLossParams(), SamplerConfig(), margin_override=margin)

    @pytest.mark.parametrize("margin", [np.array([0.0, 10**400, 0.0, 0.0, 0.0], dtype=object), [0.1, "0.2", 0.0, 0.0, 0.0]])
    def test_margin_override_is_checked_before_the_cast(self, margin):
        # the float64 cast raised OverflowError on 10**400 and parsed the string "0.2"
        features, labels = generate_synthetic(small_spec(4))
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=16)
        with pytest.raises(ValueError, match=r"^margins must be numbers in \[0, inf\)$"):
            train(features, labels, cfg, DbLossParams(), SamplerConfig(), margin_override=margin)

    def test_divergence_detected(self):
        features = np.full((4, 2), 1e160)
        labels = LabelMatrix([f"s{i}" for i in range(4)], [[1], [1], [1], [0]], ["c0"])
        cfg = TrainConfig(learning_rate=1e160, epochs=3, batch_size=4)
        with pytest.raises(ValueError, match="diverged"):
            train(features, labels, cfg, PLAIN_BCE, _uniform(SamplerConfig()))

    def test_loss_past_float_range_names_the_margins(self):
        """Finite inputs whose loss overflows: margins of 1e308 make each positive's loss term 1e308
        at the first batch's zero logits, and eight such terms of weight 1 sum past the largest float."""
        labels = LabelMatrix([f"s{i}" for i in range(4)], [[1, 1]] * 4, ["c0", "c1"])
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4)
        with pytest.raises(ValueError) as exc:
            train(np.ones((4, 2)), labels, cfg, DbLossParams(), _uniform(SamplerConfig()), [1e308, 1e308])
        assert str(exc.value) == "training diverged at epoch 0: lower learning_rate or margins"

    def test_overflowing_last_step_names_the_parameters(self):
        """The logits are checked before each step, so only the last step's overflow reaches the
        final check: one batch of finite logits whose update, 1e300 times a gradient near 1e9, is inf."""
        labels = LabelMatrix([f"s{i}" for i in range(4)], [[1], [1], [1], [0]], ["c0"])
        cfg = TrainConfig(learning_rate=1e300, epochs=1, batch_size=4)
        with pytest.raises(ValueError) as exc:
            train(np.full((4, 2), 1e10), labels, cfg, PLAIN_BCE, _uniform(SamplerConfig()))
        assert str(exc.value) == "training diverged: non-finite parameters; lower learning_rate"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_feature_is_named_before_training(self, bad):
        """Not blamed on the learning rate, as the first epoch's NaN loss would be."""
        features, labels = generate_synthetic(small_spec(4))
        features[3, 1] = bad
        with pytest.raises(ValueError) as exc:
            train(features, labels, TrainConfig(0.1, epochs=1, batch_size=16), DbLossParams(), SamplerConfig())
        assert str(exc.value) == "feature values must be numbers in (-inf, inf)"

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 2), (2,)], ids=["1-D", "3-D", "1-D-short"])
    def test_features_that_are_not_a_matrix_are_named(self, shape):
        # Python's unpacking message came first; the shape is named before the sample count
        _, labels = generate_synthetic(small_spec(4, n_samples=3))
        args = (TrainConfig(learning_rate=0.1, epochs=1, batch_size=16), DbLossParams(), SamplerConfig())
        with pytest.raises(ValueError, match=r"^feature values must be an N x D matrix$"):
            train(np.zeros(shape), labels, *args)
        with pytest.raises(ValueError, match=r"^feature values must be numbers in \(-inf, inf\)$"):
            train(np.full(shape, np.nan), labels, *args)

    def test_inputs_that_do_not_fit_name_their_fault(self):
        features, labels = generate_synthetic(small_spec(4))
        args = (TrainConfig(learning_rate=0.1, epochs=1, batch_size=16), DbLossParams(), SamplerConfig())
        for call, message in [
            (lambda: train(features[:-1], labels, *args), "features and labels disagree on sample count"),
            (lambda: train(features, labels, *args, [0.1]), "margin override needs one value per class"),
            (lambda: LinearModel(np.zeros((2, 3)), np.zeros(3), ["a", "b"]), "weights must be C x D with a C-vector bias"),
        ]:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


class TestFusedStepMatchesOracle:
    """`train` gives the bits of `train_oracle`."""

    @staticmethod
    def assert_same_as_oracle(features, labels, cfg, loss, sampler, params, sampler_cfg, margin_override=None):
        # the plain arms as `train` takes them: PLAIN_BCE, and the sampler at r_max 1
        loss_arg = PLAIN_BCE if loss == "plain-bce" else params
        sampler_arg = _uniform(sampler_cfg) if sampler == "uniform" else sampler_cfg
        model, trace = train(features, labels, cfg, loss_arg, sampler_arg, margin_override)
        w, b, expected, lengths = train_oracle(
            features, labels, cfg, loss, sampler, params, sampler_cfg, margin_override
        )
        assert np.array_equal(model.weights, w) and np.array_equal(model.bias, b)
        assert trace == expected
        return lengths

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("loss, sampler", [("db", "cas"), ("plain-bce", "uniform")])
    def test_demo_arms(self, seed, loss, sampler):
        spec = SynthSpec(n_samples=400, n_classes=8, feature_dim=12, seed=seed)
        features, labels = generate_synthetic(spec)
        cfg = TrainConfig(0.5, epochs=6, batch_size=64)
        params = DbLossParams(alpha=0.5)
        sampler_cfg = SamplerConfig(threshold=0.05, r_max=10.0, seed=seed)
        lengths = self.assert_same_as_oracle(features, labels, cfg, loss, sampler, params, sampler_cfg)
        assert any(length % 64 for length in lengths)  # a partial last batch

    @pytest.mark.parametrize("lr", [0.0, 0.7])
    def test_margin_override(self, lr):
        features, labels = generate_synthetic(small_spec(5))
        cfg = TrainConfig(lr, epochs=3, batch_size=24)
        margin = np.linspace(0.0, 2.0, labels.n_classes)
        self.assert_same_as_oracle(
            features, labels, cfg, "db", "cas", DbLossParams(), SamplerConfig(seed=2), margin
        )

    def test_batches_longer_than_the_epoch(self):
        # every epoch is one batch, and a later epoch is longer than the first, so the scratch grows
        features, labels = generate_synthetic(small_spec(9, n_samples=50))
        cfg = TrainConfig(0.4, epochs=5, batch_size=10_000)
        sampler_cfg = SamplerConfig(threshold=0.3, r_max=4.0, seed=9)
        lengths = self.assert_same_as_oracle(features, labels, cfg, "db", "cas", DbLossParams(), sampler_cfg)
        assert max(lengths) > lengths[0]


class TestSplitAndTerciles:
    def test_holdout_is_last_fraction(self):
        features, labels = generate_synthetic(small_spec(10, n_samples=100))
        (x_tr, y_tr), (x_te, y_te) = holdout_split(features, labels, 0.2)
        assert x_tr.shape[0] == 80 and x_te.shape[0] == 20
        assert y_te.ids == labels.ids[80:]

    @pytest.mark.parametrize("fraction", [2.0, 1.0, -1.0, math.nan, None])
    def test_holdout_fraction_must_be_in_range(self, fraction):
        features, labels = generate_synthetic(small_spec(10, n_samples=10))
        with pytest.raises(ValueError, match=r"^fraction must be a number in \[0, 1\)$"):
            holdout_split(features, labels, fraction)

    def test_holdout_fraction_zero_holds_out_nothing(self):
        features, labels = generate_synthetic(small_spec(10, n_samples=10))
        (x_tr, _), (x_te, y_te) = holdout_split(features, labels, 0.0)
        assert x_tr.shape[0] == 10 and x_te.shape[0] == y_te.n_samples == 0

    def test_holdout_features_and_labels_must_agree_on_sample_count(self):
        # 3 feature rows against 4 label rows were split 2 + 1 against 2 + 2
        features, labels = generate_synthetic(small_spec(10, n_samples=4))
        with pytest.raises(ValueError, match="^features and labels disagree on sample count$"):
            holdout_split(features[:3], labels, 0.5)

    @pytest.mark.parametrize("n_counts", [2, 6])
    def test_evaluate_arm_needs_one_tercile_count_per_class(self, n_counts):
        # with 3 classes, 6 counts raised IndexError and 2 gave tiers over the wrong classes
        features, labels = generate_synthetic(small_spec(10, n_samples=20, n_classes=3))
        model = LinearModel(np.zeros((3, features.shape[1])), np.zeros(3), labels.class_names)
        with pytest.raises(ValueError, match="^tercile_counts needs one count per class$"):
            evaluate_arm(model, features, labels, [1] * n_counts)

    @pytest.mark.parametrize("n_rows", [2, 4])
    def test_evaluate_arm_features_and_labels_must_agree_on_sample_count(self, n_rows):
        # the scores made from 2 rows against 3 labels failed as a ScoreMatrix shape fault
        features, labels = generate_synthetic(small_spec(10, n_samples=4, n_classes=2))
        labels = LabelMatrix(labels.ids[:3], labels.values[:3], labels.class_names)
        model = LinearModel(np.zeros((2, features.shape[1])), np.zeros(2), labels.class_names)
        with pytest.raises(ValueError, match="^features and labels disagree on sample count$"):
            evaluate_arm(model, features[:n_rows], labels, [1, 1])

    @pytest.mark.parametrize("seed", range(6))
    def test_evaluate_arm_tier_maps_match_threshold_oracle(self, seed):
        # mean oracle AP over each tier's classes that hold a positive; on even seeds the
        # tail tier is the two classes with no positive, so its mAP is undefined
        rng = np.random.default_rng(seed)
        n, c, d = 50, 7, 5
        features = rng.standard_normal((n, d))
        weights = rng.standard_normal((c, d))
        weights[c - 1] = 0.0  # every score of the last class ties at sigmoid(0) = 0.5
        values = (rng.random((n, c)) < rng.choice([0.0, 0.05, 0.3, 0.7], c)).astype(np.int8)
        values[:, :2] = 0
        counts = rng.integers(0, 100, c)
        if seed % 2 == 0:
            counts[:2], counts[2:] = 0, np.maximum(counts[2:], 1)
        labels = LabelMatrix([f"r{i}" for i in range(n)], values, [f"k{j}" for j in range(c)])
        model = LinearModel(weights, np.zeros(c), labels.class_names)
        summary, _ = evaluate_arm(model, features, labels, counts)

        probs = 1.0 / (1.0 + np.exp(-(features @ weights.T)))
        ap = [ap_threshold_oracle(probs[:, j], values[:, j]) for j in range(c)]
        tail, head = class_terciles(counts)
        for key, classes in (("map", range(c)), ("tail_map", tail), ("head_map", head)):
            defined = [ap[j] for j in classes if ap[j] is not None]
            if not defined:
                assert summary[key] is None
            else:
                assert summary[key] == pytest.approx(sum(defined) / len(defined), abs=1e-12)
        if seed % 2 == 0:
            assert summary["tail_map"] is None

    def test_terciles_by_count_with_index_ties(self):
        tail, head = class_terciles([10, 2, 2, 50, 7, 100])
        assert tail == [1, 2]
        assert head == [5, 3]

    def test_tercile_minimum_one(self):
        tail, head = class_terciles([3, 1])
        assert len(tail) == 1 and len(head) == 1

    @pytest.mark.parametrize("counts", [[3, 1.5, 2], [3, math.nan, 2], [3, -1, 2], [3, math.inf, 2]])
    def test_tercile_counts_are_checked(self, counts):
        # 1.5 was truncated to 1, and NaN raised numpy's cast error
        with pytest.raises(ValueError, match=r"^counts must be whole numbers in \[0, inf\)$"):
            class_terciles(counts)

    def test_whole_float_tercile_counts_match_int_counts(self):
        assert class_terciles([10.0, 2.0, 2.0, 50.0, 7.0, 100.0]) == class_terciles([10, 2, 2, 50, 7, 100])


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        model = LinearModel(rng.standard_normal((3, 4)), rng.standard_normal(3), ["a", "b", "c"])
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert back.class_names == model.class_names
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.bias, model.bias)

    def test_json_is_row_major_with_bias(self, tmp_path):
        model = LinearModel([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0], ["x", "y"])
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["weights"] == [[1.0, 2.0], [3.0, 4.0]]
        assert payload["bias"] == [5.0, 6.0]
        assert payload["class_names"] == ["x", "y"]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field", ["weights", "bias"])
    def test_non_finite_field_names_the_file(self, tmp_path, field, literal):
        weights = f"[[{literal}, 2.0]]" if field == "weights" else "[[1.0, 2.0]]"
        bias = f"[{literal}]" if field == "bias" else "[0.5]"
        path = tmp_path / "m.json"
        path.write_text(f'{{"class_names": ["a"], "weights": {weights}, "bias": {bias}}}', encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: not a model file: ValueError('{field} must be numbers in (-inf, inf)')"

    @pytest.mark.parametrize(
        "names", ['"abc"', '{"a": 0, "b": 1, "c": 2}', '["a", null, "c"]', '["a", 7, "c"]'],
        ids=["string", "object", "null-entry", "number-entry"],
    )
    def test_class_names_must_be_a_list_of_strings(self, tmp_path, names):
        # list() of "abc" or of the object would give three names that match the three weight rows
        path = tmp_path / "m.json"
        path.write_text(f'{{"class_names": {names}, "weights": [[1.0], [2.0], [3.0]], "bias": [0, 0, 0]}}', encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: not a model file: ValueError('class_names must be a list of strings')"


def test_run_comparison_shares_config_across_arms():
    spec = SynthSpec(n_samples=600, n_classes=6, feature_dim=12, power_law_exponent=1.0, seed=3)
    summary, models, reports = run_comparison(
        spec, learning_rate=0.3, epochs=5, batch_size=32,
        sampler_cfg=SamplerConfig(threshold=0.05, r_max=10.0, seed=3),
    )
    assert set(summary["arms"]) == {"db_cas", "bce_uniform"}
    assert set(models) == {"db_cas", "bce_uniform"}
    assert set(reports) == {"db_cas", "bce_uniform"}
    features, labels = generate_synthetic(spec)
    _, (x_test, y_test) = holdout_split(features, labels)
    assert x_test.shape[0] == y_test.n_samples == 120
    counts = labels.values.sum(axis=0, dtype=np.int64)
    for name, arm in summary["arms"].items():
        assert arm["map"] is not None
        held_out, report = evaluate_arm(models[name], x_test, y_test, counts)
        assert held_out["map"] == arm["map"] == reports[name].macro["map"]
        assert held_out["tail_map"] == arm["tail_map"]
        assert held_out["head_map"] == arm["head_map"]
