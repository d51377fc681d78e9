import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit.data import _NORM_BLOCK_ROWS, ScoreMatrix
from tailkit.loss import stable_sigmoid
from tailkit.metrics import auc_roc, average_precision
from tailkit.pipeline import EnsembleSpec, GateConfig, _align_to, ensemble, normal_gate, tta_merge


def logits(values, ids=None, classes=None):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    ids = ids or [f"s{i}" for i in range(values.shape[0])]
    classes = classes or [f"c{j}" for j in range(values.shape[1])]
    return ScoreMatrix(ids, values, "logits", classes)


def probs(values, ids=None, classes=None):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    ids = ids or [f"s{i}" for i in range(values.shape[0])]
    classes = classes or [f"c{j}" for j in range(values.shape[1])]
    return ScoreMatrix(ids, values, "probabilities", classes)


class TestSigmoidScores:
    """A logit matrix maps to probabilities through a one-view TTA merge."""

    def test_zero_logit(self):
        assert tta_merge([logits([[0.0]])]).values[0, 0] == 0.5

    def test_saturation_no_overflow(self):
        out = tta_merge([logits([[500.0, -500.0]])])
        assert out.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_ln3_gives_three_quarters(self):
        out = tta_merge([logits([[math.log(3.0)]])])
        assert out.values[0, 0] == pytest.approx(0.75, abs=1e-15)


class TestTtaMerge:
    def test_single_view_equals_sigmoid(self):
        view = logits([[0.3, -1.2], [2.0, 0.0]])
        merged = tta_merge([view])
        np.testing.assert_array_equal(merged.values, stable_sigmoid(view.values))
        assert merged.kind == "probabilities"

    def test_identical_views_no_change(self):
        view = logits([[0.7, -0.4]])
        merged = tta_merge([view, view])
        np.testing.assert_allclose(merged.values, stable_sigmoid(view.values), atol=1e-15)

    def test_hand_mean(self):
        merged = tta_merge([logits([[0.0]]), logits([[math.log(3.0)]])])
        assert merged.values[0, 0] == pytest.approx(0.625, abs=1e-12)

    def test_alignment_by_id(self):
        a = logits([[1.0], [2.0]], ids=["x", "y"])
        b = logits([[2.0], [1.0]], ids=["y", "x"])
        merged = tta_merge([a, b])
        np.testing.assert_allclose(merged.values, stable_sigmoid(a.values), atol=1e-15)
        assert merged.ids == ["x", "y"]

    def test_mismatched_ids_rejected(self):
        a = logits([[1.0]], ids=["x"])
        b = logits([[1.0]], ids=["z"])
        with pytest.raises(ValueError, match="misalignment"):
            tta_merge([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            tta_merge([])

    def test_probability_views_rejected(self):
        with pytest.raises(ValueError, match="logit"):
            tta_merge([probs([[0.5]])])

    def test_view_permutation_invariance(self):
        rng = np.random.default_rng(13)
        views = [logits(rng.standard_normal((3, 4))) for _ in range(4)]
        forward = tta_merge(views)
        backward = tta_merge(views[::-1])
        np.testing.assert_allclose(forward.values, backward.values, atol=1e-12)


class TestEnsemble:
    def test_paper_weight_normalization(self):
        spec = EnsembleSpec([1.0, 1.5])
        assert spec.normalized_weights.tolist() == pytest.approx([0.4, 0.6], abs=1e-12)

    def test_identical_members_fixed_point(self):
        member = probs([[0.3, 0.9]])
        out = ensemble([member, member], EnsembleSpec([1.0, 1.5]))
        np.testing.assert_allclose(out.values, member.values, atol=1e-15)

    def test_weighted_mean(self):
        out = ensemble(
            [probs([[0.0]]), probs([[1.0]])],
            EnsembleSpec([1.0, 1.5]),
        )
        assert out.values[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_bounded_by_members(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((2, 5, 3))
        out = ensemble([probs(a), probs(b)], EnsembleSpec([2.0, 3.0]))
        assert (out.values >= np.minimum(a, b) - 1e-12).all()
        assert (out.values <= np.maximum(a, b) + 1e-12).all()

    def test_permutation_invariance_equal_weights(self):
        a = probs([[0.2, 0.8]])
        b = probs([[0.6, 0.4]])
        spec = EnsembleSpec([1.0, 1.0])
        np.testing.assert_allclose(
            ensemble([a, b], spec).values, ensemble([b, a], spec).values, atol=1e-15
        )

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec([1.0, 0.0])

    @pytest.mark.parametrize(
        "weights",
        [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], [], [[1.0, 2.0]], [1e308, 1e308]],
    )
    def test_non_finite_or_misshapen_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="member weight"):
            EnsembleSpec(member_weights=weights)

    def test_normalized_weights_derive_from_the_one_stored_field(self):
        spec = EnsembleSpec(member_weights=[3.0, 0.25, 1.0])
        assert [f.name for f in dataclasses.fields(spec)] == ["member_weights"]
        w = np.array([3.0, 0.25, 1.0])
        assert spec.normalized_weights.tobytes() == (w / w.sum()).tobytes()

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="^need one weight per ensemble member$"):
            ensemble([probs([[0.5]])], EnsembleSpec([1.0, 1.0]))


class TestNormalGate:
    def test_zero_normal_probability_is_identity(self):
        p = probs([[0.0, 0.4, 0.9]])
        out = normal_gate(p, GateConfig(normal_class_index=0, exponent=0.5))
        np.testing.assert_array_equal(out.values, p.values)

    def test_zero_exponent_is_identity(self):
        p = probs([[0.9, 0.4, 0.7]])
        out = normal_gate(p, GateConfig(normal_class_index=0, exponent=0.0))
        np.testing.assert_array_equal(out.values, p.values)

    def test_exact_halving(self):
        p = probs([[0.75, 0.4, 0.9]])
        out = normal_gate(p, GateConfig(normal_class_index=0, exponent=0.5))
        assert out.values[0, 0] == 0.75  # normal column untouched
        assert out.values[0, 1] == pytest.approx(0.2, abs=1e-12)
        assert out.values[0, 2] == pytest.approx(0.45, abs=1e-12)

    def test_rank_preservation_among_abnormal(self):
        rng = np.random.default_rng(8)
        values = rng.random((20, 6))
        p = probs(values)
        out = normal_gate(p, GateConfig(normal_class_index=2, exponent=0.5))
        abnormal = [j for j in range(6) if j != 2]
        for i in range(20):
            before = np.argsort(values[i, abnormal], kind="stable")
            after = np.argsort(out.values[i, abnormal], kind="stable")
            np.testing.assert_array_equal(before, after)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_bounds_and_monotone_in_p0(self, seed, exponent):
        rng = np.random.default_rng(seed)
        values = rng.random((4, 3))
        cfg = GateConfig(normal_class_index=0, exponent=exponent)
        out = normal_gate(probs(values), cfg)
        assert (out.values >= 0).all() and (out.values <= 1).all()
        # raising p0 can only lower (or keep) every abnormal score
        raised = values.copy()
        raised[:, 0] = np.minimum(1.0, raised[:, 0] + 0.3)
        out_hi = normal_gate(probs(raised), cfg)
        assert (out_hi.values[:, 1:] <= out.values[:, 1:] + 1e-12).all()

    def test_metric_invariance_with_constant_p0(self):
        rng = np.random.default_rng(9)
        values = rng.random((40, 4))
        values[:, 0] = 0.6  # constant normal-class probability
        labels = rng.integers(0, 2, (40, 4))
        labels[0] = [1, 1, 1, 1]
        labels[1] = [0, 0, 0, 0]
        p = probs(values)
        gated = normal_gate(p, GateConfig(normal_class_index=0, exponent=0.5))
        for j in range(1, 4):
            ap_before = average_precision(values[:, j], labels[:, j])
            ap_after = average_precision(gated.values[:, j], labels[:, j])
            assert ap_after == pytest.approx(ap_before, abs=1e-12)
            auc_before = auc_roc(values[:, j], labels[:, j])
            auc_after = auc_roc(gated.values[:, j], labels[:, j])
            assert auc_after == pytest.approx(auc_before, abs=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            normal_gate(probs([[0.5, 0.5]]), GateConfig(normal_class_index=5))


def oracle_tta_merge(views):
    """The whole-matrix merge: every view's sigmoid at once, summed in view order."""
    first = views[0]
    total = np.zeros_like(first.values)
    for v in views:
        total += stable_sigmoid(_align_to(first, v))
    total /= len(views)
    return total


def oracle_ensemble(members, spec):
    """The whole-matrix ensemble: each member's weighted copy added in member order, then clipped."""
    first = members[0]
    combined, product = np.zeros_like(first.values), np.empty_like(first.values)
    for weight, mtx in zip(spec.normalized_weights, members):
        combined += np.multiply(weight, _align_to(first, mtx), out=product)
    np.clip(combined, 0.0, 1.0, out=combined)
    return combined


def oracle_normal_gate(p, cfg):
    """The whole-matrix gate: the abnormal columns gathered, scaled and scattered back."""
    values = p.values.copy()
    factor = np.power(1.0 - values[:, cfg.normal_class_index], cfg.exponent)
    abnormal = np.arange(values.shape[1]) != cfg.normal_class_index
    values[:, abnormal] *= factor[:, None]
    return values


B = _NORM_BLOCK_ROWS
BLOCK_SIZES = [1, B - 1, B, B + 1, 2 * B + 1]


def stage_inputs(values, kind, order, seed):
    """One ScoreMatrix per value matrix, all over one id set; the first in id order, the others
    in id order too (``order`` "same") or each in a row permutation of its own ("permuted")."""
    rng = np.random.default_rng(seed)
    n, c = values[0].shape
    ids, classes = [f"s{i:05d}" for i in range(n)], [f"c{j}" for j in range(c)]
    out = [ScoreMatrix(ids, values[0], kind, classes)]
    for v in values[1:]:
        perm = rng.permutation(n) if order == "permuted" else np.arange(n)
        out.append(ScoreMatrix([ids[i] for i in perm], v[perm], kind, classes))
    return out


class TestBlockedStagesMatchTheWholeMatrix:
    """Each stage's row blocks give the bytes of its whole-matrix oracle, either side of a block edge."""

    @pytest.mark.parametrize("order", ["same", "permuted"])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_tta_merge(self, n, order):
        rng = np.random.default_rng(n)
        values = [rng.normal(0.0, 3.0, (n, 7)) for _ in range(3)]
        # huge logits saturate the sigmoid; exp(-746) underflows to 0
        for v, huge in zip(values, (1e308, 746.0, 40.0)):
            v[rng.integers(0, n), :2] = (huge, -huge)
        views = stage_inputs(values, "logits", order, seed=n + 1)
        # +-inf logits pass a view built unchecked; the sigmoid takes them to 1 and 0
        views[-1].values[-1, -2:] = (np.inf, -np.inf)
        got = tta_merge(views)
        assert got.ids == views[0].ids and got.kind == "probabilities"
        assert got.values.tobytes() == oracle_tta_merge(views).tobytes()

    @pytest.mark.parametrize("order", ["same", "permuted"])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_ensemble(self, n, order):
        rng = np.random.default_rng(n)
        values = [rng.random((n, 5)) for _ in range(3)]
        values[0][0, :2] = (0.0, 1.0)
        values[1][-1, :2] = (1.0, 1.0)
        members = stage_inputs(values, "probabilities", order, seed=n + 2)
        spec = EnsembleSpec([1.0, 1.5, 0.3])
        got = ensemble(members, spec)
        assert got.ids == members[0].ids
        assert got.values.tobytes() == oracle_ensemble(members, spec).tobytes()

    @pytest.mark.parametrize("exponent", [0.0, 0.5, math.inf])
    @pytest.mark.parametrize("normal", [0, 2, 4])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_normal_gate(self, n, normal, exponent):
        rng = np.random.default_rng(n)
        values = rng.random((n, 5))
        values[0, normal] = 0.0  # 0 ** 0 and 1 ** inf are 1
        values[-1, normal] = 1.0  # 0 ** inf is 0
        p = probs(values)
        cfg = GateConfig(normal_class_index=normal, exponent=exponent)
        got = normal_gate(p, cfg)
        assert got.values.tobytes() == oracle_normal_gate(p, cfg).tobytes()
        assert p.values.tobytes() == values.tobytes()  # the input is not written


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ensemble([], EnsembleSpec([1.0])), "need at least one ensemble member"),
        (lambda: ensemble([logits([[0.5]])], EnsembleSpec([1.0])), "ensemble expects probability members"),
        (lambda: normal_gate(logits([[0.5, 0.5]]), GateConfig(normal_class_index=0)), "normal_gate expects probabilities"),
    ],
    ids=["no-members", "logit-member", "logit-gate"],
)
def test_stage_faults_name_their_cause(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
