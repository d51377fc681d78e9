import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit.data import LabelMatrix, ScoreMatrix
from tailkit.metrics import EceConfig, auc_roc, average_precision, ece, f1_at_threshold, macro_report


def ap_threshold_oracle(scores, labels):
    """Exhaustive precision/recall at every distinct threshold, high to low."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        return None
    total = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= t
        tp = int((predicted & (labels == 1)).sum())
        precision = tp / int(predicted.sum())
        recall = tp / n_pos
        total += (recall - prev_recall) * precision
        prev_recall = recall
    return total


def auc_pairwise_oracle(scores, labels):
    """O(n^2) count over (positive, negative) pairs with 0.5 tie credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def tie_loop_auc(scores, labels):
    """The tie-group loop auc_roc ran before its ranks came from tie runs in bulk."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positive = np.asarray(labels).ravel() == 1
    n_pos = int(positive.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = ranks[positive].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def stable_order_ap(scores, labels):
    """The AP kernel before tie runs: ties broken by row order, mean precision at each positive's rank."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positive = np.asarray(labels).ravel() == 1
    n_pos = int(positive.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    pos_sorted = positive[order]
    cum_pos = np.cumsum(pos_sorted)
    ranks = np.arange(1, scores.size + 1)
    precision_at_pos = cum_pos[pos_sorted] / ranks[pos_sorted]
    return float(precision_at_pos.sum() / n_pos)


# a handful of score values makes long tie runs; -0.0 == 0.0 ties
TIE_POOL = np.array([0.0, -0.0, 0.25, 0.5, 1.0])


@st.composite
def auc_inputs(draw):
    """(scores, labels) of length 1..2000: heavy ties or continuous, any positive share."""
    n = draw(st.integers(min_value=1, max_value=2000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        pool = rng.choice(TIE_POOL, size=draw(st.integers(1, TIE_POOL.size)), replace=False)
        scores = rng.choice(pool, n)
    else:
        scores = rng.standard_normal(n)
    share = draw(st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]))
    return scores, (rng.random(n) < share).astype(np.int8)


class TestAveragePrecision:
    def test_hand_example(self):
        ap = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_sample(self):
        assert average_precision([0.3], [1]) == 1.0

    def test_no_positives_undefined(self):
        assert average_precision([0.3, 0.8], [0, 0]) is None

    def test_tied_scores_count_as_one_threshold(self):
        # one run of tied scores: its positive is found at precision 1/2, whichever row holds it
        assert average_precision([0.5, 0.5], [1, 0]) == 0.5
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5

    @settings(max_examples=150, deadline=None)
    @given(auc_inputs(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_threshold_oracle_under_row_permutation(self, case, seed):
        scores, labels = case
        got = average_precision(scores, labels)
        expected = ap_threshold_oracle(scores, labels)
        if expected is None:
            assert got is None
            return
        assert got == pytest.approx(expected, abs=1e-12)
        order = np.random.default_rng(seed).permutation(scores.size)
        assert average_precision(scores[order], labels[order]) == got

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.01, 0.5, 0.99, 1.0]),
    )
    def test_equals_stable_order_ap_without_ties(self, n, seed, share):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(n) + rng.random(n)  # distinct: each integer part is drawn once
        labels = (rng.random(n) < share).astype(np.int8)
        assert average_precision(scores, labels) == stable_order_ap(scores, labels)


class TestAucRoc:
    def test_perfect(self):
        assert auc_roc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties(self):
        assert auc_roc([0.4, 0.4, 0.4], [1, 0, 1]) == 0.5

    def test_undefined_single_class(self):
        assert auc_roc([0.1, 0.9], [1, 1]) is None
        assert auc_roc([0.1, 0.9], [0, 0]) is None

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            scores = rng.random(n)
            if rng.random() < 0.5:
                scores = np.round(scores, 1)  # force ties
            labels = rng.integers(0, 2, n)
            expected = auc_pairwise_oracle(scores, labels)
            got = auc_roc(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(auc_inputs())
    def test_equals_tie_loop(self, case):
        scores, labels = case
        assert auc_roc(scores, labels) == tie_loop_auc(scores, labels)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 1)), min_size=1, max_size=40
        )
    )
    def test_equals_tie_loop_on_any_floats(self, pairs):
        scores, labels = (np.array(column) for column in zip(*pairs))
        assert auc_roc(scores, labels) == tie_loop_auc(scores, labels)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(2)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        a = auc_roc(scores, labels)
        b = auc_roc(-scores, 1 - labels)
        assert a == pytest.approx(b, abs=1e-12)


class TestF1:
    def test_perfect(self):
        assert f1_at_threshold([0.9, 0.1], [1, 0], 0.5) == 1.0

    def test_no_predictions_zero(self):
        assert f1_at_threshold([0.1, 0.2], [1, 1], 0.5) == 0.0

    def test_empty_denominator_zero(self):
        assert f1_at_threshold([0.1, 0.2], [0, 0], 0.5) == 0.0

    def test_hand_counts(self):
        # TP=1 FP=1 FN=1 -> 2/4
        assert f1_at_threshold([0.9, 0.8, 0.1], [1, 0, 1], 0.5) == 0.5

    def test_threshold_inclusive(self):
        assert f1_at_threshold([0.5], [1], 0.5) == 1.0

    @pytest.mark.parametrize("threshold", [math.nan, "0.5", None, True])
    def test_threshold_must_be_a_number(self, threshold):
        with pytest.raises(ValueError, match=r"^threshold must be a number in \[-inf, inf\]$"):
            f1_at_threshold([0.5, 0.2], [1, 0], threshold)

    def test_infinite_thresholds_predict_all_or_none(self):
        assert f1_at_threshold([0.5, 0.2], [1, 0], -math.inf) == 2 / 3
        assert f1_at_threshold([0.5, 0.2], [1, 0], math.inf) == 0.0


def ece_every_bin_oracle(scores, labels, n_bins):
    """ECE by a loop over every bin, skipping the empty ones; each bin's mean sums its scores sorted."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    idx = np.ceil(scores * n_bins).astype(np.int64) - 1
    idx[scores == 0.0] = 0
    idx = np.clip(idx, 0, n_bins - 1)
    total = 0.0
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            continue
        total += (count / scores.size) * abs(np.sort(scores[mask]).mean() - (labels[mask] == 1).mean())
    return float(total)


@st.composite
def ece_inputs(draw):
    """(scores, labels, n_bins): 0..2000 scores mixing bin edges, 0.0, -0.0, 1.0, long tie runs and draws."""
    n_bins = draw(st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=10**11)))
    n = draw(st.integers(min_value=0, max_value=2000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = [
        rng.integers(0, n_bins + 1, n) / n_bins,
        rng.choice([0.0, -0.0, 1.0], n),
        rng.choice(rng.random(3), n),
        rng.random(n),
        rng.random(n) ** 8,
    ]
    scores = np.choose(rng.integers(0, len(kinds), n), kinds)
    return scores, rng.integers(0, 2, n), n_bins


class TestEce:
    def test_perfect_calibration(self):
        assert ece([0.0, 1.0, 1.0, 0.0], [0, 1, 1, 0], EceConfig(15)) == 0.0

    def test_matched_half_bin(self):
        assert ece([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], EceConfig(10)) == 0.0

    def test_fully_miscalibrated(self):
        assert ece([0.9] * 5, [0] * 5, EceConfig(15)) == pytest.approx(0.9, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError) as exc:
            ece([1.2], [1], EceConfig(10))
        assert str(exc.value) == "scores must be numbers in [0, 1]"

    def test_rejects_nan(self):
        with pytest.raises(ValueError) as exc:
            ece([np.nan, 0.5], [1, 0], EceConfig(10))
        assert str(exc.value) == "scores must be numbers in (-inf, inf)"

    def test_bin_edges_right_closed(self):
        # with 2 bins, 0.5 lands in the first bin (0 is left-closed)
        cfg = EceConfig(2)
        assert ece([0.5], [0], cfg) == pytest.approx(0.5, abs=1e-12)
        assert ece([0.0], [0], cfg) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bounded(self, scores, n_bins, seed):
        labels = np.random.default_rng(seed).integers(0, 2, len(scores))
        value = ece(scores, labels, EceConfig(n_bins))
        assert 0.0 <= value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bin_refinement_bound(self, n_bins, seed):
        # halving bin widths never lowers ECE by more than the binning error
        rng = np.random.default_rng(seed)
        scores = rng.random(60)
        labels = rng.integers(0, 2, 60)
        coarse = ece(scores, labels, EceConfig(n_bins))
        fine = ece(scores, labels, EceConfig(2 * n_bins))
        assert fine >= coarse - 1.0 / n_bins

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
    def test_occupied_bins_match_every_bin_loop(self, n_bins, seed):
        """Bit for bit, with scores on bin edges, at 0 and 1, bins left empty and no scores at all."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 40))
        edges = rng.integers(0, n_bins + 1, n) / n_bins
        scores = np.where(rng.random(n) < 0.5, edges, rng.random(n) ** 4)
        labels = rng.integers(0, 2, n)
        assert ece(scores, labels, EceConfig(n_bins)) == ece_every_bin_oracle(scores, labels, n_bins)

    @settings(max_examples=100, deadline=None)
    @given(ece_inputs(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_bit_identical_under_row_permutation(self, case, seed):
        scores, labels, n_bins = case
        order = np.random.default_rng(seed).permutation(scores.size)
        value = ece(scores, labels, EceConfig(n_bins))
        assert 0.0 <= value <= 1.0
        assert ece(scores[order], labels[order], EceConfig(n_bins)) == value

    def test_huge_bin_count_finishes(self):
        # 10**11 bins put each of these distinct scores in a bin of its own, so ECE is
        # the mean |score - label| summed in ascending score order
        rng = np.random.default_rng(4)
        scores = np.sort(rng.permutation(10**6)[:300] / 10**6 + 1e-7)
        labels = rng.integers(0, 2, scores.size)
        expected = 0.0
        for s, y in zip(scores, labels):
            expected += (1 / scores.size) * abs(s - float(y))
        assert ece(scores, labels, EceConfig(10**11)) == expected

    @pytest.mark.parametrize("n_bins", [2.5, 15.0, True, "15"])
    def test_n_bins_must_be_an_integer(self, n_bins):
        with pytest.raises(ValueError, match="^n_bins must be an integer$"):
            EceConfig(n_bins=n_bins)

    def test_n_bins_at_most_two_to_the_53(self):
        # past 2^53 not every bin count is a float64, and past 2^63 the int64 bin index wraps
        assert EceConfig(n_bins=2**53).n_bins == 2**53
        for n_bins in (2**53 + 1, 10**19, 10**30):
            with pytest.raises(ValueError, match="^n_bins must be <= 9007199254740992$"):
                EceConfig(n_bins=n_bins)


class TestRankInvariance:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_strictly_increasing_transforms(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        base_ap = average_precision(scores, labels)
        base_auc = auc_roc(scores, labels)
        for transformed in (1.0 / (1.0 + np.exp(-scores)), 3.0 * scores + 11.0):
            assert average_precision(transformed, labels) == pytest.approx(base_ap, abs=1e-12)
            assert auc_roc(transformed, labels) == pytest.approx(base_auc, abs=1e-12)


class TestMacroReport:
    def _fixture(self):
        labels = LabelMatrix(
            ids=["a", "b", "c", "d"],
            values=[[1, 0, 0], [0, 0, 0], [1, 0, 1], [0, 0, 1]],
            class_names=["k0", "k1", "k2"],
        )
        scores = ScoreMatrix(
            ids=["a", "b", "c", "d"],
            values=[[0.9, 0.1, 0.2], [0.8, 0.2, 0.3], [0.7, 0.3, 0.9], [0.1, 0.4, 0.8]],
            kind="probabilities",
            class_names=["k0", "k1", "k2"],
        )
        return scores, labels

    def test_skips_empty_class(self):
        scores, labels = self._fixture()
        report = macro_report(scores, labels)
        assert report.per_class["k1"]["ap"] is None
        skipped = {(s["class"], s["metric"]) for s in report.skipped_classes}
        assert ("k1", "ap") in skipped and ("k1", "auc") in skipped

    def test_macro_is_mean_of_defined(self):
        scores, labels = self._fixture()
        report = macro_report(scores, labels)
        defined = [report.per_class[k]["ap"] for k in ("k0", "k2")]
        assert report.macro["map"] == pytest.approx(np.mean(defined), abs=1e-15)

    def test_two_class_mean(self):
        labels = LabelMatrix(["a", "b"], [[1, 1], [0, 0]], ["x", "y"])
        scores = ScoreMatrix(
            ["a", "b"], [[0.9, 0.2], [0.1, 0.8]], "probabilities", ["x", "y"]
        )
        report = macro_report(scores, labels)
        assert report.per_class["x"]["ap"] == 1.0
        assert report.per_class["y"]["ap"] == 0.5
        assert report.macro["map"] == pytest.approx(0.75)

    def test_misalignment_rejected(self):
        scores, labels = self._fixture()
        other = ScoreMatrix(
            ids=["a", "b", "c", "e"],
            values=scores.values,
            kind="probabilities",
            class_names=scores.class_names,
        )
        with pytest.raises(ValueError, match="misalignment"):
            macro_report(other, labels)

    def test_requires_probabilities(self):
        scores, labels = self._fixture()
        logits = ScoreMatrix(scores.ids, scores.values, "logits", scores.class_names)
        with pytest.raises(ValueError, match="probabilit"):
            macro_report(logits, labels)

    def test_nan_threshold_rejected(self):
        scores, labels = self._fixture()
        with pytest.raises(ValueError, match="threshold"):
            macro_report(scores, labels, threshold=float("nan"))


def test_scores_and_labels_must_have_one_length():
    with pytest.raises(ValueError) as exc:
        average_precision([0.2, 0.7], [1])
    assert str(exc.value) == "scores and labels length mismatch"


KERNELS = {
    "average_precision": average_precision,
    "auc_roc": auc_roc,
    "f1_at_threshold": lambda s, y: f1_at_threshold(s, y, 0.5),
    "ece": lambda s, y: ece(s, y, EceConfig(15)),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_labels_must_be_binary(kernel):
    # a label of 2 was read as a negative: AP 0.333, AUC 0.0 and ECE 0.733 on these scores
    with pytest.raises(ValueError) as exc:
        KERNELS[kernel]([0.9, 0.5, 0.2], [2, 0, 1])
    assert str(exc.value) == "labels must be whole numbers in [0, 1]"
    expected = KERNELS[kernel]([0.9, 0.5, 0.2], [1, 0, 1])
    assert KERNELS[kernel]([0.9, 0.5, 0.2], [True, False, True]) == expected
    assert KERNELS[kernel]([0.9, 0.5, 0.2], [1.0, 0.0, 1.0]) == expected


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scores_must_be_finite(kernel, bad):
    # a NaN score gave AP 0.5833, AUC 0.5 and F1 0.0 on these labels
    with pytest.raises(ValueError) as exc:
        KERNELS[kernel]([bad, 0.5, 0.2], [1, 0, 1])
    assert str(exc.value) == "scores must be numbers in (-inf, inf)"
