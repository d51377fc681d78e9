import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailkit.loss import (
    DbLossParams,
    class_weights,
    db_loss,
    db_loss_fused,
    effective_numbers,
    margins,
    stable_sigmoid,
)


def db_loss_oracle(z, y, w, m):
    """(loss, gradient) from the formulas; `db_loss` and its kernel must match it bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, c = z.shape
    z_adj = z - y * m
    bce = np.maximum(z_adj, 0.0) - z_adj * y + np.log1p(np.exp(-np.abs(z_adj)))
    loss = float(np.sum(w * bce) / (n * c))
    grad = (w / (n * c)) * (stable_sigmoid(z_adj) - y)
    return loss, grad


def stable_sigmoid_oracle(z):
    """The `np.where` form `stable_sigmoid` had before it shared `db_loss_fused`'s two buffers."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def random_instance(rng, n_max=5, c_max=6):
    n = int(rng.integers(1, n_max + 1))
    c = int(rng.integers(1, c_max + 1))
    z = rng.uniform(-6, 6, (n, c))
    y = (rng.random((n, c)) < 0.5).astype(np.float64)
    w = rng.uniform(0.5, 2.0, c)
    m = rng.uniform(0.0, 1.0, c)
    return z, y, w, m


def fd_gradient(z, y, w, m, step=1e-5):
    """Central finite differences of the scalar loss, entry by entry."""
    grad = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp = z.copy()
            zp[i, j] += step
            zm = z.copy()
            zm[i, j] -= step
            grad[i, j] = (db_loss(zp, y, w, m).loss - db_loss(zm, y, w, m).loss) / (2 * step)
    return grad


class TestEffectiveNumbers:
    def test_single_count_cancels(self):
        for beta in (0.0, 0.5, 0.9999):
            assert effective_numbers([1], beta)[0] == pytest.approx(1.0, abs=1e-15)

    def test_two_count_closed_form(self):
        # (1 - b) / (1 - b^2) = 1 / (1 + b)
        assert abs(effective_numbers([2], 0.9999)[0] - 1.0 / 1.9999) <= 1e-12

    def test_all_ones(self):
        assert effective_numbers([1, 1, 1], 0.9).tolist() == pytest.approx([1.0, 1.0, 1.0])

    def test_beta_zero(self):
        assert effective_numbers([1, 10, 500], 0.0).tolist() == [1.0, 1.0, 1.0]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match=r"^counts must be whole numbers in \[1, inf\)$"):
            effective_numbers([3, 0], 0.9)

    @pytest.mark.parametrize("counts", [[1.5, 3], [3, math.inf], [3, math.nan], [3, None]])
    def test_counts_are_whole_and_finite(self, counts):
        # 1.5 was truncated to a count of 1, and inf raised OverflowError, in both functions
        for call in (lambda: effective_numbers(counts, 0.9), lambda: margins(counts, 0.1)):
            with pytest.raises(ValueError, match=r"^counts must be whole numbers in \[1, inf\)$"):
                call()

    def test_whole_float_counts_match_int_counts(self):
        counts = [1, 7, 2**40]
        floats = [float(n) for n in counts]
        for beta in (0.0, 0.5, 0.9999):
            assert effective_numbers(floats, beta).tolist() == effective_numbers(counts, beta).tolist()
        assert margins(floats, 0.3).tolist() == margins(counts, 0.3).tolist()

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.5, max_value=0.99999))
    def test_strictly_decreasing_in_count(self, n, beta):
        # strict while beta^n stays far from float underflow
        lo, hi = effective_numbers([n, n + 1], beta)
        assert lo > hi

    def test_strictly_decreasing_at_paper_beta(self):
        eff = effective_numbers(np.arange(1, 10_001), 0.9999)
        assert (np.diff(eff) < 0).all()


class TestClassWeights:
    def test_alpha_zero_is_unit(self):
        w = class_weights(np.array([0.3, 7.0, 1.0]), 0.0)
        assert w.tolist() == [1.0, 1.0, 1.0]

    def test_hand_normalization(self):
        w = class_weights(np.array([1.0, 4.0]), 1.0)
        assert w.tolist() == pytest.approx([0.4, 1.6], abs=1e-15)

    def test_symmetry(self):
        w = class_weights(np.array([2.7, 2.7, 2.7]), 1.3)
        assert w.tolist() == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    @settings(max_examples=100)
    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=10),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_mean_is_one(self, eff, alpha):
        w = class_weights(np.array(eff), alpha)
        assert w.mean() == pytest.approx(1.0, rel=1e-9)
        assert (w > 0).all()


class TestMargins:
    def test_kappa_zero(self):
        assert margins([5, 50, 500], 0.0).tolist() == [0.0, 0.0, 0.0]

    def test_equal_counts(self):
        assert margins([100, 100], 0.1).tolist() == [0.0, 0.0]

    def test_hand_value(self):
        m = margins([100, 1], 0.1)
        assert m[0] == 0.0
        assert m[1] == pytest.approx(0.1 * math.log(100), abs=1e-12)

    def test_head_class_zero_margin(self):
        m = margins([7, 3, 9, 1], 0.3)
        assert m[2] == 0.0
        assert (m >= 0).all()


class TestDbLoss:
    def test_symmetric_point(self):
        result = db_loss([[0.0]], [[1.0]], [1.0], [0.0])
        assert result.loss == pytest.approx(math.log(2), abs=1e-15)
        assert result.grad_z[0, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_zero_margin_equals_plain_bce(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z, y, w, m = random_instance(rng)
            w = np.ones_like(w)
            plain = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
            result = db_loss(z, y, w, np.zeros_like(m))
            assert result.loss == pytest.approx(plain.mean(), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(25):
            z, y, w, m = random_instance(rng)
            analytic = db_loss(z, y, w, m).grad_z
            numeric = fd_gradient(z, y, w, m)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), np.abs(numeric))
            worst = max(worst, rel.max())
        assert worst <= 1e-6

    def test_margin_ignored_on_negative_labels(self):
        z = np.array([[1.2, -0.3]])
        y = np.array([[0.0, 0.0]])
        w = np.array([1.0, 1.0])
        a = db_loss(z, y, w, np.array([0.0, 0.0]))
        b = db_loss(z, y, w, np.array([5.0, 2.0]))
        assert a.loss == b.loss
        assert np.array_equal(a.grad_z, b.grad_z)

    def test_margin_monotone_on_positive_labels(self):
        z = np.array([[0.7]])
        y = np.array([[1.0]])
        w = np.array([1.0])
        losses = [db_loss(z, y, w, np.array([m])).loss for m in (0.0, 0.5, 1.0, 2.0)]
        assert losses == sorted(losses)
        assert losses[0] < losses[-1]

    def test_weight_linearity(self):
        rng = np.random.default_rng(5)
        z, y, w, m = random_instance(rng)
        base = db_loss(z, y, w, m)
        doubled = db_loss(z, y, 2.0 * w, m)
        assert doubled.loss == pytest.approx(2.0 * base.loss, rel=1e-14)
        np.testing.assert_allclose(doubled.grad_z, 2.0 * base.grad_z, rtol=1e-14)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[500.0, -500.0]])
        y = np.array([[0.0, 1.0]])
        result = db_loss(z, y, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert np.isfinite(result.loss)
        assert np.isfinite(result.grad_z).all()
        assert result.loss == pytest.approx(500.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            db_loss(np.zeros((2, 3)), np.zeros((2, 2)), np.ones(3), np.zeros(3))

    def test_non_finite_logit(self):
        with pytest.raises(ValueError):
            db_loss(np.array([[np.inf]]), np.array([[1.0]]), np.ones(1), np.zeros(1))

    @pytest.mark.parametrize(
        "logit, label, message",
        [
            (math.nan, 1.0, r"^logits must be numbers in \(-inf, inf\)$"),
            (-math.inf, 1.0, r"^logits must be numbers in \(-inf, inf\)$"),
            # a label of 2 gave a finite loss, and NaN a NaN loss
            (0.0, 2.0, r"^labels must be whole numbers in \[0, 1\]$"),
            (0.0, -1.0, r"^labels must be whole numbers in \[0, 1\]$"),
            (0.0, 0.5, r"^labels must be whole numbers in \[0, 1\]$"),
            (0.0, math.nan, r"^labels must be whole numbers in \[0, 1\]$"),
        ],
    )
    def test_logits_and_labels_are_checked(self, logit, label, message):
        with pytest.raises(ValueError, match=message):
            db_loss(np.array([[0.0, logit]]), np.array([[1.0, label]]), np.ones(2), np.zeros(2))

    def test_bool_and_int_labels_match_float_labels(self):
        z, w, m = np.array([[0.3, -2.0]]), np.array([1.0, 2.0]), np.array([0.5, 0.1])
        expected = db_loss(z, np.array([[1.0, 0.0]]), w, m)
        for y in (np.array([[True, False]]), np.array([[1, 0]], np.int8)):
            result = db_loss(z, y, w, m)
            assert result.loss == expected.loss and np.array_equal(result.grad_z, expected.grad_z)


# NaN, +-inf, +-0.0, the range where exp(-|z|) is subnormal or 0, and |z| up to 1e308
SIGMOID_INPUTS = st.one_of(
    st.floats(-1e308, 1e308),
    st.floats(-800.0, 800.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 745.0, -746.0, 5e-324]),
)


class TestStableSigmoid:
    def test_fixtures(self):
        assert stable_sigmoid(0.0) == 0.5
        assert stable_sigmoid(500.0) == pytest.approx(1.0, abs=1e-12)
        assert stable_sigmoid(-500.0) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100)
    @given(st.floats(min_value=-700, max_value=700))
    def test_symmetry_and_bounds(self, z):
        s = float(stable_sigmoid(z))
        assert 0.0 <= s <= 1.0
        assert s + float(stable_sigmoid(-z)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.just(()), st.tuples(st.integers(0, 9)), st.tuples(st.integers(0, 5), st.integers(0, 5))
        ).flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=SIGMOID_INPUTS)),
        st.booleans(),
    )
    def test_bit_identical_to_oracle(self, z, transposed):
        # 0-d, 1-D and 2-D inputs, C-ordered or a transposed view
        z = z.T if transposed else z
        before = z.copy()
        got, want = stable_sigmoid(z), stable_sigmoid_oracle(z)
        assert type(got) is type(want) and got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert z.tobytes() == before.tobytes()

    def test_python_and_numpy_scalars_give_0d_arrays(self):
        for z in (0.0, -0.0, math.nan, -math.inf, 3, np.float64(-2.5), np.float32(1.5), [[0.5]]):
            got, want = stable_sigmoid(z), stable_sigmoid_oracle(z)
            assert type(got) is np.ndarray and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        DbLossParams(beta=1.0)
    with pytest.raises(ValueError):
        DbLossParams(alpha=-0.1)
    with pytest.raises(ValueError):
        DbLossParams(margin_scale=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_parameters_rejected(bad):
    with pytest.raises(ValueError, match="alpha"):
        DbLossParams(alpha=bad)
    with pytest.raises(ValueError, match="margin_scale"):
        DbLossParams(margin_scale=bad)
    with pytest.raises(ValueError, match="alpha"):
        class_weights(np.array([0.5, 1.0]), bad)
    with pytest.raises(ValueError, match="kappa"):
        margins([4, 1], bad)


@pytest.mark.parametrize(
    "eff, alpha",
    [([0.5, 0.5], 1e308), ([1.0, 0.5], 1e308), ([1e-300, 1e-300], 2.0), ([1e300, 1.0], 2.0), ([1e300, 1e300], 2.0)],
    ids=["all-underflow", "one-underflows", "sum-underflows", "one-overflows", "sum-overflows"],
)
def test_class_weights_out_of_float_range_name_alpha(eff, alpha):
    # under pytest's error::RuntimeWarning: no overflow or divide warning escapes either
    with pytest.raises(ValueError, match=r"^alpha \S+ takes a class weight to 0 or inf$"):
        class_weights(np.array(eff), alpha)


def test_margin_past_float_range_names_kappa():
    assert margins([2, 1], 1e308)[1] == 1e308 * math.log(2)
    with pytest.raises(ValueError, match=r"^kappa 1e\+308 takes a margin to inf$"):
        margins([100, 1], 1e308)


@pytest.mark.parametrize(
    "w, m, field",
    [
        ([1.0, math.nan], [0.0, 0.0], "weights"),
        ([1.0, 0.0], [0.0, 0.0], "weights"),
        ([1.0, math.inf], [0.0, 0.0], "weights"),
        ([1.0, 1.0], [0.0, math.nan], "margins"),
        ([1.0, 1.0], [-0.5, 0.0], "margins"),
        ([1.0, 1.0], [math.inf, 0.0], "margins"),
    ],
)
def test_db_loss_rejects_bad_terms(w, m, field):
    with pytest.raises(ValueError, match=field):
        db_loss(np.zeros((1, 2)), np.ones((1, 2)), np.array(w), np.array(m))


# Logits and margins that reach z' == 0 exactly, and |z'| where exp(-|z'|) is
# subnormal or underflows to 0.
LOGITS = st.one_of(
    st.floats(-800.0, 800.0), st.sampled_from([0.0, -0.0, 1.0, 36.0, 708.0, 745.0, -746.0])
)
MARGINS = st.one_of(st.floats(0.0, 60.0), st.just(0.0))


@st.composite
def loss_batches(draw):
    n, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    z = draw(hnp.arrays(np.float64, (n, c), elements=LOGITS))
    y = draw(hnp.arrays(np.float64, (n, c), elements=st.sampled_from([0.0, 1.0])))
    w = draw(hnp.arrays(np.float64, c, elements=st.floats(1e-3, 50.0)))
    m = draw(hnp.arrays(np.float64, c, elements=MARGINS))
    on_margin = draw(hnp.arrays(np.bool_, (n, c)))
    z = np.where(on_margin & (y == 1.0), m, z)  # z - y*m == 0 exactly
    return z, y, w, m


class TestFusedKernel:
    @settings(max_examples=300, deadline=None)
    @given(loss_batches())
    def test_bit_identical_to_oracle(self, batch):
        z, y, w, m = batch
        n, c = z.shape
        loss, grad = db_loss_oracle(z, y, w, m)
        checked = db_loss(z, y, w, m)
        assert checked.loss == loss and np.array_equal(checked.grad_z, grad)
        # per-class vectors as passed by db_loss, and tiled to whole rows as the trainer does
        for w_arg, m_arg, scale in (
            (w, m, w / (n * c)),
            (np.tile(w, (n, 1)), np.tile(m, (n, 1)), np.tile(w / (n * c), (n, 1))),
        ):
            z_buf, out = z.copy(), np.empty_like(z)
            work, mask = np.empty_like(z), np.empty(z.shape, dtype=bool)
            assert db_loss_fused(z_buf, y, w_arg, m_arg, scale, out, work, mask) == loss
            assert np.array_equal(out, grad)

    def test_db_loss_leaves_its_inputs_unchanged(self):
        z, y = np.array([[0.3, -2.0]]), np.array([[1.0, 0.0]])
        w, m = np.array([1.0, 2.0]), np.array([0.5, 0.1])
        copies = [a.copy() for a in (z, y, w, m)]
        db_loss(z, y, w, m)
        for before, after in zip(copies, (z, y, w, m)):
            assert np.array_equal(before, after)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: class_weights([1.0, 0.0], 1.0), "effective numbers must be numbers in (0, inf)"),
        # not blamed on alpha: a NaN effective number is no positive number
        (lambda: class_weights([math.nan, 1.0], 1.0), "effective numbers must be numbers in (0, inf)"),
        (lambda: margins([3, 0], 0.1), "counts must be whole numbers in [1, inf)"),
        (
            lambda: db_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(3), np.zeros(2)),
            "weights and margins must have one entry per class",
        ),
    ],
    ids=["eff-not-positive", "eff-nan", "margin-zero-count", "terms-per-class"],
)
def test_bad_class_terms_name_their_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
