import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit.data import LabelMatrix
from tailkit.rng import GOLDEN_GAMMA, MASK64, bounded_block, float_block, splitmix64_block
from tailkit.sampler import (
    SamplerConfig,
    build_epoch,
    class_repeat_factors,
    sample_repeat_factors,
)


class SplitMix64:
    """Oracle: the documented SplitMix64 recipe (see ``tailkit.rng``), one scalar draw at a time."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def scalar_sample_repeat_factors(labels, r, cfg):
    """Reference: one Python pass per sample over its positive classes."""
    y = labels.values.astype(bool)
    out = np.ones(labels.n_samples, dtype=np.float64)
    for i in range(labels.n_samples):
        positive = r[y[i]]
        if positive.size:
            out[i] = min(cfg.r_max, float(positive.max()))
    return out


def scalar_build_epoch(repeat, seed, epoch):
    """Reference: the documented stream consumed one scalar draw at a time."""
    rng = SplitMix64((seed + epoch * GOLDEN_GAMMA) & MASK64)
    indices = []
    for i, r_i in enumerate(repeat):
        copies = int(r_i)
        if rng.next_float() < r_i - copies:
            copies += 1
        indices.extend([i] * copies)
    rng.shuffle(indices)
    return indices


@st.composite
def repeat_vectors(draw):
    """Repeat factors in [1, 10]: lengths 0, 1 and up to 2000, some integer, some at r_max."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2000]), st.integers(min_value=0, max_value=2000)))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    repeat = gen.uniform(1.0, 10.0, n)
    integer = gen.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    repeat[integer] = np.floor(repeat[integer])
    repeat[gen.random(n) < 0.05] = 10.0
    return repeat


class TestClassRepeatFactors:
    def test_frequent_class_stays_at_one(self):
        cfg = SamplerConfig(threshold=0.01)
        r = class_repeat_factors([0.01, 0.5, 1.0], cfg)
        assert r.tolist() == [1.0, 1.0, 1.0]

    def test_sqrt_hundred(self):
        cfg = SamplerConfig(threshold=0.001)
        assert class_repeat_factors([0.00001], cfg)[0] == pytest.approx(10.0, abs=1e-12)

    def test_sqrt_four(self):
        cfg = SamplerConfig(threshold=0.04)
        assert class_repeat_factors([0.01], cfg)[0] == pytest.approx(2.0, abs=1e-12)

    def test_subnormal_frequency_gives_inf_without_a_warning(self):
        # threshold / 5e-324 overflows; RuntimeWarnings are errors under pytest
        cfg = SamplerConfig(threshold=1.0, r_max=4.0)
        r = class_repeat_factors([5e-324, 1e-300, 0.0], cfg)
        assert r.tolist() == [math.inf, 1e150, 1.0]
        labels = LabelMatrix(["a", "b"], [[1, 0, 0], [0, 0, 1]], ["c0", "c1", "c2"])
        assert sample_repeat_factors(labels, r, cfg).tolist() == [4.0, 1.0]

    def test_zero_frequency_flagged(self):
        cfg = SamplerConfig(threshold=0.1)
        freqs = [0.0, 0.5, 0.0]
        assert class_repeat_factors(freqs, cfg).tolist() == [1.0, 1.0, 1.0]


class TestSampleRepeatFactors:
    def test_all_negative_sample(self):
        labels = LabelMatrix(["a"], [[0, 0]], ["c0", "c1"])
        cfg = SamplerConfig()
        out = sample_repeat_factors(labels, np.array([3.0, 4.0]), cfg)
        assert out.tolist() == [1.0]

    def test_cap_applies(self):
        labels = LabelMatrix(["a"], [[1, 1]], ["c0", "c1"])
        cfg = SamplerConfig(r_max=5.0)
        out = sample_repeat_factors(labels, np.array([2.0, 10.0]), cfg)
        assert out.tolist() == [5.0]

    def test_single_unit_positive(self):
        labels = LabelMatrix(["a"], [[1]], ["c0"])
        out = sample_repeat_factors(labels, np.array([1.0]), SamplerConfig())
        assert out.tolist() == [1.0]

    def test_rarest_positive_drives(self):
        labels = LabelMatrix(["a", "b"], [[1, 0], [1, 1]], ["c0", "c1"])
        cfg = SamplerConfig(r_max=10.0)
        out = sample_repeat_factors(labels, np.array([1.5, 4.0]), cfg)
        assert out.tolist() == [1.5, 4.0]

    def test_no_classes(self):
        labels = LabelMatrix(["a", "b"], np.zeros((2, 0)), [])
        assert sample_repeat_factors(labels, np.zeros(0), SamplerConfig()).tolist() == [1.0, 1.0]

    def test_non_finite_factors_follow_scalar_loop(self):
        # NaN among positives caps to r_max (min(r_max, nan) keeps r_max); -inf stays -inf
        labels = LabelMatrix(["a", "b", "c", "d"], [[1, 0], [0, 1], [1, 1], [0, 0]], ["c0", "c1"])
        r = np.array([np.nan, -np.inf])
        cfg = SamplerConfig(r_max=3.0)
        out = sample_repeat_factors(labels, r, cfg)
        assert out.tolist() == [3.0, -np.inf, 3.0, 1.0]
        np.testing.assert_array_equal(out, scalar_sample_repeat_factors(labels, r, cfg))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=8, max_size=8),
        st.floats(min_value=1.0, max_value=20.0),
    )
    def test_matches_scalar_loop(self, n, c, label_seed, r_values, r_max):
        gen = np.random.default_rng(label_seed)
        values = (gen.random((n, c)) < gen.random()).astype(np.int8)
        labels = LabelMatrix([f"s{i}" for i in range(n)], values, [f"c{j}" for j in range(c)])
        r = np.array(r_values[:c])
        cfg = SamplerConfig(r_max=r_max)
        np.testing.assert_array_equal(
            sample_repeat_factors(labels, r, cfg), scalar_sample_repeat_factors(labels, r, cfg)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=8),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_unit_cap_is_a_plain_shuffle(self, n, c, label_seed, freqs, threshold):
        """At r_max 1 every row's factor is exactly 1.0, an all-zero row and a class with no
        positive included, so each epoch is the plan of np.ones(n): the trainer's uniform arm."""
        gen = np.random.default_rng(label_seed)
        values = (gen.random((n, c)) < gen.random()).astype(np.int8)
        values[0], values[:, 0] = 0, 0
        labels = LabelMatrix([f"s{i}" for i in range(n)], values, [f"c{j}" for j in range(c)])
        cfg = SamplerConfig(threshold=threshold, r_max=1.0, seed=label_seed)
        repeat = sample_repeat_factors(labels, class_repeat_factors(freqs[:c], cfg), cfg)
        assert repeat.dtype == np.float64 and repeat.tolist() == [1.0] * n
        for epoch in (0, 5):
            assert build_epoch(repeat, cfg, epoch).indices.tolist() == build_epoch(np.ones(n), cfg, epoch).indices.tolist()


class TestBuildEpoch:
    def test_unit_repeats_give_permutation(self):
        plan = build_epoch(np.ones(10), SamplerConfig(seed=1))
        assert plan.epoch_len == 10
        assert sorted(plan.indices.tolist()) == list(range(10))

    def test_integer_repeats_exact(self):
        plan = build_epoch(np.full(6, 2.0), SamplerConfig(seed=9))
        assert plan.epoch_len == 12
        counts = np.bincount(plan.indices, minlength=6)
        assert counts.tolist() == [2] * 6

    def test_determinism(self):
        cfg = SamplerConfig(seed=123)
        a = build_epoch(np.array([1.2, 3.7, 1.0]), cfg, epoch=4)
        b = build_epoch(np.array([1.2, 3.7, 1.0]), cfg, epoch=4)
        assert json.dumps(a.indices.tolist()) == json.dumps(b.indices.tolist())

    def test_epochs_differ(self):
        cfg = SamplerConfig(seed=123)
        plans = [build_epoch(np.full(20, 1.5), cfg, epoch=e).indices.tolist() for e in range(4)]
        assert len({json.dumps(p) for p in plans}) > 1

    def test_monte_carlo_mean_multiplicity(self):
        cfg = SamplerConfig(seed=77)
        total = 0
        epochs = 2000
        for e in range(epochs):
            total += build_epoch(np.array([1.5, 1.5]), cfg, epoch=e).epoch_len
        mean = total / (2 * epochs)
        # Bernoulli(0.5) extra: std of the mean is 0.5/sqrt(4000) ~ 0.0079
        assert abs(mean - 1.5) < 3 * 0.5 / math.sqrt(2 * epochs)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=1.0, max_value=4.0), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=50),
    )
    def test_coverage_and_bounds(self, repeats, seed, epoch):
        plan = build_epoch(np.array(repeats), SamplerConfig(seed=seed), epoch=epoch)
        counts = np.bincount(plan.indices, minlength=len(repeats))
        assert (counts >= 1).all()
        assert (counts >= np.floor(repeats)).all()
        assert (counts <= np.ceil(repeats)).all()
        assert plan.indices.min() >= 0 and plan.indices.max() < len(repeats)

    def test_rejects_repeat_below_one(self):
        with pytest.raises(ValueError):
            build_epoch(np.array([0.5]), SamplerConfig())

    @pytest.mark.parametrize(
        "repeat, seed, epoch, expected",
        [
            ([1.3, 2.7, 1.0, 4.2, 1.5], 99, 7, [4, 1, 3, 3, 3, 1, 3, 0, 2, 1]),
            # the epoch's start state wraps past 2^64
            ([1.5] * 6 + [3.25, 1.0], 2**64 - 1, 3, [5, 4, 3, 6, 7, 6, 0, 2, 4, 1, 6, 0, 6]),
        ],
    )
    def test_golden_plans(self, repeat, seed, epoch, expected):
        assert build_epoch(repeat, SamplerConfig(seed=seed), epoch=epoch).indices.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        repeat_vectors(),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=1000),
    )
    def test_matches_scalar_stream(self, repeat, seed, epoch):
        plan = build_epoch(repeat, SamplerConfig(seed=seed), epoch=epoch)
        assert plan.indices.tolist() == scalar_build_epoch(repeat.tolist(), seed, epoch)

    @pytest.mark.parametrize(
        "repeat, message",
        [
            ([1.0, float("nan")], r"repeat factors must be numbers in \[1, inf\)"),
            ([float("inf")], r"repeat factors must be numbers in \[1, inf\)"),
            ([1.0, -float("inf")], r"repeat factors must be numbers in \[1, inf\)"),
            ([[1.0, 2.0]], "1-D"),
            (2.0, "1-D"),
            ([1e308, 1e308], "2\\^32"),
            # 2^32 indices: rejected from the counts, before any index list is allocated
            ([2.0**31, 2.0**31], "2\\^32"),
        ],
    )
    def test_rejects_bad_repeat_factors(self, repeat, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                build_epoch(repeat, SamplerConfig())

    @pytest.mark.parametrize(
        "epoch, message", [(1.5, "an integer"), (True, "an integer"), (-1, ">= 0"), (None, "an integer")]
    )
    def test_epoch_must_be_a_non_negative_integer(self, epoch, message):
        # 1.5 raised TypeError, -1 was accepted, and True was read as epoch 1
        with pytest.raises(ValueError, match=f"^epoch must be {message}$"):
            build_epoch([1.0, 2.5], SamplerConfig(), epoch=epoch)

    def test_numpy_integer_seed_and_epoch_give_the_same_plan(self):
        # a numpy seed or epoch raised OverflowError against GOLDEN_GAMMA, once past epoch 0
        expected = build_epoch([1.0, 2.5, 1.5], SamplerConfig(seed=3), epoch=2).indices.tolist()
        for seed, epoch in ((np.int64(3), 2), (3, np.int64(2)), (np.uint8(3), np.int32(2))):
            assert build_epoch([1.0, 2.5, 1.5], SamplerConfig(seed=seed), epoch=epoch).indices.tolist() == expected

    def test_epoch_length_limit(self, monkeypatch):
        monkeypatch.setattr("tailkit.sampler.BLOCK_BOUND_LIMIT", 12)
        assert build_epoch([2.0] * 5 + [1.0], SamplerConfig()).epoch_len == 11
        with pytest.raises(ValueError, match="12 indices"):
            build_epoch([2.0] * 6, SamplerConfig())


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 0 from the published SplitMix64 recipe
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(99)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_bounded_draws(self):
        rng = SplitMix64(5)
        values = [rng.next_below(7) for _ in range(1000)]
        assert set(values) <= set(range(7))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=300))
    def test_block_matches_scalar(self, state, count):
        rng = SplitMix64(state)
        expected = [rng.next_u64() for _ in range(count)]
        block = splitmix64_block(state, count)
        assert block.dtype == np.uint64
        assert block.tolist() == expected
        floats = [(x >> 11) * 2.0**-53 for x in expected]
        assert float_block(block).tolist() == floats

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(min_value=0, max_value=2**64 - 1), st.sampled_from([0, 2**32 - 1, 2**64 - 1])),
                st.one_of(st.integers(min_value=1, max_value=2**32 - 1), st.sampled_from([1, 2, 2**32 - 1])),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_bounded_block_is_exact(self, pairs):
        x = np.array([p[0] for p in pairs], dtype=np.uint64)
        n = np.array([p[1] for p in pairs], dtype=np.uint64)
        assert bounded_block(x, n).tolist() == [(a * b) >> 64 for a, b in pairs]


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(threshold=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(threshold=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(r_max=0.5)
    with pytest.raises(ValueError, match="r_max"):
        SamplerConfig(r_max=math.nan)
    with pytest.raises(ValueError, match="threshold"):
        SamplerConfig(threshold=math.nan)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        SamplerConfig(seed=-1)
    with pytest.raises(ValueError, match="^seed must be an integer$"):
        SamplerConfig(seed=1.5)


def test_nan_frequency_is_rejected():
    """Not given the repeat factor 1 of a zero-frequency class."""
    with pytest.raises(ValueError) as exc:
        class_repeat_factors([math.nan, 0.5], SamplerConfig())
    assert str(exc.value) == "frequencies must be numbers in [0, 1]"


def test_repeat_factor_inputs_are_checked():
    cfg = SamplerConfig()
    with pytest.raises(ValueError) as exc:
        class_repeat_factors([0.5, 1.5], cfg)
    assert str(exc.value) == "frequencies must be numbers in [0, 1]"
    labels = LabelMatrix(["s0", "s1"], [[1, 0], [0, 1]], ["a", "b"])
    with pytest.raises(ValueError) as exc:
        sample_repeat_factors(labels, [1.0], cfg)
    assert str(exc.value) == "class repeat factors do not match label classes"
