"""Unit tests for angular outlier detection and boosting."""

import numpy as np
import pytest

from qsmote import aol, keyed, pipeline, synth


def test_worked_iqr_example():
    values = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100]
    bounds, low, high = aol.detect_outliers(values, num_bins=2)
    assert bounds.q1 == pytest.approx(2.75)
    assert bounds.q3 == pytest.approx(8.25)
    assert bounds.upper_bound == pytest.approx(16.5)
    assert bounds.lower_bound == pytest.approx(2.75 - 1.5 * 5.5)
    assert high.total() == 1
    assert low.total() == 0
    assert len(low) == 0


def test_constant_vector_has_no_outliers():
    bounds, low, high = aol.detect_outliers(np.full(50, 1.3), num_bins=5)
    assert bounds.lower_bound == pytest.approx(1.3)
    assert bounds.upper_bound == pytest.approx(1.3)
    assert low.total() == 0 and high.total() == 0


def test_planted_extremes_populate_both_tables():
    base = np.linspace(1.0, 2.0, 40)
    bounds, _, _ = aol.detect_outliers(base, num_bins=3)
    planted = np.r_[base, bounds.lower_bound - 0.5, bounds.upper_bound + 0.5]
    _, low, high = aol.detect_outliers(planted, num_bins=3)
    assert low.total() >= 1
    assert high.total() >= 1


def test_detection_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = rng.normal(size=int(rng.integers(5, 60)))
        bounds, low, high = aol.detect_outliers(d, num_bins=4)
        srt = np.sort(d)
        q1 = np.quantile(srt, 0.25)
        q3 = np.quantile(srt, 0.75)
        iqr = q3 - q1
        expect_low = set(np.round(d[d < q1 - 1.5 * iqr], 12))
        expect_high = set(np.round(d[d > q3 + 1.5 * iqr], 12))
        assert low.total() == len(d[d < bounds.lower_bound])
        assert high.total() == len(d[d > bounds.upper_bound])
        got_low = set(np.round(d[d < bounds.lower_bound], 12))
        got_high = set(np.round(d[d > bounds.upper_bound], 12))
        assert got_low == expect_low
        assert got_high == expect_high


def test_bin_tables_are_contiguous_and_conserve_counts():
    rng = np.random.default_rng(1)
    d = np.r_[rng.normal(size=80), [6.0, 6.5, 7.0, 9.0]]
    _, low, high = aol.detect_outliers(d, num_bins=3)
    for table in (low, high):
        if len(table) == 0:
            continue
        assert np.allclose(table.bin_starts[1:], table.bin_ends[:-1])
        assert (table.bin_ends > table.bin_starts).all()


def _boost_setup(counts_per_bin, seed=0):
    """Build a 5-bin high-side table with the requested per-bin counts."""
    num_bins = len(counts_per_bin)
    starts = np.arange(num_bins, dtype=float)
    ends = starts + 1.0
    distances = []
    for i, c in enumerate(counts_per_bin):
        distances += list(np.linspace(starts[i] + 0.1, starts[i] + 0.9, c))
    distances = np.array(distances)
    rng = np.random.default_rng(seed)
    features = rng.uniform(1.0, 4.0, size=(len(distances), 3))
    row_ids = np.arange(len(distances))
    table = aol.OutlierBinTable(
        bin_starts=starts,
        bin_ends=ends,
        counts=np.array(counts_per_bin),
        num_bins=num_bins,
    )
    return table, features, distances, row_ids


def test_boost_arithmetic_worked_example():
    # total 20 over 5 bins: threshold 4, half-threshold 2; a bin holding a
    # single record gets floor(4/1) = 4 boosted copies
    table, features, distances, row_ids = _boost_setup([1, 5, 6, 5, 3])
    config = pipeline.SmoteConfig(seed=2)
    boosted = aol.boost_outliers(table, features, distances, row_ids, config)
    assert len(boosted) == 4
    assert all(boosted.boosted)
    assert set(boosted.source_row_id.tolist()) == {0}
    # post-boost population of the boosted bin: count * (1 + floor(threshold/count))
    assert 1 + len(boosted) == 1 * (1 + 4 // 1)


def test_boost_skips_bins_at_or_above_half_threshold():
    table, features, distances, row_ids = _boost_setup([3, 5, 6, 3, 3])
    config = pipeline.SmoteConfig(seed=3)
    assert len(aol.boost_outliers(table, features, distances, row_ids, config)) == 0


def test_boost_skips_empty_bins():
    table, features, distances, row_ids = _boost_setup([0, 5, 6, 5, 4])
    config = pipeline.SmoteConfig(seed=4)
    boosted = aol.boost_outliers(table, features, distances, row_ids, config)
    assert len(boosted) == 0


def test_boost_empty_table_is_empty():
    table = aol.OutlierBinTable(
        bin_starts=np.empty(0), bin_ends=np.empty(0),
        counts=np.empty(0, dtype=int), num_bins=5,
    )
    config = pipeline.SmoteConfig()
    assert len(aol.boost_outliers(table, np.empty((0, 2)), np.empty(0), np.empty(0, int), config)) == 0


def test_boosted_records_are_distinct_from_sources_and_each_other():
    table, features, distances, row_ids = _boost_setup([1, 5, 6, 5, 3], seed=5)
    config = pipeline.SmoteConfig(seed=6)
    boosted = aol.boost_outliers(table, features, distances, row_ids, config)
    vectors = list(boosted.features)
    source = features[0]
    for v in vectors:
        assert not np.array_equal(v, source)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            assert not np.array_equal(vectors[i], vectors[j])


def test_bin_members_last_bin_is_right_closed():
    table, _, distances, _ = _boost_setup([2, 2, 2, 2, 2])
    d = np.r_[distances, table.bin_ends[-1]]
    mask = aol.bin_members(table, len(table) - 1, d)
    assert mask[-1]
    first = aol.bin_members(table, 0, d)
    assert not first[-1]


def test_two_thin_bins_boost_in_bin_member_pass_order():
    # total 50 over 5 bins: threshold 10, half-threshold 5; bin 0 (2 members)
    # gets 5 passes each and bin 2 (3 members) 3 each. Rows are shuffled, so
    # bin order and row order differ
    table, features, distances, _ = _boost_setup([2, 20, 3, 15, 10], seed=8)
    order = np.random.default_rng(8).permutation(len(distances))
    features, distances, row_ids = features[order], distances[order], 100 + order
    config = pipeline.SmoteConfig(seed=9, boost_angle_multiplier=2.5)
    boosted = aol.boost_outliers(table, features, distances, row_ids, config)
    expected = [
        (m, itr, j)
        for b, itr in ((0, 5), (2, 3))
        for m in np.flatnonzero(aol.bin_members(table, b, distances))
        for j in range(itr)
    ]
    assert len(boosted) == len(expected) == 2 * 5 + 3 * 3
    assert all(boosted.boosted)
    for i, (m, itr, j) in enumerate(expected):
        one = synth.create_syn_data(
            features[m : m + 1],
            distances[m : m + 1],
            [(itr * synth.DEGREE) * 2.5 + j],
            config.split_factor,
            keyed.uniform(config.seed, row_ids[m : m + 1], [j], [0xB005]),
            row_ids[m : m + 1],
            boosted=True,
        )
        assert np.array_equal(boosted.features[i], one.features[0])
        assert boosted.rotation_angle[i] == one.rotation_angle[0]
        assert boosted.angular_distance[i] == one.angular_distance[0]
        assert boosted.source_row_id[i] == one.source_row_id[0] == row_ids[m]


def test_boost_with_no_thin_bin_is_empty_of_the_features_width():
    table, features, distances, row_ids = _boost_setup([3, 5, 6, 3, 3])
    config = pipeline.SmoteConfig(seed=3)
    boosted = aol.boost_outliers(table, features, distances, row_ids, config)
    assert boosted.features.shape == (0, 3)
    assert len(boosted.source_row_id) == len(boosted.boosted) == 0
    # the columns keep the dtypes of a table that create_syn_data makes
    assert boosted.features.dtype == boosted.rotation_angle.dtype == boosted.angular_distance.dtype == float
    assert boosted.source_row_id.dtype == int and boosted.boosted.dtype == bool
