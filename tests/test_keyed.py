"""keyed's batch draws against numpy's own per-key Generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsmote import keyed
from qsmote.errors import ParameterError

# one-word seeds, the edges of two and three words, and any size beyond
_SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3]), st.integers(0, 2**80))
_KEY_VALUES = st.one_of(st.sampled_from([0, 2**32 - 1, 0xB005]), st.integers(0, 2**32 - 1))


@st.composite
def _keys(draw):
    width = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(_KEY_VALUES, min_size=width, max_size=width), min_size=1, max_size=6))
    return [np.array(col, dtype=np.int64) for col in zip(*rows)]


def _rows(columns):
    return [[int(v) for v in row] for row in zip(*columns)]


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, columns=_keys())
# a two-word seed, a record key and the boost tag: five entropy words, so
# SeedSequence mixes the fifth word into the pool in its second loop
@example(seed=2**32 + 5, columns=[np.array([0, 7]), np.array([3, 0]), np.array([0xB005, 0xB005])])
def test_uniform_equals_default_rng(seed, columns):
    got = keyed.uniform(seed, *columns)
    want = [np.random.default_rng([seed, *row]).uniform() for row in _rows(columns)]
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, columns=_keys(), n=st.sampled_from([1, 30, 1000]))
def test_binomial_equals_default_rng(seed, columns, n):
    # p = 0 and 1 draw nothing; n*p <= 30 is numpy's inversion sampler and
    # n*p > 30 its rejection sampler, which takes a varying number of draws
    for p in (0.0, 1.0, 0.01, 0.3, 0.5):
        got = keyed.binomial(seed, n, np.full(len(columns[0]), p), *columns).tolist()
        want = [np.random.default_rng([seed, *row]).binomial(n, p) for row in _rows(columns)]
        assert got == want


def test_rows_do_not_depend_on_their_batch():
    rng = np.random.default_rng(0)
    ids, passes = rng.integers(0, 2**32, size=(2, 500))
    u = keyed.uniform(7, ids, passes)
    order = rng.permutation(500)
    assert keyed.uniform(7, ids[order], passes[order]).tolist() == u[order].tolist()
    assert np.r_[keyed.uniform(7, ids[:3], passes[:3]), keyed.uniform(7, ids[3:], passes[3:])].tolist() == u.tolist()
    assert keyed.uniform(7, ids[:0], passes[:0]).tolist() == []


@pytest.mark.parametrize(
    "columns",
    [
        [np.array([1, -1])],
        [np.array([1, 2**32])],
        [np.array([1.0, 2.0])],
        [np.array([True])],
        [np.array([1, 2]), np.array([3])],
        [np.array([[1, 2]])],
        [],
    ],
    ids=["negative", "two-words", "float", "bool", "ragged", "2-d", "no-columns"],
)
def test_keys_outside_one_word_each_raise(columns):
    with pytest.raises(ParameterError):
        keyed.uniform(0, *columns)
    with pytest.raises(ParameterError):
        keyed.binomial(0, 1, [0.5, 0.5], *columns)


def test_negative_seed_raises():
    for draw in (keyed.uniform, lambda seed, keys: keyed.binomial(seed, 1, np.full(len(keys), 0.5), keys)):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            draw(-1, np.arange(3))
