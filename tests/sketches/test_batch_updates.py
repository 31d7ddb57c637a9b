"""Batched sketch kernels agree exactly with the scalar API.

``update_batch`` on :class:`CountSketch` / :class:`AmsF2Sketch` and the
``*_array`` methods on :class:`KWiseHash` are pure vectorizations: for
integer deltas every code path is exact integer arithmetic (Mersenne
2^61-1 hashing in uint64, float64 accumulation of integers well below
2^53), so equality here is bitwise, not approximate.
"""

import random

import numpy as np
import pytest

from repro.sketches import (
    MERSENNE_PRIME,
    AmsF2Sketch,
    CountSketch,
    KWiseHash,
    stable_key,
    stable_key_array,
)


class TestStableKeyArray:
    def test_matches_scalar_on_ints(self):
        rng = random.Random(0)
        keys = [rng.randrange(-(2**40), 2**40) for _ in range(500)]
        keys += [0, -1, 1, MERSENNE_PRIME, -MERSENNE_PRIME, 2**61 - 2]
        batch = stable_key_array(keys)
        assert batch.dtype == np.uint64
        assert batch.tolist() == [stable_key(k) for k in keys]

    def test_matches_scalar_on_numpy_array(self):
        arr = np.array([5, -7, 123456789, 0], dtype=np.int64)
        assert stable_key_array(arr).tolist() == [stable_key(int(k)) for k in arr]

    def test_matches_scalar_beyond_int63(self):
        keys = [2**63, 2**63 + 1, 2**64 - 1, 0, 5, MERSENNE_PRIME]
        expected = [stable_key(k) for k in keys]
        assert stable_key_array(keys).tolist() == expected
        assert stable_key_array(np.array(keys, dtype=np.uint64)).tolist() == expected
        assert stable_key_array(np.array([3, 250], dtype=np.uint8)).tolist() == [3, 250]

    def test_matches_scalar_at_int64_min(self):
        keys = [-(2**63), -(2**63) + 1, -MERSENNE_PRIME - 1, -1]
        expected = [stable_key(k) for k in keys]
        assert stable_key_array(keys).tolist() == expected
        assert stable_key_array(np.array(keys, dtype=np.int64)).tolist() == expected

    def test_bools_among_ints_stay_distinct(self):
        keys = [True, 3, False, 1, 0]
        assert stable_key_array(keys).tolist() == [stable_key(k) for k in keys]
        assert stable_key_array(keys).tolist()[:3] == [7, 3, 11]

    def test_matches_scalar_on_tuples(self):
        keys = [(1, 2), (2, 1), (0, 0), (10**6, 10**6 + 1)]
        assert stable_key_array(keys).tolist() == [stable_key(k) for k in keys]


class TestKWiseHashArrays:
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_values_array_matches_scalar(self, k, seed):
        h = KWiseHash(k, seed=seed)
        rng = random.Random(k * 100 + seed)
        keys = [rng.randrange(0, MERSENNE_PRIME) for _ in range(300)]
        keys += [0, 1, MERSENNE_PRIME - 1]
        arr = np.array(keys, dtype=np.uint64)
        assert h.values_array(arr).tolist() == [h.value(key) for key in keys]

    def test_buckets_signs_uniforms_bernoulli(self):
        h = KWiseHash(4, seed=3)
        keys = [stable_key(k) for k in range(200)]
        arr = np.array(keys, dtype=np.uint64)
        assert h.buckets_array(arr, 37).tolist() == [h.bucket(k, 37) for k in keys]
        assert h.signs_array(arr).tolist() == [h.sign(k) for k in keys]
        assert h.uniforms_array(arr).tolist() == [h.uniform(k) for k in keys]
        for p in (0.0, 0.25, 0.5, 1.0, 1e-9):
            assert h.bernoulli_array(arr, p).tolist() == [
                h.bernoulli(k, p) for k in keys
            ]


    def test_uniforms_array_rounds_once(self):
        """``value + 1`` is rounded to float once, as the scalar division
        does; rounding ``value`` and then adding 1.0 disagreed by 1 ulp on
        about 1.5% of keys."""
        h = KWiseHash(2, seed=5)
        arr = np.array([stable_key(k) for k in range(20000)], dtype=np.uint64)
        assert h.uniforms_array(arr).tolist() == [h.uniform(int(k)) for k in arr]


class TestCountSketchBatch:
    def test_batch_equals_scalar_sequence(self):
        scalar = CountSketch(rows=5, width=64, seed=11)
        batched = CountSketch(rows=5, width=64, seed=11)
        rng = random.Random(42)
        keys = [rng.randrange(0, 500) for _ in range(1000)]
        deltas = [rng.choice([-2, -1, 1, 1, 3]) for _ in range(1000)]
        for key, delta in zip(keys, deltas):
            scalar.update(key, delta)
        batched.update_batch(keys, deltas)
        for key in set(keys):
            assert scalar.query(key) == batched.query(key)

    def test_batch_default_delta_is_one(self):
        a = CountSketch(rows=3, width=32, seed=1)
        b = CountSketch(rows=3, width=32, seed=1)
        keys = list(range(50)) * 3
        for key in keys:
            a.update(key)
        b.update_batch(keys)
        assert all(a.query(k) == b.query(k) for k in range(50))

    def test_batch_accepts_tuple_keys(self):
        a = CountSketch(rows=3, width=32, seed=5)
        b = CountSketch(rows=3, width=32, seed=5)
        keys = [(u, u + 1) for u in range(40)]
        for key in keys:
            a.update(key, 2.0)
        b.update_batch(keys, [2.0] * len(keys))
        assert all(a.query(k) == b.query(k) for k in keys)

    def test_merge_after_batch(self):
        a = CountSketch(rows=3, width=32, seed=9)
        b = CountSketch(rows=3, width=32, seed=9)
        a.update_batch(range(20))
        b.update_batch(range(10, 30))
        a.merge(b)
        reference = CountSketch(rows=3, width=32, seed=9)
        reference.update_batch(list(range(20)) + list(range(10, 30)))
        assert all(a.query(k) == reference.query(k) for k in range(30))


class TestCountSketchCacheBound:
    def test_cache_never_exceeds_cap(self):
        sketch = CountSketch(rows=2, width=16, seed=0, max_cache_entries=10)
        for key in range(100):
            sketch.update(key)
        assert sketch.cache_entries <= 10

    def test_default_cap_applies(self):
        sketch = CountSketch(rows=2, width=16, seed=0)
        assert sketch.max_cache_entries == CountSketch.DEFAULT_MAX_CACHE_ENTRIES
        for key in range(CountSketch.DEFAULT_MAX_CACHE_ENTRIES + 64):
            sketch.update(key)
        assert sketch.cache_entries <= CountSketch.DEFAULT_MAX_CACHE_ENTRIES

    def test_space_items_reports_cache(self):
        sketch = CountSketch(rows=2, width=16, seed=0, max_cache_entries=8)
        base = sketch.space_items
        assert base == 2 * 16
        for key in range(4):
            sketch.update(key)
        assert sketch.space_items == base + sketch.cache_entries

    def test_capped_cache_still_correct(self):
        capped = CountSketch(rows=4, width=64, seed=2, max_cache_entries=5)
        uncapped = CountSketch(rows=4, width=64, seed=2)
        for key in range(200):
            capped.update(key, 1.5)
            uncapped.update(key, 1.5)
        assert all(capped.query(k) == uncapped.query(k) for k in range(200))


class TestAmsBatch:
    def test_batch_equals_scalar_sequence(self):
        scalar = AmsF2Sketch(groups=4, group_size=6, seed=7)
        batched = AmsF2Sketch(groups=4, group_size=6, seed=7)
        rng = random.Random(3)
        keys = [rng.randrange(0, 300) for _ in range(800)]
        deltas = [rng.choice([-1, 1, 2]) for _ in range(800)]
        for key, delta in zip(keys, deltas):
            scalar.update(key, delta)
        batched.update_batch(keys, deltas)
        assert scalar.estimate() == batched.estimate()

    def test_batch_then_merge(self):
        a = AmsF2Sketch(groups=3, group_size=4, seed=1)
        b = AmsF2Sketch(groups=3, group_size=4, seed=1)
        a.update_batch(range(30))
        b.update_batch(range(15, 45))
        a.merge(b)
        reference = AmsF2Sketch(groups=3, group_size=4, seed=1)
        reference.update_batch(list(range(30)) + list(range(15, 45)))
        assert a.estimate() == reference.estimate()

    def test_estimate_reasonable_on_uniform_frequencies(self):
        sketch = AmsF2Sketch(groups=6, group_size=12, seed=0)
        keys = [k for k in range(100) for _ in range(3)]  # each frequency 3
        sketch.update_batch(keys)
        truth = 100 * 9
        assert 0.4 * truth <= sketch.estimate() <= 2.5 * truth
