"""l2 sampler: sampling distribution proportional to f_i^2."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.seeding import derive_seed
from repro.sketches import L2Sampler, L2SamplerBank, stable_key


def _scalar_copies(count, seed, **layout):
    """The bank's copies as scalar samplers: the bit-identity oracle."""
    return [
        L2Sampler(seed=derive_seed("sketch:l2-sampler-bank", j, seed=seed), **layout)
        for j in range(count)
    ]


def _scalar_table(samplers):
    return np.concatenate([s._sketch._table.ravel() for s in samplers])


class TestL2Sampler:
    def test_validates_accept_scale(self):
        with pytest.raises(ValueError):
            L2Sampler(accept_scale=1.0)

    def test_value_estimate_accurate(self):
        """On a sparse vector the returned value estimate is near-exact."""
        vector = {"a": 10, "b": 3, "c": 1}
        f2 = sum(v * v for v in vector.values())
        recovered = {}
        for seed in range(120):
            sampler = L2Sampler(seed=seed, width=512, accept_scale=3.0)
            for key, value in vector.items():
                sampler.update(key, value)
            drawn = sampler.sample(list(vector), f2)
            if drawn is not None:
                key, estimate = drawn
                recovered.setdefault(key, []).append(estimate)
        assert recovered, "no sampler succeeded in 120 copies"
        for key, estimates in recovered.items():
            for estimate in estimates:
                assert abs(abs(estimate) - vector[key]) < 1.0

    def test_distribution_proportional_to_squares(self):
        """P[key sampled] tracks f_key^2 / F2."""
        vector = {"big": 8, "mid": 4, "small": 2}
        f2 = sum(v * v for v in vector.values())
        counts = Counter()
        successes = 0
        for seed in range(600):
            sampler = L2Sampler(seed=seed, width=256, accept_scale=4.0)
            for key, value in vector.items():
                sampler.update(key, value)
            drawn = sampler.sample(list(vector), f2)
            if drawn is not None:
                counts[drawn[0]] += 1
                successes += 1
        assert successes > 30
        # squares 64 : 16 : 4 -> big should dominate mid by roughly 4x
        # (the argmax step skews slightly further toward the largest
        # coordinate on tiny vectors, so the band is generous)
        assert counts["big"] > counts["mid"] > counts["small"] >= 0
        ratio = counts["big"] / max(1, counts["mid"])
        assert 2.0 < ratio < 12.0

    def test_no_updates_returns_none(self):
        sampler = L2Sampler(seed=1)
        assert sampler.sample(["a", "b"], 100.0) is None

    def test_rejects_negative_f2(self):
        sampler = L2Sampler(seed=1)
        with pytest.raises(ValueError):
            sampler.sample(["a"], -1.0)

    def test_scale_cache_bounded_by_sketch_memo(self):
        """The 1/sqrt(u) memo obeys the CountSketch memo cap; results do not
        depend on which keys it holds."""
        bank = L2SamplerBank(count=1, width=64, seed=0)
        (sampler,) = _scalar_copies(1, 0, width=64)
        cap = sampler._sketch.max_cache_entries
        keys = list(range(cap + 300))
        for _ in range(2):  # the second round mixes memo hits and misses
            bank.update_batch(keys)
            for key in keys:
                sampler.update(key, 1.0)
        assert len(sampler._scale_cache) == cap
        assert sampler._sketch.cache_entries == cap
        assert np.array_equal(bank._table, _scalar_table([sampler]))


class TestL2SamplerBank:
    def test_validates_count(self):
        with pytest.raises(ValueError):
            L2SamplerBank(count=0)

    def test_bank_collects_multiple_samples(self):
        vector = {i: 5 for i in range(20)}
        f2 = sum(v * v for v in vector.values())
        bank = L2SamplerBank(count=40, seed=3, accept_scale=4.0)
        for key, value in vector.items():
            bank.update(key, value)
        samples = bank.samples(list(vector), f2)
        assert len(samples) >= 3
        for key, estimate in samples:
            assert key in vector
            assert abs(abs(estimate) - 5) < 2.0

    def test_space_items(self):
        bank = L2SamplerBank(count=3, rows=4, width=32, seed=0)
        assert bank.space_items == 3 * 4 * 32
        assert len(bank) == 3
        bank.update_batch(range(5000))
        assert bank.space_items == 3 * 4 * 32  # no per-key memo

    @pytest.mark.parametrize("rows", [4, 5])
    def test_batch_bit_identical_to_scalar_copies(self, rows):
        """Tables, samples and value estimates equal a loop of scalar
        L2Sampler updates on copies with the bank's derived seeds, for
        fractional deltas and batches larger than one stacked block."""
        rng = random.Random(rows)
        labels = [f"v{i}" for i in range(40)] + list(range(-20, 60)) + [(1, "a"), (2, "b")]
        keys = [rng.choice(labels) for _ in range(4500)]
        deltas = [rng.choice([1.0, -0.5, 2.25, 3.0]) for _ in keys]
        layout = dict(rows=rows, width=64, accept_scale=3.0)
        bank = L2SamplerBank(count=4, seed=9, **layout)
        bank.update_batch(keys, deltas)
        oracle = _scalar_copies(4, 9, **layout)
        for sampler in oracle:
            for key, delta in zip(keys, deltas):
                sampler.update(key, delta)
        assert np.array_equal(bank._table, _scalar_table(oracle))
        assert bank.saturation == sum(s.saturation for s in oracle) / len(oracle)
        candidates = list(dict.fromkeys(labels))
        for f2 in (0.0, 50.0, 1e9):
            expected = [s.sample(candidates, f2) for s in oracle]
            assert bank.samples(candidates, f2) == [d for d in expected if d is not None]

    def test_prefolded_keys_and_scalar_update(self):
        pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
        folded = np.array([stable_key(p) for p in pairs], dtype=np.uint64)
        by_fold = L2SamplerBank(count=3, seed=1, width=128)
        by_fold.update_batch(folded)
        by_key = L2SamplerBank(count=3, seed=1, width=128)
        for pair in pairs:
            by_key.update(pair)
        assert np.array_equal(by_fold._table, by_key._table)

    def test_samples_chunked_candidates_keep_first_argmax(self):
        """Candidates beyond one stacked block: ties resolve to the first."""
        layout = dict(rows=1, width=4)  # a quarter of all keys tie the max
        bank = L2SamplerBank(count=6, seed=4, **layout)
        oracle = _scalar_copies(6, 4, **layout)
        keys = [0, 1, 2]
        bank.update_batch(keys)
        for sampler in oracle:
            for key in keys:
                sampler.update(key)
        candidates = list(range(5000, 10000)) + keys
        expected = [s.sample(candidates, 1.0) for s in oracle]
        assert bank.samples(candidates, 1.0) == [d for d in expected if d is not None]
        assert all(key < 5000 + 2048 for key, _ in bank.samples(candidates, 1.0))

    def test_validates(self):
        with pytest.raises(ValueError):
            L2SamplerBank(count=2, accept_scale=1.0)
        with pytest.raises(ValueError):
            L2SamplerBank(count=2).samples([1], -1.0)
        with pytest.raises(ValueError):
            L2SamplerBank(count=2).update_batch([1, 2], [1.0])


class TestAcceptanceRate:
    def test_success_rate_near_one_minus_exp(self):
        """With exact F2 a copy fails with probability at most about
        exp(-accept_scale), not 1 - 1/accept_scale."""
        rng = random.Random(5)
        vector = {i: rng.randint(1, 20) for i in range(30)}
        f2 = float(sum(v * v for v in vector.values()))
        bank = L2SamplerBank(count=200, seed=11, width=256, accept_scale=4.0)
        bank.update_batch(list(vector), list(vector.values()))
        success = len(bank.samples(list(vector), f2)) / len(bank)
        assert success >= 0.9
