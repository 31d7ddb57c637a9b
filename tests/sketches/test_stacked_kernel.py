"""The stacked Mersenne kernel agrees with Python big-int arithmetic.

``_mul_add_mod`` splits operands into 32-bit limbs and reduces lazily;
:func:`stacked_values` evaluates many hash polynomials at many keys by
Horner's rule on top of it, and :func:`gathered_values` one row per key.
They are checked against exact ``int`` arithmetic modulo ``2**61 - 1``
and ``KWiseHash.value`` on random operands and on the limb and modulus
boundaries; :func:`stable_tuple_key_array` against ``stable_key``.
"""

import itertools
import random

import numpy as np
import pytest

from repro.sketches import MERSENNE_PRIME, KWiseHash, stable_key
from repro.sketches.hashing import (
    _canonical,
    _mul_add_mod,
    gathered_values,
    stable_tuple_key_array,
    stack_coefficients,
    stacked_values,
)

P = MERSENNE_PRIME
BOUNDARIES = [
    0,
    1,
    2,
    2**31 - 1,
    2**31,
    2**31 + 1,
    2**32 - 1,
    2**32,
    2**32 + 1,
    2**60,
    P - 2,
    P - 1,
]


def _split(x):
    x = np.asarray(x, dtype=np.uint64)
    return x >> np.uint64(32), x & np.uint64(2**32 - 1)


def _mul_add(a, b, c):
    """Canonical ``a * b + c mod P`` through the kernel, for uint64 arrays."""
    x_hi, x_lo = _split(b)
    return _canonical(
        _mul_add_mod(np.asarray(a, np.uint64), x_hi, x_lo, np.asarray(c, np.uint64))
    )


class TestMulAddMod:
    def test_boundary_products(self):
        pairs = list(itertools.product(BOUNDARIES, repeat=2))
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        for c in (0, 1, P - 1):
            got = _mul_add(a, b, [c] * len(a)).tolist()
            assert got == [(x * y + c) % P for x, y in pairs]

    def test_random_products(self):
        rng = random.Random(7)
        a = [rng.randrange(P) for _ in range(20000)]
        b = [rng.randrange(P) for _ in range(20000)]
        c = [rng.randrange(P) for _ in range(20000)]
        got = _mul_add(a, b, c).tolist()
        assert got == [(x * y + z) % P for x, y, z in zip(a, b, c)]

    def test_unreduced_accumulator_is_accepted(self):
        """One fold leaves values in [0, 2**61 + 4); those feed the next step."""
        lazy = [P, P + 1, 2**61, 2**61 + 3]
        for b in BOUNDARIES:
            got = _mul_add(lazy, [b] * len(lazy), [P - 1] * len(lazy)).tolist()
            assert got == [(x * b + P - 1) % P for x in lazy]

    def test_canonical_range(self):
        values = np.array([0, 1, P - 1, P, P + 1, 2**61, 2**61 + 3], dtype=np.uint64)
        assert _canonical(values).tolist() == [int(v) % P for v in values.tolist()]


class TestStackedValues:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_matches_big_int_horner(self, k):
        rng = random.Random(k)
        coefficients = [[rng.randrange(P) for _ in range(k)] for _ in range(9)]
        coefficients[0] = [P - 1] * k
        keys = BOUNDARIES + [rng.randrange(P) for _ in range(300)]
        got = stacked_values(np.array(coefficients, dtype=np.uint64), keys)
        expected = []
        for row in coefficients:
            values = []
            for x in keys:
                acc = 0
                for coeff in row:
                    acc = (acc * x + coeff) % P
                values.append(acc)
            expected.append(values)
        assert got.shape == (9, len(keys))
        assert got.tolist() == expected

    def test_rows_equal_scalar_hashes(self):
        hashes = [KWiseHash(4, seed=s, namespace="stack") for s in range(40)]
        keys = np.array(BOUNDARIES + list(range(5000)), dtype=np.uint64)
        got = stacked_values(stack_coefficients(hashes), keys)
        sample = list(range(0, keys.size, 97)) + list(range(len(BOUNDARIES)))
        for row, h in enumerate(hashes):
            assert [int(got[row, i]) for i in sample] == [h.value(int(keys[i])) for i in sample]

    def test_empty_keys(self):
        hashes = [KWiseHash(2, seed=s) for s in range(3)]
        assert stacked_values(stack_coefficients(hashes), []).shape == (3, 0)

    def test_values_array_keeps_shape(self):
        h = KWiseHash(2, seed=4)
        keys = np.arange(12, dtype=np.uint64).reshape(3, 4)
        got = h.values_array(keys)
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == [h.value(k) for k in range(12)]


class TestGatheredValues:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_each_key_by_its_row(self, k):
        rng = random.Random(10 + k)
        hashes = [KWiseHash(k, seed=s, namespace="gather") for s in range(25)]
        keys = BOUNDARIES + [rng.randrange(P) for _ in range(3000)]
        rows = [rng.randrange(len(hashes)) for _ in keys]
        got = gathered_values(stack_coefficients(hashes), rows, keys).tolist()
        assert got == [hashes[r].value(x) for r, x in zip(rows, keys)]

    def test_matches_stacked_values(self):
        """Blocks past 32K keys; every row at every key agrees with the stack."""
        hashes = [KWiseHash(2, seed=s) for s in range(3)]
        coefficients = stack_coefficients(hashes)
        keys = np.arange(40000, dtype=np.uint64) * np.uint64(2**40 + 7) % np.uint64(P)
        stacked = stacked_values(coefficients, keys)
        for row in range(3):
            got = gathered_values(coefficients, np.full(keys.size, row), keys)
            assert np.array_equal(got, stacked[row])

    def test_empty(self):
        got = gathered_values(stack_coefficients([KWiseHash(2, seed=0)]), [], [])
        assert got.shape == (0,)


class TestStableTupleKeyArray:
    def test_matches_tuple_fold(self):
        rng = random.Random(3)
        members = BOUNDARIES + [rng.randrange(P) for _ in range(500)]
        first = [rng.choice(members) for _ in range(2000)]
        second = [rng.choice(members) for _ in range(2000)]
        got = stable_tuple_key_array(first, second).tolist()
        assert got == [stable_key((a, b)) for a, b in zip(first, second)]

    def test_from_label_folds(self):
        labels = ["a", "b", "u17", 0, 5, -3, 10**30]
        pairs = list(itertools.permutations(labels, 2))
        got = stable_tuple_key_array(
            [stable_key(u) for u, _ in pairs], [stable_key(v) for _, v in pairs]
        )
        assert got.tolist() == [stable_key(pair) for pair in pairs]

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_other_widths(self, width):
        rng = random.Random(width)
        members = BOUNDARIES + [rng.randrange(P) for _ in range(200)]
        tuples = [tuple(rng.choice(members) for _ in range(width)) for _ in range(1000)]
        got = stable_tuple_key_array(*zip(*tuples)).tolist()
        assert got == [stable_key(t) for t in tuples]

    def test_nested_and_broadcast(self):
        """``(d, x, (a, b))`` folds through an inner tuple fold; a scalar
        member broadcasts against the arrays."""
        labels = ["a", 7, 2**32 + 1, "b", P - 1, 0]
        triples = list(itertools.permutations(labels, 3))
        folds = {v: stable_key(v) for v in labels}
        edge = ("a", "b")
        inner = stable_tuple_key_array(folds["a"], folds["b"])
        got = stable_tuple_key_array(
            [folds[d] for d, _, _ in triples], [folds[x] for _, x, _ in triples], inner
        )
        assert got.tolist() == [stable_key((d, x, edge)) for d, x, _ in triples]

    def test_needs_a_member(self):
        with pytest.raises(ValueError):
            stable_tuple_key_array()
