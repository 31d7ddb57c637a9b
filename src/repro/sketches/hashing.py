"""k-wise independent hash families.

Every randomized choice the algorithms make that must be *queryable
without storing the sample* — "is vertex v in the level-i sample V_i?",
"what is the sign alpha_u?" — goes through a hash function from the
classic polynomial family over the Mersenne prime ``P = 2^61 - 1``:

    h(x) = (a_{k-1} x^{k-1} + ... + a_1 x + a_0) mod P

which is k-wise independent when the coefficients are uniform.  The
paper's algorithms need pairwise (sampling) and 4-wise (the AMS-style
sign vectors of Section 4.2) independence; callers pick ``k``.

Keys may be integers, strings, or (nested) tuples thereof; they are
folded into integers by a fixed injective-enough encoding so that the
same key always maps to the same value regardless of Python's
per-process hash randomization.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, List, Sequence

import numpy as np

from ..seeding import component_rng

MERSENNE_PRIME = (1 << 61) - 1

_P64 = np.uint64(MERSENNE_PRIME)
_ONE = np.uint64(1)
_SHIFT3 = np.uint64(3)
_SHIFT29 = np.uint64(29)
_SHIFT32 = np.uint64(32)
_SHIFT61 = np.uint64(61)
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64((1 << 32) - 1)
# Columns per block of the stacked evaluator: keeps each (H, columns)
# temporary near 32K elements, so a Horner step stays in cache.
_BLOCK_ELEMENTS = 1 << 15


def _mul_add_mod(
    acc: "np.ndarray", x_hi: "np.ndarray", x_lo: "np.ndarray", c: "np.ndarray"
) -> "np.ndarray":
    """``acc * x + c`` modulo ``P = 2**61 - 1``, folded once into ``[0, 2**61 + 4)``.

    ``x`` comes pre-split into 32-bit limbs (``x < P``); ``acc`` may be a
    previous, not yet canonical result and ``c < 2**61``.  With
    ``2**64 = 8`` and ``2**61 = 1 (mod P)``,

        acc * x = hh * 2**64 + mid * 2**32 + ll
                = 8 hh + (mid >> 29) + (mid & (2**29 - 1)) * 2**32
                  + (ll >> 61) + (ll & P)                       (mod P),

    and every term stays below ``2**61`` (``mid >> 29`` below ``2**33``),
    so the sum with ``c`` fits in 64 bits and one Mersenne fold brings it
    back under ``2**61 + 4`` -- a valid ``acc`` for the next step.
    """
    a_hi = acc >> _SHIFT32
    a_lo = acc & _MASK32
    mid = a_hi * x_lo
    mid += a_lo * x_hi
    ll = a_lo * x_lo
    s = a_hi * x_hi
    s <<= _SHIFT3
    s += c
    s += ll >> _SHIFT61
    ll &= _P64
    s += ll
    s += mid >> _SHIFT29
    mid &= _MASK29
    mid <<= _SHIFT32
    s += mid
    high = s >> _SHIFT61
    s &= _P64
    s += high
    return s


def _canonical(x: "np.ndarray") -> "np.ndarray":
    """Reduce values in ``[0, 2**61 + 4)`` to ``[0, P)``: subtract ``P``
    exactly when ``x + 1`` reaches ``2**61``."""
    return (x + ((x + _ONE) >> _SHIFT61)) & _P64


def stacked_values(coefficients: "np.ndarray", stable_keys: "np.ndarray") -> "np.ndarray":
    """Evaluate ``H`` hash polynomials at ``N`` pre-folded keys at once.

    ``coefficients`` is an ``(H, k)`` uint64 matrix whose rows are
    :class:`KWiseHash` coefficient lists (leading coefficient first, see
    :func:`stack_coefficients`); ``stable_keys`` holds :func:`stable_key`
    outputs.  Returns the ``(H, N)`` uint64 values, equal to
    ``KWiseHash.value`` of every row at every key.  Horner's rule starts
    at the leading coefficient, and the keys are processed in column
    blocks so the temporaries stay small.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    x = np.asarray(stable_keys, dtype=np.uint64)
    height, k = coefficients.shape
    out = np.empty((height, x.size), dtype=np.uint64)
    step = max(1, _BLOCK_ELEMENTS // max(height, 1))
    for lo in range(0, x.size, step):
        block = x[lo : lo + step]
        x_hi = block >> _SHIFT32
        x_lo = block & _MASK32
        acc = coefficients[:, :1]
        for j in range(1, k):
            acc = _mul_add_mod(acc, x_hi, x_lo, coefficients[:, j : j + 1])
        out[:, lo : lo + block.size] = _canonical(acc)
    return out


def uniforms_of_values(values: "np.ndarray") -> "np.ndarray":
    """:meth:`KWiseHash.uniform` of raw hash values, as float64 in ``(0, 1)``.

    ``value + 1`` is rounded to float once, as the scalar true division
    does; dividing by the power of two ``P + 1`` is then exact, so the
    results equal the scalar ones bit for bit.
    """
    return (values + _ONE).astype(np.float64) / float(MERSENNE_PRIME + 1)


def bernoulli_threshold(p: float) -> "np.uint64":
    """The exact uint64 cut of :meth:`KWiseHash.bernoulli`: ``ceil(p * P)``.

    The scalar test compares the integer hash value against the float
    ``p * P``; over integers ``value < t`` is ``value < ceil(t)``, so
    ``values < bernoulli_threshold(p)`` draws the same indicators in
    uint64.  A threshold of at least ``P`` admits every value.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return np.uint64(math.ceil(p * MERSENNE_PRIME))


def stack_coefficients(hashes: Sequence["KWiseHash"]) -> "np.ndarray":
    """The ``(len(hashes), k)`` coefficient matrix of equal-degree hashes,
    for :func:`stacked_values`."""
    return np.array([h._coeffs for h in hashes], dtype=np.uint64).reshape(len(hashes), -1)


def gathered_values(
    coefficients: "np.ndarray", rows: "np.ndarray", stable_keys: "np.ndarray"
) -> "np.ndarray":
    """Evaluate key ``i`` under coefficient row ``rows[i]``, for every ``i``.

    The row-gathered companion of :func:`stacked_values`: where that
    evaluates every row at every key, this hashes each key by one row of
    its own, so ``N`` keys spread over many hash functions cost ``N``
    evaluations rather than ``H * N``.  Returns the ``N`` uint64 values,
    equal to ``KWiseHash.value`` of hash ``rows[i]`` at ``stable_keys[i]``.
    """
    columns = np.asarray(coefficients, dtype=np.uint64).T
    rows = np.asarray(rows, dtype=np.intp)
    x = np.asarray(stable_keys, dtype=np.uint64)
    out = np.empty(x.size, dtype=np.uint64)
    for lo in range(0, x.size, _BLOCK_ELEMENTS):
        block = x[lo : lo + _BLOCK_ELEMENTS]
        block_rows = rows[lo : lo + _BLOCK_ELEMENTS]
        x_hi = block >> _SHIFT32
        x_lo = block & _MASK32
        acc = columns[0][block_rows]
        for column in columns[1:]:
            acc = _mul_add_mod(acc, x_hi, x_lo, column[block_rows])
        out[lo : lo + block.size] = _canonical(acc)
    return out


# The tuple encoding of :func:`stable_key`, shared with its array kernel.
_TUPLE_SEED = 104729
_TUPLE_MULTIPLIER = 1000003


def stable_tuple_key_array(*member_folds: "np.ndarray") -> "np.ndarray":
    """Vectorized ``stable_key((m_1, ..., m_k))`` from the members' folds.

    Argument ``j`` holds :func:`stable_key` outputs of the tuples' ``j``-th
    members (arrays of one shape, or scalars broadcast against them); the
    result equals the scalar tuple encoding exactly.  A nested tuple is a
    member whose fold is itself a ``stable_tuple_key_array`` result, so
    ``stable_key((d, x, (a, b)))`` is
    ``stable_tuple_key_array(fd, fx, stable_tuple_key_array(fa, fb))``.
    """
    if not member_folds:
        raise ValueError("a tuple key needs at least one member")
    members = np.broadcast_arrays(*(np.asarray(m, dtype=np.uint64) for m in member_folds))
    multiplier = np.uint64(_TUPLE_MULTIPLIER)  # one 32-bit limb: the high limb is 0
    acc = np.full(members[0].shape, _TUPLE_SEED, dtype=np.uint64)
    for member in members:
        acc = _mul_add_mod(acc, np.uint64(0), multiplier, member + _ONE)
    return _canonical(acc)


def stable_key_array(keys: Iterable[Hashable]) -> "np.ndarray":
    """Vectorized :func:`stable_key`: fold a batch of keys to uint64 < P.

    Integer arrays are folded with array arithmetic; anything else
    (tuples, strings, bools, mixed lists) falls back to the scalar
    encoder per element.  Both paths agree exactly with
    :func:`stable_key`.
    """
    if not isinstance(keys, np.ndarray) and isinstance(keys, (list, tuple, range)):
        try:
            candidate = np.asarray(keys)
        except (OverflowError, ValueError):  # e.g. ints beyond int64
            candidate = None
        if (
            candidate is not None
            and candidate.ndim == 1
            and np.issubdtype(candidate.dtype, np.integer)
            # numpy reads True as 1; stable_key keeps bools distinct
            and not {bool, np.bool_} & set(map(type, keys))
        ):
            keys = candidate
    if isinstance(keys, np.ndarray) and np.issubdtype(keys.dtype, np.unsignedinteger):
        return keys.astype(np.uint64, copy=False) % np.uint64(MERSENNE_PRIME)
    if isinstance(keys, np.ndarray) and np.issubdtype(keys.dtype, np.integer):
        values = keys.astype(np.int64, copy=False)
        # numpy's % on int64 has Python's floor semantics, so rest is in
        # [0, P) for every value; a negative v folds to P - 1 - (-v % P),
        # which is (v - 1) mod P.  Results are < P < 2**61.
        rest = values % MERSENNE_PRIME
        folded = np.where(values < 0, (rest - 1) % MERSENNE_PRIME, rest)
        return folded.astype(np.uint64)
    materialized = keys if hasattr(keys, "__len__") else list(keys)
    return np.fromiter(
        (stable_key(key) for key in materialized),
        dtype=np.uint64,
        count=len(materialized),  # type: ignore[arg-type]
    )


def stable_key(value: Hashable) -> int:
    """Fold a vertex / edge / tuple key into a non-negative integer.

    Integers map to themselves (offset to be non-negative), strings via
    their UTF-8 bytes, and tuples by polynomial combination — all
    independent of ``PYTHONHASHSEED`` so experiments are reproducible.
    """
    if isinstance(value, bool):  # bool is an int subclass; keep it distinct
        return 7 if value else 11
    if isinstance(value, int):
        return value % MERSENNE_PRIME if value >= 0 else (MERSENNE_PRIME - 1 - (-value % MERSENNE_PRIME))
    if isinstance(value, str):
        acc = 5381
        for byte in value.encode("utf-8"):
            acc = (acc * 131 + byte) % MERSENNE_PRIME
        return acc
    if isinstance(value, tuple):
        acc = _TUPLE_SEED
        for item in value:
            acc = (acc * _TUPLE_MULTIPLIER + stable_key(item) + 1) % MERSENNE_PRIME
        return acc
    if isinstance(value, frozenset):
        # Domain-separated from tuples: a frozenset used to hash as the
        # tuple of its sorted member keys *by construction*, so e.g.
        # frozenset({1, 2}) and (1, 2) collided under every hash
        # function.  A distinct accumulator seed and multiplier keep
        # the set domain disjoint from the tuple domain.
        acc = 15485863
        for item_key in sorted(stable_key(item) for item in value):
            acc = (acc * 999983 + item_key + 1) % MERSENNE_PRIME
        return acc
    raise TypeError(f"unsupported hash key type: {type(value).__name__}")


class KWiseHash:
    """A member of the degree-``(k-1)`` polynomial hash family.

    Provides raw values in ``[0, P)`` plus the derived views the
    algorithms need: uniforms in ``[0, 1)``, Bernoulli indicators,
    +-1 signs, and small-range buckets.
    """

    def __init__(self, k: int, seed: int, namespace: str = "") -> None:
        if k < 1:
            raise ValueError(f"independence degree must be >= 1, got {k}")
        # Coefficients come from a namespaced digest of (k, namespace,
        # seed) — not the raw seed, and not a tuple-``repr`` — so two
        # consumers of the family given the same integer seed draw
        # decorrelated functions as long as their namespaces differ.
        rng = component_rng("sketch:kwise-hash", k, namespace, seed=seed)
        self.k = k
        self.seed = seed
        self.namespace = namespace
        # leading coefficient nonzero keeps the polynomial degree exact
        self._coeffs: List[int] = [rng.randrange(1, MERSENNE_PRIME)]
        self._coeffs.extend(rng.randrange(MERSENNE_PRIME) for _ in range(k - 1))
        self._coefficients = stack_coefficients([self])

    def value(self, key: Hashable) -> int:
        """The raw hash value in ``[0, MERSENNE_PRIME)``."""
        x = stable_key(key)
        acc = 0
        for coeff in self._coeffs:
            acc = (acc * x + coeff) % MERSENNE_PRIME
        return acc

    def uniform(self, key: Hashable) -> float:
        """A deterministic pseudo-uniform value in ``(0, 1)``.

        The value is bounded away from zero (by ``1/P``) so it is safe
        to divide by — as the l2 sampler's ``1/sqrt(u)`` scaling does.
        """
        return (self.value(key) + 1) / (MERSENNE_PRIME + 1)

    def bernoulli(self, key: Hashable, p: float) -> bool:
        """Indicator with ``P[true] = p`` — the sampling primitive.

        Membership in a hash-defined sample set is queryable at any time
        without storing the set, exactly as the paper's ``V_i = {v :
        f_i(v) = 1}`` construction requires.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self.value(key) < p * MERSENNE_PRIME

    def sign(self, key: Hashable) -> int:
        """A +-1 value (4-wise independent when ``k >= 4``)."""
        return 1 if self.value(key) & 1 else -1

    def bucket(self, key: Hashable, buckets: int) -> int:
        """A bucket index in ``[0, buckets)`` (CountSketch rows etc.)."""
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        return self.value(key) % buckets

    # ------------------------------------------------------------------
    # vectorized kernels (batch views of the same hash function)
    # ------------------------------------------------------------------
    def values_array(self, stable_keys: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`value` over pre-folded keys.

        ``stable_keys`` must be a uint64 array of :func:`stable_key`
        outputs (see :func:`stable_key_array`).  Returns uint64 values in
        ``[0, MERSENNE_PRIME)`` identical to the scalar path, evaluated
        by the stacked Horner kernel :func:`stacked_values`.
        """
        x = np.asarray(stable_keys, dtype=np.uint64)
        return stacked_values(self._coefficients, x.ravel())[0].reshape(x.shape)

    def uniforms_array(self, stable_keys: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`uniform` (float64 in ``(0, 1)``)."""
        return uniforms_of_values(self.values_array(stable_keys))

    def bernoulli_array(self, stable_keys: "np.ndarray", p: float) -> "np.ndarray":
        """Vectorized :meth:`bernoulli` (bool array)."""
        return self.values_array(stable_keys) < bernoulli_threshold(p)

    def signs_array(self, stable_keys: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`sign` (int64 array of +-1)."""
        values = self.values_array(stable_keys)
        return np.where(values & np.uint64(1), 1, -1).astype(np.int64)

    def buckets_array(self, stable_keys: "np.ndarray", buckets: int) -> "np.ndarray":
        """Vectorized :meth:`bucket` (int64 array in ``[0, buckets)``)."""
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        return (self.values_array(stable_keys) % np.uint64(buckets)).astype(np.int64)

    def choice4(self, key: Hashable, p0: float, p1: float, p2: float) -> int:
        """A four-way choice with probabilities ``p0, p1, p2, 1-p0-p1-p2``.

        Used by the three-pass algorithm's sub-sampling hash ``f`` of
        Section 5.1 (outputs 0/1/2/3).
        """
        if min(p0, p1, p2) < 0 or p0 + p1 + p2 > 1 + 1e-12:
            raise ValueError("probabilities must be non-negative and sum to <= 1")
        u = self.uniform(key)
        if u < p0:
            return 0
        if u < p0 + p1:
            return 1
        if u < p0 + p1 + p2:
            return 2
        return 3


def hash_family(
    count: int, k: int, seed: int, namespace: str = ""
) -> List[KWiseHash]:
    """``count`` independent ``KWiseHash`` functions derived from ``seed``.

    Member ``i`` lives in the sub-namespace ``f"{namespace}[{i}]"`` —
    structured derivation, not the old ``seed * 1_000_003 + 17 i + 1``
    arithmetic whose images could collide with other components' linear
    seed maps.
    """
    return [
        KWiseHash(k, seed=seed, namespace=f"{namespace}[{i}]") for i in range(count)
    ]
