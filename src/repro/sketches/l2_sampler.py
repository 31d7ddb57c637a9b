"""Approximate l2 sampling (Section 4.2.4's substrate).

Given a stream of updates to a vector ``f``, an l2 sampler outputs a
coordinate ``i`` with probability (approximately) proportional to
``f_i^2``, together with an estimate of ``f_i``.  We implement the
precision-sampling design of Jowhari–Saglam–Tardos / Andoni et al.:

* every coordinate gets a fixed pseudo-uniform ``u_i`` in (0, 1) from a
  hash function (so no per-coordinate state is needed);
* the stream is sketched with a CountSketch of the *scaled* vector
  ``g_i = f_i / sqrt(u_i)``;
* at extraction time, the largest ``|g_i|`` among the candidate domain
  is accepted iff ``g_i^2 >= F2(f) / accept_scale`` — which happens iff
  ``u_i <= accept_scale * f_i^2 / F2``, an event of probability
  proportional to ``f_i^2``.

With exact recovery and exact ``F2``, a copy fails only when *every*
coordinate has ``u_i > accept_scale * f_i^2 / F2``.  For independent
uniforms that has probability ``prod_i max(0, 1 - accept_scale f_i^2 /
F2) <= exp(-accept_scale)``.  A single :class:`L2Sampler` therefore succeeds
with probability about ``1 - exp(-accept_scale)`` (0.98 at the default
4); a larger ``accept_scale`` buys success at the price of a weaker
proportionality when several coordinates clear the threshold and the
argmax picks among them.
:class:`L2SamplerBank` runs many independent copies so callers can draw
many (approximately) independent samples from one pass.

The candidate domain must be supplied at extraction time (we cannot
enumerate an implicit domain from the sketch alone); for the wedge
vector this is all vertex pairs, which is fine at experiment scale.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..seeding import derive_seed
from .countsketch import CountSketch, countsketch_hashes
from .hashing import (
    KWiseHash,
    stack_coefficients,
    stable_key_array,
    stacked_values,
    uniforms_of_values,
)

_NAMESPACE = "l2-sampler"
# Keys per stacked evaluation in the bank: bounds the (hashes x keys)
# temporaries of one batch to a few megabytes whatever the batch size.
_KEYS_PER_BLOCK = 2048


def _uniform_hash(seed: int) -> KWiseHash:
    return KWiseHash(k=2, seed=seed, namespace=f"{_NAMESPACE}.uniforms")


class L2Sampler:
    """One precision-sampling copy, updated one key at a time.

    It succeeds with probability about ``1 - exp(-accept_scale)``.  This
    scalar form is the reference that :class:`L2SamplerBank` reproduces
    exactly, copy by copy.
    """

    def __init__(
        self,
        seed: int = 0,
        rows: int = 5,
        width: int = 512,
        accept_scale: float = 4.0,
    ) -> None:
        if accept_scale <= 1.0:
            raise ValueError(f"accept_scale must exceed 1, got {accept_scale}")
        self.accept_scale = accept_scale
        self._uniforms = _uniform_hash(seed)
        self._sketch = CountSketch(
            rows=rows, width=width, seed=seed, namespace=_NAMESPACE
        )
        # Memoized 1/sqrt(u) per key, bounded like the sketch's own memo.
        self._scale_cache: dict = {}

    def _scale(self, key: Hashable) -> float:
        cached = self._scale_cache.get(key)
        if cached is None:
            cached = 1.0 / math.sqrt(self._uniforms.uniform(key))
            if len(self._scale_cache) < self._sketch.max_cache_entries:
                self._scale_cache[key] = cached
        return cached

    def update(self, key: Hashable, delta: float = 1.0) -> None:
        """Apply ``f[key] += delta`` (sketched as ``g[key] += delta/sqrt(u)``)."""
        self._sketch.update(key, delta * self._scale(key))

    def sample(
        self, candidates: Iterable[Hashable], f2_estimate: float
    ) -> Optional[Tuple[Hashable, float]]:
        """Attempt to draw a sample.

        Args:
            candidates: the coordinate domain to search (e.g. all vertex
                pairs).  Coordinates outside it can never be returned.
            f2_estimate: an estimate of ``F2(f)`` (from an AMS sketch or
                exact bookkeeping) used for the acceptance threshold.

        Returns:
            ``(key, f_estimate)`` on success, ``None`` if this copy's
            scaled maximum did not clear the threshold (probability at
            most about ``exp(-accept_scale)``) or no candidate has a
            nonzero estimate.
        """
        if f2_estimate < 0:
            raise ValueError("F2 estimate cannot be negative")
        best_key: Optional[Hashable] = None
        best_scaled = 0.0
        for key in candidates:
            scaled = self._sketch.query(key)
            if abs(scaled) > abs(best_scaled):
                best_scaled = scaled
                best_key = key
        if best_key is None:
            return None
        threshold = f2_estimate / self.accept_scale
        if best_scaled * best_scaled < threshold:
            return None
        f_estimate = best_scaled * math.sqrt(self._uniforms.uniform(best_key))
        return best_key, f_estimate

    @property
    def space_items(self) -> int:
        return self._sketch.space_items

    @property
    def saturation(self) -> float:
        return self._sketch.saturation


class L2SamplerBank:
    """``count`` independent l2 samplers fed the same update stream.

    Copy ``j`` is ``L2Sampler(seed=derive_seed("sketch:l2-sampler-bank",
    j, seed=seed), rows, width, accept_scale)``: the same hashes and the
    same table cells.  The bank stores every copy's table in one flat
    ``count * rows * width`` array and stacks every copy's coefficients,
    so a batch of keys costs two stacked hash evaluations (the pairwise
    uniform and bucket hashes, then the 4-wise signs) and one
    ``np.add.at`` scatter.  Each cell receives the same float addends in
    the same order as a loop of scalar updates, so tables, samples and
    estimates are bit-identical to the scalar copies.  No per-key memo
    is kept: :attr:`space_items` is the table alone.
    """

    def __init__(
        self,
        count: int,
        seed: int = 0,
        rows: int = 5,
        width: int = 512,
        accept_scale: float = 4.0,
    ) -> None:
        if count < 1:
            raise ValueError(f"need at least one sampler, got {count}")
        if accept_scale <= 1.0:
            raise ValueError(f"accept_scale must exceed 1, got {accept_scale}")
        if rows < 1 or width < 1:
            raise ValueError("rows and width must be positive")
        self.count = count
        self.rows = rows
        self.width = width
        self.accept_scale = accept_scale
        self._uniforms: List[KWiseHash] = []
        buckets: List[KWiseHash] = []
        signs: List[KWiseHash] = []
        for j in range(count):
            sampler_seed = derive_seed("sketch:l2-sampler-bank", j, seed=seed)
            self._uniforms.append(_uniform_hash(sampler_seed))
            row_buckets, row_signs = countsketch_hashes(rows, sampler_seed, _NAMESPACE)
            buckets.extend(row_buckets)
            signs.extend(row_signs)
        # Rows of the pairwise matrix: the count uniform hashes, then the
        # bucket hashes copy-major (row j * rows + r is copy j's row r),
        # which is also the order of the table's (copy, row) segments.
        self._pairwise = stack_coefficients(self._uniforms + buckets)
        self._signs = stack_coefficients(signs)
        self._offsets = (np.arange(count * rows, dtype=np.int64) * width)[:, None]
        self._table = np.zeros(count * rows * width, dtype=np.float64)
        # Work counters: hash values computed and table cells updated.
        self.hash_evals = 0
        self.cell_updates = 0

    def __len__(self) -> int:
        return self.count

    def _locate(self, stable: "np.ndarray"):
        """Hash a block of folded keys for every copy at once.

        Returns the raw uniform-hash values ``(count, N)``, the flat table
        cell of every (copy, row) and key ``(count * rows, N)``, and
        whether that cell takes the key with a negative sign.
        """
        self.hash_evals += (len(self._pairwise) + len(self._signs)) * stable.size
        pairwise = stacked_values(self._pairwise, stable)
        buckets = (pairwise[self.count :] % np.uint64(self.width)).astype(np.int64)
        negative = (stacked_values(self._signs, stable) & np.uint64(1)) == 0
        return pairwise[: self.count], self._offsets + buckets, negative

    def update(self, key: Hashable, delta: float = 1.0) -> None:
        """Apply ``f[key] += delta`` to every copy."""
        self.update_batch([key], [delta])

    def update_batch(
        self,
        keys: Sequence[Hashable],
        deltas: Optional[Sequence[float]] = None,
    ) -> None:
        """Apply ``f[keys[i]] += deltas[i]``, in order, to every copy.

        ``keys`` may be hashable keys or an integer array of their
        :func:`~repro.sketches.hashing.stable_key` folds (a fold is below
        ``P`` and so folds to itself).  Equal to a loop of scalar
        :meth:`L2Sampler.update` calls on each copy, bit for bit.
        """
        stable = stable_key_array(keys if isinstance(keys, np.ndarray) else list(keys))
        if deltas is None:
            delta_arr = np.ones(stable.size, dtype=np.float64)
        else:
            delta_arr = np.asarray(deltas, dtype=np.float64)
            if delta_arr.shape != (stable.size,):
                raise ValueError(
                    f"deltas shape {delta_arr.shape} does not match "
                    f"{stable.size} keys"
                )
        for lo in range(0, stable.size, _KEYS_PER_BLOCK):
            block = slice(lo, lo + _KEYS_PER_BLOCK)
            uniform_values, cells, negative = self._locate(stable[block])
            # delta / sqrt(u) per (copy, key), as L2Sampler.update forms it
            scaled = delta_arr[block] * (1.0 / np.sqrt(uniforms_of_values(uniform_values)))
            addends = np.repeat(scaled, self.rows, axis=0)
            np.negative(addends, out=addends, where=negative)
            # Every (copy, row) owns its own cells, and within one the
            # scatter runs in key order: the scalar loop's addition order.
            np.add.at(self._table, cells.ravel(), addends.ravel())
            self.cell_updates += cells.size

    def samples(
        self, candidates: Iterable[Hashable], f2_estimate: float
    ) -> List[Tuple[Hashable, float]]:
        """Extract every successful sample across the bank, in copy order.

        Every candidate's estimate in every copy (median over rows of the
        signed cells) is computed as one matrix per block of candidates;
        each copy then takes the first candidate of largest magnitude and
        applies :meth:`L2Sampler.sample`'s acceptance rule.
        """
        if f2_estimate < 0:
            raise ValueError("F2 estimate cannot be negative")
        candidate_list = list(candidates)
        stable = stable_key_array(candidate_list)
        best = np.zeros(self.count, dtype=np.float64)
        best_index = np.full(self.count, -1, dtype=np.int64)
        copies = np.arange(self.count)
        for lo in range(0, stable.size, _KEYS_PER_BLOCK):
            _, cells, negative = self._locate(stable[lo : lo + _KEYS_PER_BLOCK])
            signed = self._table[cells]
            np.negative(signed, out=signed, where=negative)
            estimates = _median_over_rows(signed.reshape(self.count, self.rows, -1))
            top_index = np.argmax(np.abs(estimates), axis=1)
            top = estimates[copies, top_index]
            better = np.abs(top) > np.abs(best)
            best = np.where(better, top, best)
            best_index = np.where(better, top_index + lo, best_index)
        threshold = f2_estimate / self.accept_scale
        results: List[Tuple[Hashable, float]] = []
        for j in range(self.count):
            if best_index[j] < 0 or best[j] * best[j] < threshold:
                continue
            key = candidate_list[best_index[j]]
            results.append((key, best[j] * math.sqrt(self._uniforms[j].uniform(key))))
        return results

    @property
    def space_items(self) -> int:
        return int(self._table.size)

    @property
    def saturation(self) -> float:
        """Mean bucket saturation across the bank's sketches."""
        cells = self.rows * self.width
        nonzero = np.count_nonzero(self._table.reshape(self.count, cells), axis=1)
        return sum(float(n) / cells for n in nonzero) / self.count


def _median_over_rows(values: "np.ndarray") -> "np.ndarray":
    """:func:`~repro.sketches.estimators.median` along axis 1 of a
    ``(copies, rows, candidates)`` array."""
    ordered = np.sort(values, axis=1)
    mid = values.shape[1] // 2
    if values.shape[1] % 2:
        return ordered[:, mid]
    return 0.5 * (ordered[:, mid - 1] + ordered[:, mid])
