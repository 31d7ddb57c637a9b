"""Exact triangle, four-cycle and wedge-F2 counts in numpy.

The reference counters in :mod:`repro.graphs.exact` are pure Python —
transparent but slow past a few thousand edges.  Workload construction
and ground-truthing use :func:`fast_counts`, a degree-ordered counter
(Chiba & Nishizeki 1985) in numpy alone:

* Vertices are ranked by ``(degree, index)`` and relabelled by rank, so
  every neighbour list is a sorted run of one array of directed edge
  keys ``u * n + w``.
* Every four-cycle has one top vertex ``v`` (its highest rank), and its
  vertex opposite ``v`` is some ``w`` below ``v``.  The counter lists
  every length-2 path ``v - u - w`` with both ``u`` and ``w`` below
  ``v`` and groups them by ``(v, w)``; a pair reached by ``c`` paths
  closes ``C(c, 2)`` four-cycles, each counted once.
* A path whose ends ``v`` and ``w`` are adjacent is a triangle with top
  vertex ``v``, seen twice (once through each lower vertex), so the
  triangle count is half the paths whose ``(v, w)`` key is an edge key.
* ``wedge_f2 = 4 * C4 + sum_v C(d_v, 2)``: ``sum_{u<w} C(x_uw, 2)``
  is ``2 * C4`` and ``sum_{u<w} x_uw`` is the wedge count.

Under the degree order an edge ``{u, v}`` with ``u`` below ``v`` starts
at most ``d_u = min(d_u, d_v)`` of these paths, so the counter lists
``O(m * sqrt(m))`` paths in all.  No dense path remains because the
trace identities (``tr(A^3) / 6`` and kin) need ``n x n`` matrices
whatever the edge count: half a gigabyte each and ``O(n^3)`` work for
a sparse n=8000 graph.  Paths are listed for a run of top vertices at a time, so the
working arrays hold at most ``_CHUNK_PATHS`` paths (one top vertex with
more gets a chunk of its own).  All arithmetic is exact int64.  The
equivalence tests in ``tests/graphs/test_fast.py`` pin the counts
against the reference counters over arbitrary hypothesis graphs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .graph import Graph

# Length-2 paths listed per chunk of top vertices.
_CHUNK_PATHS = 1 << 20


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``starts[i] : starts[i] + lengths[i]``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1])


def fast_counts(graph: Graph) -> Dict[str, int]:
    """Exact ``{"triangles", "four_cycles", "wedge_f2"}`` of ``graph``."""
    vertices = list(graph.vertices())
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    degree = np.fromiter(
        (len(graph.neighbors(v)) for v in vertices), dtype=np.int64, count=n
    )
    heads = np.fromiter(
        (index[w] for v in vertices for w in graph.neighbors(v)),
        dtype=np.int64,
        count=int(degree.sum()),
    )
    wedges = int((degree * (degree - 1) // 2).sum())
    if len(heads) == 0:
        return {"triangles": 0, "four_cycles": 0, "wedge_f2": 0}

    order = np.argsort(degree, kind="stable")  # rank by (degree, index)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    keys = np.sort(rank[np.repeat(np.arange(n), degree)] * n + rank[heads])
    tails, nbrs = np.divmod(keys, n)
    start = np.concatenate(([0], np.cumsum(degree[order])))

    # Oriented edges top -> mid (mid below top), grouped by top; each
    # reaches the prefix of mid's sorted neighbours that lie below top.
    down = nbrs < tails
    top, mid = tails[down], nbrs[down]
    reach = np.searchsorted(keys, mid * n + top) - start[mid]
    first = np.searchsorted(top, np.arange(n + 1))
    paths_before = np.concatenate(([0], np.cumsum(reach)))[first]

    four_cycles = 0
    doubled_triangles = 0
    lo = 0
    while lo < n:
        cut = np.searchsorted(paths_before, paths_before[lo] + _CHUNK_PATHS, "right")
        hi = max(lo + 1, int(cut) - 1)
        a, b = first[lo], first[hi]
        if paths_before[hi] > paths_before[lo]:
            ends = np.repeat(top[a:b], reach[a:b]) * n + nbrs[
                _segments(start[mid[a:b]], reach[a:b])
            ]
            pairs, counts = np.unique(ends, return_counts=True)
            four_cycles += int((counts * (counts - 1) // 2).sum())
            at = np.minimum(np.searchsorted(keys, pairs), len(keys) - 1)
            doubled_triangles += int(counts[keys[at] == pairs].sum())
        lo = hi
    return {
        "triangles": doubled_triangles // 2,
        "four_cycles": four_cycles,
        "wedge_f2": 4 * four_cycles + wedges,
    }


fast_counts_auto = fast_counts
