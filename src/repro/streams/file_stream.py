"""Streaming a graph straight off disk.

The in-memory stream sources (:mod:`repro.streams.models`) materialize
the edge list; that is fine for experiments but defeats the point of a
streaming algorithm on data larger than memory.  ``FileEdgeStream``
iterates an edge-list file directly: one pass reads the file once, and
the only O(m) state is a duplicate filter that can be switched off for
pre-deduplicated data (the common case for published datasets).

The file's line order is the arrival order — i.e. this is an
*arbitrary order* stream.  For the random-order model, shuffle the
file once offline (``repro.graphs.io.write_edge_list`` after a
permutation) rather than in memory.

Malformed lines are governed by the same validation policies as the
in-memory models (:mod:`repro.streams.policies`): the default is
``repair`` — drop self loops and (when ``deduplicate``) repeated edges,
counting them into the active telemetry as ``stream.faults.<kind>`` —
while ``strict`` raises :class:`StreamFaultError` on the first fault.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from ..graphs.graph import Edge, normalize_edge
from ..graphs.io import PathLike, iter_edge_list
from .models import StreamSource
from .policies import (
    POLICY_REPAIR,
    POLICY_STRICT,
    StreamFaultError,
    check_policy,
    emit_fault_counts,
)


class FileEdgeStream(StreamSource):
    """An arbitrary-order stream backed by an edge-list file.

    Args:
        path: edge-list file (see :mod:`repro.graphs.io` for the format).
        deduplicate: drop repeated edges while streaming.  Requires
            O(m) memory for the filter; turn off for clean data to
            stream in O(1) memory.
        precounted: optional ``(num_vertices, num_edges)`` if known,
            avoiding the initial counting pass.
        policy: fault handling (``strict`` / ``repair`` / ``skip``);
            under ``strict`` a self loop or duplicate raises
            :class:`StreamFaultError` (duplicates only when
            ``deduplicate`` is on, since detection needs the filter).

    The constructor takes one scan to count vertices/edges (algorithms
    need ``m`` up front, per the paper's convention) unless
    ``precounted`` is given.
    """

    def __init__(
        self,
        path: PathLike,
        deduplicate: bool = True,
        precounted: Optional[tuple] = None,
        policy: str = POLICY_REPAIR,
    ) -> None:
        super().__init__()
        self._path = path
        self._deduplicate = deduplicate
        self._policy = check_policy(policy)
        if precounted is not None:
            self._num_vertices, self._num_edges = precounted
        else:
            self._num_vertices, self._num_edges = self._count()

    def _count(self) -> tuple:
        vertices = set()
        count = 0
        for u, v in self._scrubbed({}):
            count += 1
            vertices.add(u)
            vertices.add(v)
        return len(vertices), count

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def path(self) -> PathLike:
        return self._path

    def _scrubbed(self, counts: Dict[str, int]) -> Iterator[Edge]:
        """The file's edges, canonical, minus self loops and (when
        deduplicating) repeats; each drop is tallied into ``counts``,
        or raises :class:`StreamFaultError` under ``strict``."""
        seen: Optional[Set[Edge]] = set() if self._deduplicate else None
        for u, v in iter_edge_list(self._path):
            if u == v:
                if self._policy == POLICY_STRICT:
                    raise StreamFaultError(
                        f"self loop {u!r}-{u!r} in {self._path} (strict policy)"
                    )
                counts["self_loop"] = counts.get("self_loop", 0) + 1
                continue
            edge = normalize_edge(u, v)
            if seen is not None:
                if edge in seen:
                    if self._policy == POLICY_STRICT:
                        raise StreamFaultError(
                            f"duplicate edge {edge!r} in {self._path} "
                            "(strict policy)"
                        )
                    counts["duplicate"] = counts.get("duplicate", 0) + 1
                    continue
                seen.add(edge)
            yield edge

    def _tokens(self) -> Iterator[Edge]:
        counts: Dict[str, int] = {}
        try:
            yield from self._scrubbed(counts)
        finally:
            emit_fault_counts(counts)
