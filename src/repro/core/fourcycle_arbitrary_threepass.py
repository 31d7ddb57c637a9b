"""Theorem 5.3: three-pass (1+eps)-approximate four-cycle counting in
the arbitrary order model, using Õ(m / T^{1/4}) space.

Structure (paper Section 5.1):

* **Pass 1** draws, with ``p ~ log n / (eps^2 T^{1/4})``:
  an edge sample ``S0``; a vertex sample ``Q1`` with all incident edges
  ``S1``; and an independent ``Q2 / S2``.

* **Pass 2** stores, for every stream edge ``e``, each four-cycle
  ``tau`` that ``e`` completes with three edges of ``S0`` (expected
  ``~ 4 T p^3`` stored pairs).

* **Pass 3** classifies every edge of every stored cycle as heavy
  (in at least ``~ eta * sqrt(T)`` four-cycles) or light, using one
  *Useful Algorithm* run per edge ``e`` over the derived graph ``H_e``:
  vertices of ``H_e`` are the edges of ``G`` adjacent to ``e``, and
  edges of ``H_e`` are the four-cycles through ``e``.  The Useful
  samples ``R1(e), R2(e)`` are carved out of ``Q1/S1`` and ``Q2/S2``
  with the paper's ``f/g`` sub-sampling hashes, which restore
  per-H_e-vertex independence even though a single sampled vertex of
  ``G`` can contribute up to two H_e vertices (Section 5.1's ``q``
  satisfying ``(p(0.4+q))^2 = pq``).  Every oracle's samples are drawn
  together by :func:`select_samples`, and each pass-3 edge visits only
  the oracles whose edge shares one endpoint with it.

* The estimate is ``A0 / (4 p^3) + A1 / p^3`` where ``A0`` counts
  stored pairs whose cycle is all-light and ``A1`` those with heavy
  ``e`` and three light companions.  Cycles with two or more heavy
  edges are dropped; Lemma 5.1 bounds them by ``82 T / eta``.

The parameter ``eta`` trades accuracy (the ``164/eta`` loss) against
the variance control that heavy-edge removal buys; the paper treats it
as a large constant.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

import numpy as np

from .. import obs as _obs
from ..graphs.graph import Edge, Vertex, normalize_edge
from ..sketches.hashing import (
    KWiseHash,
    bernoulli_threshold,
    gathered_values,
    stable_key_array,
    stable_tuple_key_array,
    stack_coefficients,
    uniforms_of_values,
)
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource
from .result import EstimateResult
from .useful import UsefulAlgorithm

Cycle = Tuple[Vertex, Vertex, Vertex, Vertex]  # (a, b, c, d) in cycle order


def subsample_q(p: float) -> float:
    """The paper's ``q``: the smaller root of ``p (0.4 + q)^2 = q``.

    Ensures that including an H_e vertex ``(d, x)`` with probability
    ``0.4 + q`` (given ``d`` sampled, both of ``d``'s candidate edges
    present) makes the pair of H_e vertices at ``d`` behave like two
    independent ``p (0.4 + q)`` draws.  Valid (``q <= 0.2``) for
    ``p <~ 0.55``; the caller falls back to direct selection above that.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"q is defined for p in (0, 1), got {p}")
    a, b, c = p, 0.8 * p - 1.0, 0.16 * p
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError(f"no real q for p={p}")
    return (-b - math.sqrt(disc)) / (2 * a)


class Selection(NamedTuple):
    """The H_e samples of a batch of oracles (see :func:`select_samples`)."""

    samples: List[Tuple[Set[Edge], Set[Edge]]]  # (R1(e), R2(e)) per edge
    mode: str  # "paper" (f/g sub-sampling) or "direct"
    effective_p: float  # per-H_e-vertex inclusion probability
    hash_evals: int  # candidates hashed


def select_samples(
    edges: Sequence[Edge],
    q_sets: Tuple[Set[Vertex], Set[Vertex]],
    s_adjs: Tuple[Dict[Vertex, Set[Vertex]], Dict[Vertex, Set[Vertex]]],
    p: float,
    seeds: Sequence[int],
) -> Selection:
    """Draw ``R1(e), R2(e)`` for every oracle edge in one array pass.

    Copy ``c`` of edge ``e = (a, b)`` (seed ``seeds[i]``) selects H_e
    vertices ``(d, x)``: ``x`` an endpoint of ``e``, ``d`` a Q_c vertex
    other than ``a, b`` whose S_c edge to ``x`` exists.  With ``p >= 0.5``
    (direct mode) each ``(d, x)`` is kept with probability 0.4 under the
    key ``(d, x, e)``.  In the paper regime the key is ``(d, e)``: a ``d``
    joined to both endpoints keeps ``(d, a)``, ``(d, b)`` or both with
    probabilities ``0.4, 0.4, q``, and a ``d`` joined to one keeps it
    with probability ``0.4 + q``.  Every vertex is folded once, every
    candidate key is folded from those folds, and each is hashed by its
    own oracle's ``threepass.select[c]`` function in one row-gathered
    evaluation; the thresholds are those of ``KWiseHash.bernoulli`` and
    ``choice4``, so the samples equal the per-key scalar draws exactly.
    """
    if 0.0 < p < 0.5:
        mode = "paper"
        q = subsample_q(p)
        effective_p = p * (0.4 + q)
    else:
        # dense regime (p >= 0.5, outside the paper's p < 0.1 remit):
        # select each candidate H_e vertex with probability 0.4; at
        # p == 1 the pair events are exactly independent, and the
        # residual correlation for p in (0.5, 1) is at most a factor
        # 1/p on the pair probability.
        mode = "direct"
        q = 0.0
        effective_p = 0.4 * min(1.0, p)
    samples: List[Tuple[Set[Edge], Set[Edge]]] = [(set(), set()) for _ in edges]
    if not edges:
        return Selection(samples, mode, effective_p, 0)

    vertices: List[Vertex] = list(
        dict.fromkeys(itertools.chain(itertools.chain.from_iterable(edges), *s_adjs))
    )
    index = {v: i for i, v in enumerate(vertices)}
    folds = stable_key_array(vertices)
    ends = np.array([[index[a], index[b]] for a, b in edges], dtype=np.int64)
    edge_folds = stable_tuple_key_array(folds[ends[:, 0]], folds[ends[:, 1]])
    hashes = [
        KWiseHash(k=2, seed=seed, namespace=f"threepass.select[{copy}]")
        for seed in seeds
        for copy in (0, 1)
    ]  # row 2 i + c: copy c of edge i

    # candidate columns: owner edge, copy, d, the endpoint x, and (paper
    # mode) whether d is joined to both endpoints
    owner_parts, copy_parts, d_parts, x_parts, both_parts = [], [], [], [], []
    for copy in (0, 1):
        offsets, neighbors, pair_keys = _q_adjacency(
            index, q_sets[copy], s_adjs[copy], len(vertices)
        )
        for side in (0, 1):
            x, other = ends[:, side], ends[:, 1 - side]
            owner, d = _neighbors_of(offsets, neighbors, x)
            keep = d != other[owner]
            both = np.zeros(owner.size, dtype=bool)
            if mode == "paper":
                # d joined to both endpoints is one candidate, listed from a
                both = np.isin(other[owner] * len(vertices) + d, pair_keys)
                if side == 1:
                    keep &= ~both
            owner_parts.append(owner[keep])
            copy_parts.append(np.full(int(keep.sum()), copy, dtype=np.int64))
            d_parts.append(d[keep])
            x_parts.append(x[owner[keep]])
            both_parts.append(both[keep])
    owner = np.concatenate(owner_parts)
    copy_of = np.concatenate(copy_parts)
    d = np.concatenate(d_parts)
    x = np.concatenate(x_parts)
    both = np.concatenate(both_parts)

    if mode == "direct":
        keys = stable_tuple_key_array(folds[d], folds[x], edge_folds[owner])
    else:
        keys = stable_tuple_key_array(folds[d], edge_folds[owner])
    values = gathered_values(stack_coefficients(hashes), 2 * owner + copy_of, keys)

    if mode == "direct":
        take = values < bernoulli_threshold(0.4)
        take_second = np.zeros(owner.size, dtype=bool)
    else:
        # choice4((d, e), 0.4, 0.4, q): 0 keeps (d, a), 1 keeps (d, b),
        # 2 keeps both; a one-endpoint d is bernoulli((d, e), 0.4 + q)
        uniforms = uniforms_of_values(values)
        take = np.where(
            both,
            (uniforms < 0.4) | ((uniforms >= 0.4 + 0.4) & (uniforms < 0.4 + 0.4 + q)),
            values < bernoulli_threshold(0.4 + q),
        )
        take_second = both & (uniforms >= 0.4) & (uniforms < 0.4 + 0.4 + q)

    # every kept (d, x), then the (d, b) halves of the two-endpoint choices
    pick = np.concatenate([np.flatnonzero(take), np.flatnonzero(take_second)])
    endpoint = np.concatenate([x[take], ends[owner[take_second], 1]])
    for i, c, dv, xv in zip(
        owner[pick].tolist(), copy_of[pick].tolist(), d[pick].tolist(), endpoint.tolist()
    ):
        samples[i][c].add(normalize_edge(vertices[dv], vertices[xv]))
    return Selection(samples, mode, effective_p, int(owner.size))


def _q_adjacency(
    index: Dict[Vertex, int], q_set: Set[Vertex], s_adj: Dict[Vertex, Set[Vertex]], size: int
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Each vertex's S neighbours inside Q, as sorted CSR (``offsets``,
    ``neighbors``) plus the sorted ``x * size + d`` keys of its pairs."""
    pairs = np.array(
        [(index[x], index[d]) for x, adj in s_adj.items() for d in adj if d in q_set],
        dtype=np.int64,
    ).reshape(-1, 2)
    pair_keys = np.sort(pairs[:, 0] * size + pairs[:, 1])
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=size), out=offsets[1:])
    return offsets, pair_keys % size, pair_keys


def _neighbors_of(
    offsets: "np.ndarray", neighbors: "np.ndarray", x: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Every ``(i, d)`` with ``d`` a CSR neighbour of ``x[i]``, grouped by ``i``."""
    starts = offsets[x]
    counts = offsets[x + 1] - starts
    owner = np.repeat(np.arange(x.size), counts)
    first = np.cumsum(counts) - counts
    return owner, neighbors[np.arange(owner.size) - first[owner] + starts[owner]]


class _EdgeOracle:
    """One heavy/light classifier: a Useful run over ``H_e``.

    Holds the samples ``R1(e), R2(e)`` and re-keys them by endpoint:
    ``_hanging[x]`` lists ``(g, adjacency of d)`` for every sampled
    ``g = (d, x)``, with ``d``'s adjacency taken from the S sample that
    produced ``g``.  These lists index the samples; they are not sampled
    state of their own.
    """

    def __init__(
        self,
        edge: Edge,
        samples: Tuple[Set[Edge], Set[Edge]],
        s_adjs: Tuple[Dict[Vertex, Set[Vertex]], Dict[Vertex, Set[Vertex]]],
        effective_p: float,
        m_bound: float,
    ) -> None:
        self.edge = edge
        self._hanging: Dict[Vertex, List[Tuple[Edge, Set[Vertex]]]] = {
            x: [] for x in edge
        }
        for r, adj in zip(samples, s_adjs):
            for g in r:
                gu, gv = g
                x, d = (gu, gv) if gu in self._hanging else (gv, gu)
                self._hanging[x].append((g, adj[d]))
        self.useful = UsefulAlgorithm(
            r1=samples[0], r2=samples[1], p=effective_p, m_bound=m_bound
        )

    def observe(self, f: Edge, opposite: Vertex, outer: Vertex) -> None:
        """Pass-3 hook for a stream edge ``f`` sharing one endpoint with ``e``.

        ``f`` is a vertex of ``H_e``; ``opposite`` is the endpoint of ``e``
        not in ``f`` and ``outer`` the endpoint of ``f`` not in ``e``.
        The observable H_e-neighbours of ``f`` are the samples ``g = (d,
        opposite)`` whose witness edge ``(outer, d)`` exists (checkable
        because ``d``'s full adjacency is in the S sample that produced
        ``g``; an adjacency never holds its own vertex, so ``d != outer``).
        """
        weights = {g: 1.0 for g, adj in self._hanging[opposite] if outer in adj}
        self.useful.process_vertex(f, weights)

    def classify(self, eta_sqrt_t: float) -> bool:
        """True iff heavy: the Useful estimate reaches ``eta sqrt(T)``."""
        return self.useful.estimate() >= eta_sqrt_t

    @property
    def space_items(self) -> int:
        """Only the oracle's *extra* words: its heavy counters and O(1)
        globals.  The samples it reads (S1, S2) are shared across all
        oracles and metered once by the caller, matching the paper's
        space accounting."""
        return self.useful.heavy_counter_count + 3


class FourCycleArbitraryThreePass:
    """The three-pass arbitrary-order C4 counter.

    Args:
        t_guess: the parameter ``T``.
        epsilon: target accuracy (drives the sampling probability).
        eta: the heavy-edge threshold multiplier (paper: a large
            constant; the accuracy guarantee is ``1 - 164/eta - eps``).
        c: scale on the sampling probability.
        seed: seeds all hashes.
        use_log_factor: include ``log n`` in the sampling probability.
    """

    name = "mv-fourcycle-threepass"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.2,
        eta: float = 8.0,
        c: float = 1.0,
        seed: int = 0,
        use_log_factor: bool = True,
    ) -> None:
        if t_guess < 1:
            raise ValueError(f"t_guess must be >= 1, got {t_guess}")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.t_guess = float(t_guess)
        self.epsilon = epsilon
        self.eta = eta
        self.c = c
        self.seed = seed
        self.use_log_factor = use_log_factor

    # ------------------------------------------------------------------
    def run(self, stream: StreamSource) -> EstimateResult:
        n = max(2, stream.num_vertices)
        meter = SpaceMeter()
        telemetry = _obs.current()
        log_factor = math.log2(n) if self.use_log_factor else 1.0
        p = min(
            1.0,
            self.c * log_factor / (self.epsilon**2 * self.t_guess**0.25),
        )

        edge_hash = KWiseHash(k=2, seed=self.seed, namespace="threepass.edge")
        q1_hash = KWiseHash(k=2, seed=self.seed, namespace="threepass.q1")
        q2_hash = KWiseHash(k=2, seed=self.seed, namespace="threepass.q2")

        # ---- pass 1: draw S0, Q1/S1, Q2/S2 ---------------------------
        s0_adj: Dict[Vertex, Set[Vertex]] = {}
        q_sets: Tuple[Set[Vertex], Set[Vertex]] = (set(), set())
        s_adjs: Tuple[Dict[Vertex, Set[Vertex]], Dict[Vertex, Set[Vertex]]] = (
            {},
            {},
        )
        with telemetry.tracer.span("pass1:sample", kind="pass") as pass1_span:
            for u, v in stream.edges():
                edge = normalize_edge(u, v)
                if edge_hash.bernoulli(edge, p):
                    s0_adj.setdefault(u, set()).add(v)
                    s0_adj.setdefault(v, set()).add(u)
                    meter.add("S0_edges")
                for q_set, s_adj, q_hash in (
                    (q_sets[0], s_adjs[0], q1_hash),
                    (q_sets[1], s_adjs[1], q2_hash),
                ):
                    hit = False
                    for w in (u, v):
                        if q_hash.bernoulli(w, p):
                            q_set.add(w)
                            hit = True
                    if hit:
                        s_adj.setdefault(u, set()).add(v)
                        s_adj.setdefault(v, set()).add(u)
                        meter.add("S1_S2_edges")
            pass1_span.set("space_peak", meter.peak)

        # ---- pass 2: store cycles completed by three S0 edges --------
        stored: List[Tuple[Edge, Cycle]] = []
        with telemetry.tracer.span("pass2:store-cycles", kind="pass") as span:
            for a, b in stream.edges():
                cycles = self._completions(s0_adj, a, b)
                if cycles:
                    stored.extend(((a, b), cycle) for cycle in cycles)
                    meter.add("stored_cycles", len(cycles))
            span.set("stored_cycles", len(stored))

        # ---- pass 3: classify every involved edge --------------------
        eta_sqrt_t = self.eta * math.sqrt(self.t_guess)
        oracle_edges = list(
            dict.fromkeys(
                normalize_edge(x, y)
                for _, (a, b, c_v, d_v) in stored
                for x, y in ((a, b), (b, c_v), (c_v, d_v), (d_v, a))
            )
        )
        selection = select_samples(
            oracle_edges,
            q_sets,
            s_adjs,
            p,
            [self.seed * 100_003 + i for i in range(len(oracle_edges))],
        )
        oracles: Dict[Edge, _EdgeOracle] = {}
        # edge_index[w]: (oracle, the endpoint of its edge other than w)
        edge_index: Dict[Vertex, List[Tuple[_EdgeOracle, Vertex]]] = {}
        for e, samples in zip(oracle_edges, selection.samples):
            oracle = _EdgeOracle(e, samples, s_adjs, selection.effective_p, eta_sqrt_t)
            oracles[e] = oracle
            a, b = e
            edge_index.setdefault(a, []).append((oracle, b))
            edge_index.setdefault(b, []).append((oracle, a))

        observations = 0
        if oracles:
            with telemetry.tracer.span("pass3:classify", kind="pass") as span:
                for u, v in stream.edges():
                    f = normalize_edge(u, v)
                    # f is one oracle's own edge, or shares one endpoint
                    for shared, outer in ((u, v), (v, u)):
                        for oracle, opposite in edge_index.get(shared, ()):
                            if opposite != outer:
                                oracle.observe(f, opposite, outer)
                                observations += 1
                span.set("num_oracles", len(oracles))

        heavy: Dict[Edge, bool] = {
            e: oracle.classify(eta_sqrt_t) for e, oracle in oracles.items()
        }
        for oracle in oracles.values():
            meter.add("oracle_counters", oracle.space_items)

        # ---- combine --------------------------------------------------
        a0 = 0
        a1 = 0
        for e_raw, (a, b, c_v, d_v) in stored:
            e = normalize_edge(*e_raw)
            cycle_edges = [
                normalize_edge(a, b),
                normalize_edge(b, c_v),
                normalize_edge(c_v, d_v),
                normalize_edge(d_v, a),
            ]
            others = [g for g in cycle_edges if g != e]
            e_heavy = heavy.get(e, False)
            others_heavy = sum(1 for g in others if heavy.get(g, False))
            if not e_heavy and others_heavy == 0:
                a0 += 1
            elif e_heavy and others_heavy == 0:
                a1 += 1
        estimate = a0 / (4.0 * p**3) + a1 / (p**3)

        if telemetry.enabled:
            metrics = telemetry.metrics
            metrics.inc(f"{self.name}.stored_cycles", len(stored))
            metrics.inc(f"{self.name}.oracle_calls", len(oracles))
            metrics.inc(f"{self.name}.heavy_edges", sum(heavy.values()))
            metrics.inc(f"{self.name}.pass3.select_hash_evals", selection.hash_evals)
            metrics.inc(f"{self.name}.pass3.oracle_observations", observations)

        details = {
            "p": p,
            "eta_sqrt_t": eta_sqrt_t,
            "stored_pairs": len(stored),
            "a0": a0,
            "a1": a1,
            "num_oracles": len(oracles),
            "num_heavy_edges": sum(heavy.values()),
        }
        return EstimateResult(estimate, stream.passes_taken, meter, self.name, details)

    # ------------------------------------------------------------------
    @staticmethod
    def _completions(
        s0_adj: Dict[Vertex, Set[Vertex]], a: Vertex, b: Vertex
    ) -> List[Cycle]:
        """All cycles ``a-b-c-d`` whose other three edges are in S0."""
        cycles: List[Cycle] = []
        neighbors_b = s0_adj.get(b)
        neighbors_a = s0_adj.get(a)
        if not neighbors_b or not neighbors_a:
            return cycles
        for c in neighbors_b:
            if c == a:
                continue
            c_neighbors = s0_adj.get(c, set())
            for d in neighbors_a:
                if d == b or d == c or d == a:
                    continue
                if d in c_neighbors:
                    cycles.append((a, b, c, d))
        return cycles
