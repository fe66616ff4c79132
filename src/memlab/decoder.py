"""Syndrome decoding: minimum-weight anyon pairing and dressed logical readout.

The measurement procedure implemented here has three steps: read every qubit,
compute the bare loop observable, then multiply it by the sign a
minimum-weight correction inferred from the syndrome contributes.  Corrections
pair up anyons along torus geodesics; with at most 12 anyons the pairing is an
exact minimum over all possibilities, beyond that a nearest-neighbour greedy
pass takes over and the result is flagged.

The exact pairing is a dynamic program over subset masks: the lowest
unpaired anyon is paired with each partner in turn and the rest is solved the
same way.  Which masks that rule reaches depends on the anyon count k alone,
so ``_plan(k)`` lists them once per k, children first (232 masks at k = 12),
and a decode is one flat loop over the plan.

One distance rule serves the pairing and the geodesic walks: stabilizer
s = y L + x is min(|dx|, L - |dx|) + min(|dy|, L - |dy|) steps from b on the
L x L torus.  ``_distances_to(b, L)`` caches that rule as one row of plain
ints per target; the pair costs of a decode are read off its anyons' rows,
and each walk reads its target's row.  A geodesic steps across the edges of
the lattice's own incidence tables (``plaquette_edges``/``edge_plaquettes``,
or the star pair), so the edge numbering is written only in ``lattice``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ._shared import check_count, check_counts
from .lattice import (LogicalOperator, SpinConfiguration, Syndrome, build_model,
                      crossing_sign, logical_bare, syndrome)

EXACT_LIMIT = 12  # anyon count up to which the pairing search is exact


@dataclass(frozen=True)
class Correction:
    """Edge set returning a syndrome to the vacuum.

    Args:
        edges: edges to flip.
        L: linear lattice size the correction belongs to (an integer >= 2).
        method: ``"exact"`` (optimal pairing) or ``"greedy"`` (fallback).
    """

    edges: frozenset
    L: int
    method: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "edges", check_counts("edges", self.edges, least=0))
        object.__setattr__(self, "L", check_count("L", self.L, 2))

    @property
    def weight(self) -> int:
        return len(self.edges)


@functools.lru_cache(maxsize=None)
def _steps(L: int, sector: str) -> list:
    """Per stabilizer, its (edge, stabilizer across that edge) pairs, read off
    the model's incidence tables as plain ints."""
    model = build_model("Kitaev2D", L=L)
    if sector == "plaquette":
        around, ends = model.plaquette_edges.tolist(), model.edge_plaquettes.tolist()
    else:
        around, ends = model.star_edges.tolist(), model.edge_stars.tolist()
    return [[(e, sum(ends[e]) - s) for e in edges] for s, edges in enumerate(around)]


@functools.lru_cache(maxsize=1 << 14)
def _geodesic_edges(a: int, b: int, L: int, sector: str) -> tuple:
    """Shortest path of edges from stabilizer a to b (``a <= b``), cached.

    Among all torus geodesics this picks the lexicographically smallest edge
    sequence: at every step the distance-reducing move with the smallest edge
    index is taken (wrap-direction ties at distance L/2 are resolved the same
    way).  The walk starts from ``a``, the lower stabilizer index.
    """
    steps = _steps(L, sector)
    to_b = _distances_to(b, L)
    path = []
    d = to_b[a]
    while d > 0:
        d -= 1
        edge, a = min(step for step in steps[a] if to_b[step[1]] == d)
        path.append(edge)
    return tuple(path)


@functools.lru_cache(maxsize=1024)
def _distances_to(b: int, L: int) -> list:
    """Torus distance from every stabilizer to ``b``: one row of L^2 ints.

    Rows are cached for at most 1024 targets, which holds every row of the
    L = 8 and L = 16 tori (64 + 256) when one process decodes both in turn.
    """
    def axis(c0):
        return [min(abs(c - c0), L - abs(c - c0)) for c in range(L)]

    y, x = divmod(b, L)
    along_x = axis(x)
    return [dy + dx for dy in axis(y) for dx in along_x]


@functools.lru_cache(maxsize=None)
def _plan(k: int) -> tuple:
    """The subset dynamic program of :func:`_pair_exact` for k anyons.

    One entry per subset mask that the "pair the lowest anyon" rule reaches
    from the full mask, children before parents, so the full mask is last.
    Entry 0 is the empty mask, ``None``.  Any other entry is ``(i, options)``:
    ``i`` is the mask's lowest anyon, and ``options`` lists, per partner ``b``
    of ``i`` in ascending order, the pair ``(b, index of the mask without i
    and b)``.  It depends on k alone: 232 masks and 1076 options at k = 12.
    """
    index = {0: 0}
    plan = [None]

    def visit(mask):
        if mask not in index:
            low = mask & -mask
            rest = mask ^ low
            options = []
            j = rest
            while j:
                bit = j & -j
                options.append((bit.bit_length() - 1, visit(rest ^ bit)))
                j ^= bit
            index[mask] = len(plan)
            plan.append((low.bit_length() - 1, tuple(options)))
        return index[mask]

    visit((1 << k) - 1)
    return tuple(plan)


def _pair_exact(anyons: list, dist):
    """Minimum-cost perfect pairing by dynamic programming over subsets.

    ``best(mask)`` pairs the lowest anyon ``i`` of ``mask`` with each partner
    ``b`` in ascending order and keeps the first strict minimum of
    ``dist[i][b] + best(mask without i, b)``.  Only the subsets that this
    "pair the lowest anyon" rule reaches from the full mask are solved: 232
    of the 2048 even masks at k = 12, with 1076 options, against (2k-1)!! =
    10395 pairings by enumeration.  :func:`_plan` lists them children first,
    so the solve is one flat loop over the plan, with no recursion and no
    memo dict.  Costs are sums of the integer torus distances
    min(|dx|, L - |dx|) + min(|dy|, L - |dy|) of :func:`_distances_to`, so
    neither the minimum nor the tie-break depends on evaluation order.

    Args:
        anyons: stabilizer indices, in the order ``dist`` is indexed.
        dist: k x k distances as nested lists.
    """
    plan = _plan(len(anyons))
    cost, pick = [0], [None]  # per plan entry, in plan order
    for i, options in plan[1:]:
        row = dist[i]
        cands = [row[b] + cost[c] for b, c in options]
        best = min(cands)
        cost.append(best)
        pick.append(cands.index(best))  # the first strict minimum
    pairs = []
    m = len(plan) - 1
    while m:
        i, options = plan[m]
        b, m = options[pick[m]]
        pairs.append((anyons[i], anyons[b]))
    return pairs


def _pair_greedy(anyons: list, dist: list):
    """Nearest-neighbour pairing: repeatedly match the first unpaired anyon."""
    todo = list(range(len(anyons)))
    pairs = []
    while todo:
        i = todo.pop(0)
        row = dist[i]
        j_best = min(todo, key=row.__getitem__)  # todo ascends: ties go to the lowest j
        todo.remove(j_best)
        pairs.append((anyons[i], anyons[j_best]))
    return pairs


def decode_matching(syn: Syndrome, L: int) -> Correction:
    """Correction from minimum total geodesic distance pairing of the syndrome.

    Args:
        syn: even-cardinality syndrome, its anyons stabilizers 0 .. L^2 - 1.
        L: linear lattice size (an integer >= 2).

    Returns:
        A :class:`Correction` whose syndrome reproduces ``syn``; the union of
        matched-pair paths is combined by symmetric difference.
    """
    L = check_count("L", L, 2)
    anyons = sorted(syn.anyons)
    if len(anyons) % 2:
        raise ValueError("syndrome has odd anyon number")
    if anyons and anyons[-1] >= L * L:
        raise ValueError(f"anyon {anyons[-1]} is not a stabilizer of the L={L} torus "
                         f"(indices 0 .. {L * L - 1})")
    if not anyons:
        return Correction(frozenset(), L)
    dist = [[row[b] for b in anyons] for row in [_distances_to(a, L) for a in anyons]]
    if len(anyons) <= EXACT_LIMIT:
        pairs, method = _pair_exact(anyons, dist), "exact"
    else:
        pairs, method = _pair_greedy(anyons, dist), "greedy"
    edges = set()
    for a, b in pairs:  # anyons are sorted, so a < b
        edges.symmetric_difference_update(_geodesic_edges(a, b, L, syn.sector))
    return Correction(frozenset(edges), L, method)


def dressed_logical(outcomes, op: LogicalOperator, L: int) -> int:
    """Corrected logical readout from a full set of single-qubit outcomes.

    Computes the bare loop value, reconstructs the syndrome the outcomes
    imply, decodes it, and flips the bare value by the correction's crossing
    parity.

    Args:
        outcomes: +-1 value per qubit (all 2 L^2 of them).
        op: a Z-type logical operator.
        L: linear lattice size.
    """
    L = check_count("L", L, 2)
    if op.sector != "Z-type":
        raise ValueError("dressed readout tracks Z-type loops in this frame")
    if not isinstance(outcomes, SpinConfiguration):
        outcomes = SpinConfiguration(outcomes)  # rejects anything but +-1
    if outcomes.n != 2 * L * L:
        raise ValueError(f"need outcomes for all {2 * L * L} qubits, got {outcomes.n}")
    model = build_model("Kitaev2D", L=L)
    bare = logical_bare(model, outcomes, op)
    corr = decode_matching(syndrome(model, outcomes, "plaquette"), L)
    return bare * crossing_sign(corr.edges, op)


def is_logical_failure(error, correction: Correction, op: LogicalOperator) -> bool:
    """Whether error followed by correction flips the tracked logical.

    True iff ``op`` has different bare values (:func:`lattice.logical_bare`)
    under the error and under the correction: their residual is then
    homologically nontrivial in the direction the operator detects.
    """
    model = build_model("Kitaev2D", L=correction.L)
    if syndrome(model, error, "plaquette") != syndrome(model, correction.edges, "plaquette"):
        raise ValueError("correction does not match the error's syndrome")
    return logical_bare(model, error, op) != logical_bare(model, correction.edges, op)

