"""Exact max-flow on bipartite supply/demand networks.

Both networks in this package have the same shape: supply nodes on the left
(posterior beliefs, or actions feeding menus), demand nodes on the right, and
forward edges only. Feasibility means a flow meeting every demand; a
synthetic source and sink turn that into a max-flow question. Augmenting
paths are chosen shortest-first (BFS), so the number of augmentations is
bounded combinatorially.

The solver runs on integers: every supply, demand and capacity is scaled by
the lcm of their denominators. A positive scale changes no sign, no minimum
and no equality, so the augmenting paths and the flow are the ones rational
arithmetic finds; a ``Fraction`` is built only for each edge of the returned
flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

NodeKey = tuple
FlowMap = dict[tuple[NodeKey, NodeKey], Fraction]

ZERO = Fraction(0)

_SOURCE = ("__source__",)
_SINK = ("__sink__",)


@dataclass(frozen=True)
class FlowNetwork:
    """Supplies, demands, and capacitated forward edges between them.

    Node keys are tuples like ("posterior", 2) or ("action", 0); the
    synthetic source/sink are internal to the solver. Immutable; the solver
    returns the flow separately.
    """

    supplies: tuple[tuple[NodeKey, Fraction], ...]
    demands: tuple[tuple[NodeKey, Fraction], ...]
    edges: tuple[tuple[NodeKey, NodeKey, Fraction], ...]


def max_flow_feasible(network: FlowNetwork) -> tuple[bool, FlowMap | None]:
    """Decide whether every demand can be met; return the flow if so.

    The flow map covers every declared edge (zero entries included). Edge
    insertion order drives BFS neighbor order, so identical networks always
    produce identical flows.
    """
    scale = lcm(
        *(q.denominator for _, q in network.supplies),
        *(q.denominator for _, q in network.demands),
        *(q.denominator for _, _, q in network.edges),
    )

    def scaled(q: Fraction) -> int:
        return q.numerator * (scale // q.denominator)

    residual: dict[NodeKey, dict[NodeKey, int]] = {_SOURCE: {}, _SINK: {}}

    def ensure(node: NodeKey) -> dict[NodeKey, int]:
        if node not in residual:
            residual[node] = {}
        return residual[node]

    def add_edge(u: NodeKey, v: NodeKey, cap: int) -> None:
        ensure(u)[v] = ensure(u).get(v, 0) + cap
        ensure(v).setdefault(u, 0)

    for node, supply in network.supplies:
        if supply > 0:
            add_edge(_SOURCE, node, scaled(supply))
        else:
            ensure(node)
    total_demand = 0
    for node, demand in network.demands:
        total_demand += scaled(demand)
        if demand > 0:
            add_edge(node, _SINK, scaled(demand))
        else:
            ensure(node)
    for u, v, cap in network.edges:
        if cap > 0:
            add_edge(u, v, scaled(cap))

    pushed = 0
    while True:
        # BFS for the shortest augmenting path
        parent: dict[NodeKey, NodeKey] = {_SOURCE: _SOURCE}
        queue = deque([_SOURCE])
        while queue and _SINK not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if _SINK not in parent:
            break
        bottleneck = None
        v = _SINK
        while v != _SOURCE:
            u = parent[v]
            cap = residual[u][v]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        v = _SINK
        while v != _SOURCE:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        pushed += bottleneck

    if pushed != total_demand:
        return False, None
    flow: FlowMap = {}
    for u, v, cap in network.edges:
        flow[(u, v)] = Fraction(residual[v].get(u, 0), scale) if cap > 0 else ZERO
    return True, flow
