"""Exact max-flow on bipartite supply/demand networks.

Both networks in this package have the same shape: supply nodes on the left
(posterior beliefs, or actions feeding menus), demand nodes on the right, and
forward edges only, each node named by its position. Feasibility means a flow
meeting every demand (Gale 1957); a synthetic source and sink turn that into
a max-flow question. Augmenting paths are chosen shortest-first (BFS), so the
number of augmentations is bounded combinatorially.

An edge's capacity is the total supply, which no flow through it can exceed:
the edges are unbounded in effect. The network and its flow are integers
over one scale that the caller picks: the supplies and demands are rationals
written over a common denominator, and the flow is read over the same one.
A positive scale changes no sign, no minimum and no equality, so the
augmenting paths and the flow are the ones rational arithmetic finds, and
multiplying every supply and demand by k multiplies the flow by k.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class FlowNetwork:
    """Supplies, demands, and the forward edges ``(i, j)`` joining supply i
    to demand j, each edge listed once. Supplies and demands are ints over
    one scale the caller picks. Immutable; the solver returns the flow
    separately."""

    supplies: tuple[int, ...]
    demands: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def max_flow_feasible(
    network: FlowNetwork,
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Decide whether every demand can be met; return the flow if so.

    The flow has one row per supply and one entry per demand, ints over the
    network's scale, 0 off the edges. Edge order drives BFS neighbor order,
    so identical networks always produce identical flows.
    """
    supplies, demands = network.supplies, network.demands
    n, m = len(supplies), len(demands)

    # Node ids: the source 0, supply i at 1 + i, demand j at 1 + n + j, and
    # the sink last. Each node's dict keeps its neighbors in insertion order.
    source, sink = 0, n + m + 1
    residual: list[dict[int, int]] = [{} for _ in range(n + m + 2)]
    for u, supply in enumerate(supplies, 1):
        if supply > 0:
            residual[source][u] = supply
            residual[u][source] = 0
    for v, demand in enumerate(demands, n + 1):
        if demand > 0:
            residual[v][sink] = demand
            residual[sink][v] = 0
    capacity = sum(supplies)
    for i, j in network.edges:
        residual[1 + i][1 + n + j] = capacity
        residual[1 + n + j][1 + i] = 0

    pushed = 0
    while True:
        # BFS for the shortest augmenting path
        parent = [-1] * len(residual)
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            break
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        pushed += bottleneck

    if pushed != sum(demands):
        return False, None
    flow = [[0] * m for _ in range(n)]
    for i, j in network.edges:
        flow[i][j] = residual[1 + n + j][1 + i]
    # From lists: a tuple grown from a generator by resizing skips CPython's
    # tuple free list but returns to it, so peak memory grows call by call.
    return True, tuple([tuple(row) for row in flow])
