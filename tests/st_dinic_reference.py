"""The max-flow kernel as it was before it routed node excess.

``flow._Dinic`` verbatim from that version: a source and a sink node, each
phase labelling nodes by residual distance to the sink, and a blocking-flow
DFS from the source. The live kernel labels from the excess and searches back
from the deficits, the same steps on the reversed network. Tests require its
``route``, on the same arcs without terminal nodes, to leave the same residual
capacities, excess and phases as this kernel's ``max_flow`` on the arc pairs
with tails and heads swapped plus, in node order, one arc from the source to
each node with a deficit and one to the sink from each node with excess, and
to return the nodes that reach this kernel's sink.
"""

from collections import deque

import numpy as np


class _Dinic:
    """Dinic max flow on integer capacities (Python ints, no overflow).

    Arc 2k runs tails[k] -> heads[k] with capacity caps[k], and arc 2k + 1
    runs back with capacity back[k] (an undirected edge when both are equal).
    Each node lists its arcs in id order. ``phases`` counts the blocking
    flows that ``max_flow`` has run.
    """

    def __init__(self, n: int, tails, heads, caps: list[int], back: list[int]):
        pairs = np.array([tails, heads], dtype=np.intp)
        ends = pairs.T.ravel()  # the tail of arc e is ends[e]
        self.n = n
        self.phases = 0
        self.head = pairs[::-1].T.ravel().tolist()
        self.cap = [0] * ends.size
        self.cap[::2] = caps
        self.cap[1::2] = back
        arcs = np.argsort(ends, kind="stable").tolist()
        bounds = np.bincount(ends, minlength=n).cumsum().tolist()
        self.adj = [arcs[a:b] for a, b in zip([0, *bounds], bounds)]

    def max_flow(self, s: int, t: int) -> int:
        """Value of a maximum s-t flow, left pushed in the residual capacities."""
        total = 0
        n, head, cap, adj = self.n, self.head, self.cap, self.adj
        while True:
            # Label nodes by residual distance to t: BFS back from t over arcs
            # whose reverse still has capacity, until s's layer is complete.
            dist = [-1] * n
            dist[t] = 0
            layer = [t]
            d = 0
            while layer and dist[s] < 0:
                d += 1
                reached = []
                for v in layer:
                    for e in adj[v]:
                        u = head[e]
                        if dist[u] < 0 and cap[e ^ 1] > 0:
                            dist[u] = d
                            reached.append(u)
                layer = reached
            if dist[s] < 0:
                return total
            self.phases += 1
            # Blocking flow: a DFS from s that steps one label closer to t, so
            # it only enters nodes that could still reach t.
            it = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    push = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= push
                        cap[e ^ 1] += push
                    total += push
                    # Back up to the tail of the first saturated arc.
                    del path[next(k for k, e in enumerate(path) if not cap[e]):]
                    u = head[path[-1]] if path else s
                    continue
                arcs, i, want = adj[u], it[u], dist[u] - 1
                m = len(arcs)
                while i < m:
                    e = arcs[i]
                    if cap[e] > 0 and dist[head[e]] == want:
                        break
                    i += 1
                it[u] = i
                if i < m:
                    path.append(arcs[i])
                    u = head[arcs[i]]
                elif u == s:
                    break
                else:
                    dist[u] = -1  # dead end in this phase
                    path.pop()
                    u = head[path[-1]] if path else s

    def residual_reachable(self, s: int) -> list[bool]:
        """Per node, whether s reaches it through positive residual capacity."""
        seen = [False] * self.n
        seen[s] = True
        queue = deque([s])
        head, cap, adj = self.head, self.cap, self.adj
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if cap[e] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen
