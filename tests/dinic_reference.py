"""The max-flow kernel as it was before its labels were taken toward the sink.

``flow._Dinic`` verbatim from that version: each phase labels nodes by BFS
distance from the source, and the blocking-flow DFS retreats from every dead
end of the source-side level graph. Tests pit the current kernel against it
and swap it into ``solve_exact`` and ``check_ncc`` to show identical answers.
"""

from collections import deque


class _Dinic:
    """Blocking-flow max flow on integer capacities (Python ints, no overflow)."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, capacity: int, reverse: int = 0) -> int:
        """Arc u -> v paired with v -> u of capacity ``reverse`` (an undirected
        edge when both are equal); returns the forward arc's id."""
        arc_id = len(self.head)
        self.head.append(v)
        self.cap.append(capacity)
        self.head.append(u)
        self.cap.append(reverse)
        self.adj[u].append(arc_id)
        self.adj[v].append(arc_id + 1)
        return arc_id

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        head, cap, adj = self.head, self.cap, self.adj
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        head, cap, adj = self.head, self.cap, self.adj
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * self.n
            # Iterative DFS for a blocking flow in the level graph.
            path_arcs: list[int] = []
            u = s
            while True:
                if u == t:
                    push = min(cap[e] for e in path_arcs)
                    total += push
                    retreat = 0
                    for pos, e in enumerate(path_arcs):
                        cap[e] -= push
                        cap[e ^ 1] += push
                        if cap[e] == 0 and retreat == 0:
                            retreat = pos
                    # Back up to the tail of the first saturated arc.
                    del path_arcs[retreat:]
                    u = s if not path_arcs else head[path_arcs[-1]]
                    continue
                advanced = False
                while it[u] < len(adj[u]):
                    e = adj[u][it[u]]
                    v = head[e]
                    if cap[e] > 0 and level[v] == level[u] + 1:
                        path_arcs.append(e)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if advanced:
                    continue
                if u == s:
                    break
                level[u] = -1  # dead end in this phase
                e = path_arcs.pop()
                u = s if not path_arcs else head[path_arcs[-1]]

    def residual_reachable(self, s: int) -> set[int]:
        """Nodes reachable from s through positive residual capacity."""
        seen = {s}
        queue = deque([s])
        head, cap, adj = self.head, self.cap, self.adj
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen
