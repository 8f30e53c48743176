"""Wait-for graphs: local conflict tracking and distributed union.

An edge ``a -> b`` means transaction ``a`` waits for a lock held by ``b``.
Each DTX site maintains its own graph (modification (ii) of the paper:
"the lock manager was distributed in each instance"); the distributed
detector unions all sites' graphs and looks for a cycle (Algorithm 4).

Nodes may be any hashable, ordered values — DTX uses transaction ids ordered
by start timestamp, so ``max(cycle)`` is the *most recent* transaction, the
paper's victim rule.

The graph keeps an in-edge index beside the out-edges, so ``add_edge`` is
O(1) and ``clear_waits`` and ``remove_node`` cost O(degree) of the node
they touch, not O(graph). A node is kept only while it has an edge: when
its last in- or out-edge goes, so does the node, and ``nodes()`` never
reports an isolated transaction. ``find_cycle_from`` is O(V + E) over the
part of the graph its start reaches; ``find_any_cycle`` is O(V + E) plus
sorting by ``repr``, which keeps victim selection deterministic.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from ..errors import ReproError


class WaitForGraph:
    def __init__(self) -> None:
        # Both maps hold exactly the nodes that have at least one edge.
        self._out: dict[Hashable, set[Hashable]] = {}
        self._in: dict[Hashable, set[Hashable]] = {}

    # -- mutation -----------------------------------------------------------

    def add_edge(self, waiter: Hashable, holder: Hashable) -> None:
        if waiter == holder:
            return  # a transaction never waits for itself
        holders = self._out.get(waiter)
        if holders is None:
            holders = self._out[waiter] = set()
            self._in[waiter] = set()
        holders.add(holder)
        waiters = self._in.get(holder)
        if waiters is None:
            waiters = self._in[holder] = set()
            self._out[holder] = set()
        waiters.add(waiter)

    def clear_waits(self, waiter: Hashable) -> None:
        """Drop ``waiter``'s outgoing edges (it acquired its locks)."""
        holders = self._out.get(waiter)
        if not holders:
            return
        self._out[waiter] = set()
        for holder in holders:
            self._in[holder].discard(waiter)
            self._drop_if_isolated(holder)
        self._drop_if_isolated(waiter)

    def remove_node(self, node: Hashable) -> None:
        """Forget a finished transaction entirely (in- and out-edges)."""
        holders = self._out.pop(node, None)
        if holders is None:
            return
        waiters = self._in.pop(node)
        for holder in holders:
            self._in[holder].discard(node)
            self._drop_if_isolated(holder)
        for waiter in waiters:
            self._out[waiter].discard(node)
            self._drop_if_isolated(waiter)

    def _drop_if_isolated(self, node: Hashable) -> None:
        if not self._out[node] and not self._in[node]:
            del self._out[node]
            del self._in[node]

    def check_consistency(self) -> None:
        """Assert the in-index mirrors the out-edges (used by tests)."""
        forward = {(a, b) for a, dsts in self._out.items() for b in dsts}
        backward = {(a, b) for b, srcs in self._in.items() for a in srcs}
        if forward != backward:
            raise ReproError("wait-for graph in-edge index diverged")
        if self._out.keys() != self._in.keys():
            raise ReproError("wait-for graph node sets diverged")
        isolated = [n for n in self._out if not self._out[n] and not self._in[n]]
        if isolated:
            raise ReproError(f"wait-for graph keeps edgeless nodes: {isolated!r}")

    # -- inspection -----------------------------------------------------------

    def edges(self) -> list[tuple[Hashable, Hashable]]:
        return [(a, b) for a, dsts in self._out.items() for b in dsts]

    def successors(self, node: Hashable) -> frozenset:
        return frozenset(self._out.get(node, ()))

    def nodes(self) -> set:
        return set(self._out)

    @property
    def edge_count(self) -> int:
        return sum(len(d) for d in self._out.values())

    def waits(self, waiter: Hashable) -> bool:
        return bool(self._out.get(waiter))

    # -- cycle detection --------------------------------------------------------

    def find_cycle_from(self, start: Hashable) -> Optional[list]:
        """A cycle through ``start``, as a node list, or ``None``.

        Used at lock-acquisition time (Algorithm 3 line 9): adding the new
        wait edges may have closed a cycle through the requesting
        transaction.
        """
        path: list = [start]
        on_path = {start}
        visited: set = set()

        def dfs(node) -> Optional[list]:
            for nxt in self._out.get(node, ()):
                # ``start`` is on the path, so this set lookup (hash and
                # identity) spares an ``==`` call on most edges.
                if nxt in on_path:
                    if nxt == start:
                        return list(path)
                    continue
                if nxt in visited:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                found = dfs(nxt)
                if found is not None:
                    return found
                on_path.discard(path.pop())
            visited.add(node)
            return None

        return dfs(start)

    def find_any_cycle(self) -> Optional[list]:
        """Any cycle in the graph (iterative DFS with colouring), or ``None``."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {n: WHITE for n in self._out}
        parent: dict = {}
        # Deterministic iteration keeps victim selection reproducible.
        for root in sorted(self._out, key=repr):
            if colour.get(root, WHITE) is not WHITE:
                continue
            stack: list[tuple] = [(root, iter(sorted(self._out.get(root, ()), key=repr)))]
            colour[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = colour.get(nxt, WHITE)
                    if c is GREY:
                        # back edge: recover the cycle from the grey stack
                        cycle = [nxt]
                        cur = node
                        while cur != nxt:
                            cycle.append(cur)
                            cur = parent[cur]
                        cycle.reverse()
                        return cycle
                    if c is WHITE:
                        colour[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, iter(sorted(self._out.get(nxt, ()), key=repr))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    # -- distribution -------------------------------------------------------------

    def union(self, *others: "WaitForGraph") -> "WaitForGraph":
        """A new graph containing this graph's and all ``others``' edges."""
        merged = WaitForGraph()
        for g in (self, *others):
            for a, b in g.edges():
                merged.add_edge(a, b)
        return merged

    def snapshot(self) -> list[tuple[Hashable, Hashable]]:
        """Serializable edge list (what a site ships to the detector)."""
        return self.edges()

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Hashable, Hashable]]) -> "WaitForGraph":
        g = cls()
        for a, b in edges:
            g.add_edge(a, b)
        return g


def newest_transaction(cycle: Iterable) -> Hashable:
    """The paper's victim rule: abort the most recently started transaction."""
    return max(cycle)
