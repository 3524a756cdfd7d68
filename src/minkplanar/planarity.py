"""Planarity of a small graph, decided by Brandes' left-right test.

``is_planar(adj)`` takes int adjacency sets, one per node, and answers
yes or no; it builds no embedding.  Loops and parallel arcs may be
present and are ignored, since neither changes whether a graph is
planar.  The brute oracle runs it on every gadget it builds.

The test (U. Brandes, "The Left-Right Planarity Test", 2009) orients the
graph by a depth-first search, ranks every out-arc by the lowest point
its subtree returns to, and then walks the tree again in that order,
keeping a stack of conflict pairs: for each side of the tree, the
interval of return edges that must lie on it.  The graph is planar
exactly when no return edge has to lie on both sides.  Both walks use an
explicit stack, so the depth of the tree is not bounded by Python's
recursion limit.
"""

from __future__ import annotations


class _Interval:
    """The return edges on one side of a conflict pair, named by the
    lowest and the highest of them; both ``None`` when the side is empty."""

    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def conflicting(self, edge, lowpt: dict) -> bool:
        return not self.empty() and lowpt[self.high] > lowpt[edge]


class _Pair:
    """A conflict pair: return edges that must lie on opposite sides."""

    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left or _Interval()
        self.right = right or _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left

    def lowest(self, lowpt: dict) -> int:
        if self.left.empty():
            return lowpt[self.right.low]
        if self.right.empty():
            return lowpt[self.left.low]
        return min(lowpt[self.left.low], lowpt[self.right.low])


def is_planar(adj) -> bool:
    """Whether the graph with neighbour sets ``adj`` (node ``v``'s
    neighbours are ``adj[v]``, nodes ``0 .. len(adj) - 1``) is planar."""
    n = len(adj)
    arcs = sum(len(ws) - (v in ws) for v, ws in enumerate(adj))
    if n > 2 and arcs > 2 * (3 * n - 6):
        return False
    test = _LeftRight(adj)
    return all(test.planar_from(root) for root in test.roots)


class _LeftRight:
    """The state of one left-right test; ``roots`` are the roots of the
    depth-first forest, one per component."""

    def __init__(self, adj):
        n = len(adj)
        self.height = [-1] * n
        self.parent_edge: list = [None] * n
        self.lowpt: dict = {}
        self.lowpt2: dict = {}
        self.nesting: dict = {}
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.roots = []
        for root in range(n):
            if self.height[root] < 0:
                self.roots.append(root)
                self._orient(adj, root)
        for v, ws in enumerate(self.out):
            ws.sort(key=lambda w, v=v: self.nesting[v, w])
        self.ref: dict = {}
        self.lowpt_edge: dict = {}
        self.stack_bottom: dict = {}
        self.stack: list[_Pair] = []

    # ------------------------------------------------------------ orientation

    def _orient(self, adj, root: int) -> None:
        """Orient the component of ``root`` by a depth-first search."""
        height, lowpt = self.height, self.lowpt
        height[root] = 0
        todo = [(root, iter(adj[root]))]
        while todo:
            v, ws = todo[-1]
            for w in ws:
                if w == v or (v, w) in lowpt or (w, v) in lowpt:
                    continue
                vw = (v, w)
                self.out[v].append(w)
                lowpt[vw] = self.lowpt2[vw] = height[v]
                if height[w] < 0:  # tree arc: settled when w is done
                    self.parent_edge[w] = vw
                    height[w] = height[v] + 1
                    todo.append((w, iter(adj[w])))
                    break
                lowpt[vw] = height[w]  # back arc
                self._settle(vw)
            else:
                todo.pop()
                if self.parent_edge[v] is not None:
                    self._settle(self.parent_edge[v])

    def _settle(self, vw) -> None:
        """Rank the finished arc ``vw`` and pass its low points up to the
        arc into its tail."""
        lowpt, lowpt2 = self.lowpt, self.lowpt2
        v = vw[0]
        self.nesting[vw] = 2 * lowpt[vw] + (lowpt2[vw] < self.height[v])
        e = self.parent_edge[v]
        if e is None:
            return
        if lowpt[vw] < lowpt[e]:
            lowpt2[e] = min(lowpt[e], lowpt2[vw])
            lowpt[e] = lowpt[vw]
        elif lowpt[vw] > lowpt[e]:
            lowpt2[e] = min(lowpt2[e], lowpt[vw])
        else:
            lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    # ---------------------------------------------------------------- testing

    def planar_from(self, root: int) -> bool:
        """Walk the tree of ``root`` with the arcs in rank order; False as
        soon as a return edge is constrained to both sides."""
        stack, out, parent_edge = self.stack, self.out, self.parent_edge
        nxt = {root: 0}
        todo = [root]
        while todo:
            v = todo[-1]
            i = nxt[v]
            if i == len(out[v]):
                todo.pop()
                e = parent_edge[v]
                if e is None:
                    continue
                self._remove_back_edges(e)
                u = e[0]
                if not self._integrate(u, e, nxt[u] == 0):
                    return False
                nxt[u] += 1
                continue
            w = out[v][i]
            vw = (v, w)
            self.stack_bottom[vw] = stack[-1] if stack else None
            if parent_edge[w] == vw:  # tree arc: integrated when w is done
                nxt[w] = 0
                todo.append(w)
                continue
            self.lowpt_edge[vw] = vw
            stack.append(_Pair(right=_Interval(vw, vw)))
            if not self._integrate(v, vw, i == 0):
                return False
            nxt[v] = i + 1
        return True

    def _integrate(self, v: int, vw, first: bool) -> bool:
        """Merge the return edges of the finished arc ``vw`` out of ``v``
        with those of the arcs before it; False if they cannot be."""
        if self.lowpt[vw] >= self.height[v]:
            return True
        e = self.parent_edge[v]
        if first:
            self.lowpt_edge[e] = self.lowpt_edge[vw]
            return True
        return self._add_constraints(vw, e)

    def _add_constraints(self, ei, e) -> bool:
        """Put the return edges of ``ei`` on one side of a new conflict
        pair, and those of the earlier arcs that conflict with them on the
        other; False if a return edge would need both sides."""
        lowpt, ref, stack = self.lowpt, self.ref, self.stack
        p = _Pair()
        # the return edges of ei go to p's right side
        while True:
            q = stack.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                return False
            if lowpt[q.right.low] > lowpt[e]:
                if p.right.empty():
                    p.right = _Interval(q.right.low, q.right.high)
                else:
                    ref[p.right.low] = q.right.high
                p.right.low = q.right.low
            else:
                ref[q.right.low] = self.lowpt_edge[e]
            if (stack[-1] if stack else None) is self.stack_bottom[ei]:
                break
        # the earlier arcs' return edges that conflict with ei go left
        while (stack[-1].left.conflicting(ei, lowpt)
               or stack[-1].right.conflicting(ei, lowpt)):
            q = stack.pop()
            if q.right.conflicting(ei, lowpt):
                q.swap()
            if q.right.conflicting(ei, lowpt):
                return False
            ref[p.right.low] = q.right.high
            if q.right.low is not None:
                p.right.low = q.right.low
            if p.left.empty():
                p.left = _Interval(q.left.low, q.left.high)
            else:
                ref[p.left.low] = q.left.high
            p.left.low = q.left.low
        if not (p.left.empty() and p.right.empty()):
            stack.append(p)
        return True

    def _remove_back_edges(self, e) -> None:
        """Drop the return edges that end at the tail of the tree arc
        ``e``, now that its subtree is done."""
        lowpt, ref, stack = self.lowpt, self.ref, self.stack
        u = e[0]
        while stack and stack[-1].lowest(lowpt) == self.height[u]:
            stack.pop()
        if not stack:
            return
        p = stack[-1]
        while p.left.high is not None and p.left.high[1] == u:
            p.left.high = ref.get(p.left.high)
        if p.left.high is None and p.left.low is not None:
            ref[p.left.low] = p.right.low
            p.left.low = None
        while p.right.high is not None and p.right.high[1] == u:
            p.right.high = ref.get(p.right.high)
        if p.right.high is None and p.right.low is not None:
            ref[p.right.low] = p.left.low
            p.right.low = None
