"""Graph carriers: edge-labeled multigraphs, bipartite graphs, digraphs.

These are the raw materials for graphic and transversal matroids, for the
spanning-tree and 2-factor problems, and for the reduction outputs.  All
are immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .core import GroundSet, Record, is_int_list, is_string_list


# The set bit positions of each byte value, for walking a mask byte by byte.
_BYTE_BITS = tuple(tuple(b for b in range(8) if x >> b & 1) for x in range(256))


def union_find(
    vertex_count: int, edges: Sequence[tuple[int, int, str]], mask: int, forest: bool = False
) -> int:
    """Connected components of the graph on ``vertex_count`` vertices with the
    ``(u, v, label)`` edges (indices into ``edges``) selected by ``mask``.

    The one union-find pass of the package.  It stops as soon as one
    component is left; with ``forest`` it returns -1 at the first edge
    that closes a cycle, self-loops included.  The mask is read a byte at
    a time, which skips empty bytes whole and, unlike peeling off the
    lowest set bit, costs no big-integer operation per edge.
    """
    parent = list(range(vertex_count))
    comps = vertex_count
    for j, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        if not byte:
            continue
        for b in _BYTE_BITS[byte]:
            u, v, _ = edges[8 * j + b]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[u] = v
                comps -= 1
                if comps == 1:
                    return -1 if forest and mask >> 8 * j + b + 1 else 1
            elif forest:
                return -1
    return comps


def _endpoints(value, what: str) -> list:
    """``value`` if it is a JSON list of arrays that each start with two
    integer endpoints; the graph's ``build`` unpacks them."""
    if not isinstance(value, list) or not all(
            isinstance(e, list) and is_int_list(e[:2], 2) for e in value):
        raise ValueError(f"{what} must be a list of arrays with two integer endpoints")
    return value


class MultiGraph(Record):
    """An undirected multigraph with labeled edges.

    Parallel edges and self-loops are permitted; edge labels are unique
    and double as the ground-set labels of the graphic matroid.
    """

    __slots__ = {"vertex_count": "int", "edges": "tuple[tuple[int, int, str], ...]"}

    @staticmethod
    def build(vertex_count: int, edges: Iterable) -> "MultiGraph":
        """Accept (u, v) or (u, v, label) items; unlabeled edges get e{i}."""
        norm = []
        for i, e in enumerate(edges):
            if len(e) == 2:
                u, v = e
                label = f"e{i}"
            else:
                u, v, label = e
            norm.append((int(u), int(v), str(label)))
        return MultiGraph(vertex_count, tuple(norm))

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v, label in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge {label} endpoint out of range")
        labels = [label for _, _, label in self.edges]
        if len(set(labels)) != len(labels):
            raise ValueError("edge labels must be unique")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def ground_set(self) -> GroundSet:
        return GroundSet(len(self.edges), tuple(label for _, _, label in self.edges))

    def endpoints(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v, _ in self.edges)

    def is_forest_mask(self, mask: int) -> bool:
        """True iff the edges selected by ``mask`` form a forest."""
        return union_find(self.vertex_count, self.edges, mask, forest=True) >= 0

    def forest_rank_mask(self, mask: int) -> int:
        """Edge count of a spanning forest of the edges selected by ``mask``."""
        return self.vertex_count - union_find(self.vertex_count, self.edges, mask)

    def incidence_vectors(self) -> list[int]:
        """Each edge's vertex-incidence vector over GF(2), bits u and v; a
        self-loop's is zero.  Edges form a forest iff their vectors are
        independent."""
        return [1 << u ^ 1 << v for u, v, _ in self.edges]

    def cut_labels(self) -> list[int]:
        """Each edge's label in the cycle space over GF(2), from one BFS
        spanning forest: a non-tree edge f has bit f, a tree edge the bits
        of the non-tree edges whose fundamental cycle uses it.

        Removing edges leaves the components as they were iff the edges'
        labels are independent: they are independent in the cographic
        matroid.  The tree edge above vertex x lies on the cycle of f iff
        exactly one end of f is below x, so its label is the XOR, over
        the vertices below x, of the bits of their non-tree edges.
        """
        n, edges = self.vertex_count, self.edges
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for f, (u, v, _) in enumerate(edges):
            adjacency[u].append((v, f))
            adjacency[v].append((u, f))
        up = [-1] * n  # the tree edge from each vertex to its parent
        order: list[int] = []  # vertices, each after its parent
        seen = [False] * n
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            queue = [root]
            for x in queue:
                for y, f in adjacency[x]:
                    if not seen[y]:
                        seen[y] = True
                        up[y] = f
                        queue.append(y)
            order += queue
        tree = set(up)
        labels = [0] * len(edges)
        below = [0] * n  # XOR of the non-tree bits at each vertex, then in its subtree
        for f, (u, v, _) in enumerate(edges):
            if f not in tree:
                labels[f] = 1 << f
                below[u] ^= 1 << f
                below[v] ^= 1 << f
        for x in reversed(order):
            f = up[x]
            if f >= 0:
                labels[f] = below[x]
                u, v, _ = edges[f]
                below[u ^ v ^ x] ^= below[x]
        return labels

    def component_count(self) -> int:
        """Connected components of the whole graph."""
        return union_find(self.vertex_count, self.edges, (1 << len(self.edges)) - 1)

    def is_connected(self) -> bool:
        return self.vertex_count <= 1 or self.component_count() == 1

    def to_json(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": [[u, v, label] for u, v, label in self.edges],
        }

    @staticmethod
    def from_json(data: dict) -> "MultiGraph":
        return MultiGraph.build(data["vertices"], _endpoints(data["edges"], "edges"))

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for u, v, label in self.edges:
            lines.append(f'  {u} -- {v} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


class BipartiteGraph(Record):
    """A bipartite graph (S, T; E) with E as (left, right) index pairs."""

    SCHEMA = "bipartite-graph/1"

    __slots__ = {"left": "GroundSet", "right": "GroundSet", "edges": "frozenset[tuple[int, int]]"}

    @staticmethod
    def build(
        n_left: int,
        n_right: int,
        edges: Iterable[tuple[int, int]],
        left_labels: Optional[Sequence[str]] = None,
        right_labels: Optional[Sequence[str]] = None,
    ) -> "BipartiteGraph":
        return BipartiteGraph(
            GroundSet(n_left, tuple(left_labels) if left_labels else None),
            GroundSet(n_right, tuple(right_labels) if right_labels else None),
            frozenset((int(s), int(t)) for s, t in edges),
        )

    def __post_init__(self) -> None:
        for s, t in self.edges:
            if not (0 <= s < self.left.size and 0 <= t < self.right.size):
                raise ValueError(f"edge ({s},{t}) out of range")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.left.size)]
        for s, t in sorted(self.edges):
            adj[s].append(t)
        return adj

    def right_degrees(self) -> list[int]:
        deg = [0] * self.right.size
        for _, t in self.edges:
            deg[t] += 1
        return deg

    def to_json(self) -> dict:
        """Side sizes and edges, and each side's vertex labels when it has them."""
        data: dict = {"left": self.left.size, "right": self.right.size}
        for key, side in (("left_labels", self.left), ("right_labels", self.right)):
            if side.labels is not None:
                data[key] = list(side.labels)
        data["edges"] = sorted([s, t] for s, t in self.edges)
        return data

    @staticmethod
    def from_json(data: dict) -> "BipartiteGraph":
        if not isinstance(data, dict):
            raise TypeError("bipartite graph must be a JSON object")
        labels = [data.get("left_labels"), data.get("right_labels")]
        if not all(side is None or is_string_list(side) for side in labels):
            raise ValueError("vertex labels must be a list of strings")
        edges = _endpoints(data["edges"], "edges")
        return BipartiteGraph.build(data["left"], data["right"], edges, *labels)

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{", "  rankdir=LR;"]
        for s in range(self.left.size):
            lines.append(f'  s{s} [label="{self.left.label(s)}", shape=box];')
        for t in range(self.right.size):
            lines.append(f'  t{t} [label="{self.right.label(t)}"];')
        for s, t in sorted(self.edges):
            lines.append(f"  s{s} -- t{t};")
        lines.append("}")
        return "\n".join(lines)


def augment(adj: Sequence[Sequence[int]], match_right: dict[int, int], s: int) -> bool:
    """One augmenting-path step of Kuhn's matching: try to match left vertex ``s``.

    ``match_right`` maps right -> left and grows by one pair when an
    augmenting path from ``s`` exists; otherwise it is left as it was and
    the result is False.  Deterministic: the adjacency is scanned in the
    given order, the path found depth-first with an explicit stack, so
    its length is not bounded by the recursion limit.  Calling it once
    per left vertex builds a maximum matching of those vertices.
    """
    row = adj[s]
    if row and row[0] not in match_right:  # the path's first step, taken without a search
        match_right[row[0]] = s
        return True
    seen: set[int] = set()
    stack = []  # (left, rest of its adjacency, right vertex it stepped to) per path level
    u, scan = s, iter(adj[s])
    while True:
        for t in scan:
            if t not in seen:
                break
        else:
            if not stack:
                return False
            u, scan, _ = stack.pop()
            continue
        seen.add(t)
        v = match_right.get(t)
        if v is None:
            # Flip the path: each left vertex on it takes its step.
            match_right[t] = u
            while stack:
                u, _, t = stack.pop()
                match_right[t] = u
            return True
        stack.append((u, scan, t))
        u, scan = v, iter(adj[v])


class Digraph(Record):
    """A loopless directed graph; arcs are (tail, head) pairs."""

    SCHEMA = "digraph/1"

    __slots__ = {"vertex_count": "int", "arcs": "tuple[tuple[int, int], ...]"}

    @staticmethod
    def build(vertex_count: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(vertex_count, tuple((int(u), int(v)) for u, v in arcs))

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.arcs:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"arc ({u},{v}) out of range")
            if u == v:
                # A self-loop can never lie on an even dicycle.
                raise ValueError(f"self-loop at {u} rejected")

    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)

    def out_neighbors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in sorted(set(self.arcs)):
            out[u].append(v)
        return out

    def to_json(self) -> dict:
        return {"vertices": self.vertex_count, "arcs": sorted([u, v] for u, v in set(self.arcs))}

    @staticmethod
    def from_json(data: dict) -> "Digraph":
        return Digraph.build(data["vertices"], _endpoints(data["arcs"], "arcs"))

    def to_dot(self, name: str = "D") -> str:
        lines = [f"digraph {name} {{"]
        for u, v in sorted(set(self.arcs)):
            lines.append(f"  {u} -> {v};")
        lines.append("}")
        return "\n".join(lines)


def two_factor_cycles(
    n_left: int, n_right: int, edges: Iterable[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """Decompose a bipartite 2-factor into cycles of edges.

    Every vertex must have degree exactly 2.  Each cycle is returned as an
    edge list; walks start at the smallest left vertex of the cycle and
    move toward its smaller-indexed right neighbor, so the decomposition
    is deterministic.
    """
    adj_l: list[list[int]] = [[] for _ in range(n_left)]
    adj_r: list[list[int]] = [[] for _ in range(n_right)]
    for s, t in sorted(edges):
        adj_l[s].append(t)
        adj_r[t].append(s)
    for s in range(n_left):
        if len(adj_l[s]) != 2:
            raise ValueError(f"left vertex {s} has degree {len(adj_l[s])}, not 2")
    for t in range(n_right):
        if len(adj_r[t]) != 2:
            raise ValueError(f"right vertex {t} has degree {len(adj_r[t])}, not 2")

    used: set[tuple[int, int]] = set()
    cycles = []
    for s0 in range(n_left):
        t0 = min(adj_l[s0])
        if (s0, t0) in used:
            continue
        cycle = []
        s, t = s0, t0
        while True:
            cycle.append((s, t))
            used.add((s, t))
            s2 = adj_r[t][0] if adj_r[t][1] == s else adj_r[t][1]
            cycle.append((s2, t))
            used.add((s2, t))
            t2 = adj_l[s2][0] if adj_l[s2][1] == t else adj_l[s2][1]
            s, t = s2, t2
            if s == s0 and t == t0:
                break
        cycles.append(cycle)
    return cycles
