"""Rectilinear Steiner tree construction for net topology generation.

Both the global router and the DAC-2012 baseline need a net topology: the
global router to decide which 2-pin connections to route on the GCell grid,
the baseline because it decomposes every multi-pin net into independent
2-pin connections (which is precisely what causes its stitch blow-up).

The implementation provides:

* :func:`rectilinear_mst` -- Prim's algorithm under the Manhattan metric,
* :func:`mst_length` -- the same tree's length, without building edges,
* :func:`hanan_steiner_points` -- candidate Steiner points on the Hanan grid,
* :func:`build_steiner_tree` -- iterated 1-Steiner heuristic: greedily insert
  the Hanan point that reduces the MST length most, until no improvement.

The 1-Steiner heuristic is the classic Kahng/Robins approach and is accurate
enough for topology generation (it is not the wirelength bottleneck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.geometry import Point


@dataclass
class SteinerTree:
    """A tree over terminal and Steiner points under the Manhattan metric."""

    terminals: List[Point]
    steiner_points: List[Point] = field(default_factory=list)
    edges: List[Tuple[Point, Point]] = field(default_factory=list)

    @property
    def points(self) -> List[Point]:
        """Return terminals followed by Steiner points."""
        return list(self.terminals) + list(self.steiner_points)

    def length(self) -> int:
        """Return the total Manhattan length of the tree edges."""
        return sum(a.manhattan_distance(b) for a, b in self.edges)

    def two_pin_connections(self) -> List[Tuple[Point, Point]]:
        """Return the tree edges as a list of 2-pin connections."""
        return list(self.edges)

    def degree_of(self, point: Point) -> int:
        """Return the number of tree edges incident to *point*."""
        return sum(1 for a, b in self.edges if a == point or b == point)

    def is_connected(self) -> bool:
        """Return ``True`` when the edges span every terminal."""
        if not self.terminals:
            return True
        if not self.edges:
            return len(set(self.terminals)) <= 1
        adjacency: Dict[Point, Set[Point]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        seen: Set[Point] = set()
        stack = [self.terminals[0]]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        return all(terminal in seen for terminal in set(self.terminals))


def rectilinear_mst(points: Sequence[Point]) -> List[Tuple[Point, Point]]:
    """Return the edges of a minimum spanning tree under the Manhattan metric.

    Uses Prim's algorithm in ``O(n^2)`` with ``(distance, x, y)`` tie-breaks.
    :func:`build_steiner_tree` calls it at most twice per net, for the final
    edges; the 1-Steiner candidate scoring only needs lengths and uses
    :func:`mst_length`.
    """
    unique = list(dict.fromkeys(points))
    if len(unique) <= 1:
        return []
    in_tree = {unique[0]}
    remaining = set(unique[1:])
    best_link: Dict[Point, Tuple[int, Point]] = {
        p: (unique[0].manhattan_distance(p), unique[0]) for p in remaining
    }
    edges: List[Tuple[Point, Point]] = []
    while remaining:
        nearest = min(remaining, key=lambda p: (best_link[p][0], p.x, p.y))
        distance, anchor = best_link[nearest]
        edges.append((anchor, nearest))
        in_tree.add(nearest)
        remaining.discard(nearest)
        del best_link[nearest]
        for p in remaining:
            candidate = nearest.manhattan_distance(p)
            if candidate < best_link[p][0]:
                best_link[p] = (candidate, nearest)
    return edges


def mst_length(points: Sequence[Point]) -> int:
    """Return the Manhattan MST length of *points*.

    Integer-only Prim over ``(x, y)`` tuples that builds no edge list.  An
    MST's total weight does not depend on tie-breaking, so this equals the
    summed length of :func:`rectilinear_mst`'s edges.
    """
    remaining = list(dict.fromkeys((p.x, p.y) for p in points))
    if len(remaining) <= 1:
        return 0
    x0, y0 = remaining.pop()
    best = [abs(x - x0) + abs(y - y0) for x, y in remaining]
    total = 0
    while remaining:
        index = best.index(min(best))
        total += best[index]
        nx, ny = remaining[index]
        remaining[index] = remaining[-1]
        best[index] = best[-1]
        remaining.pop()
        best.pop()
        for i, (x, y) in enumerate(remaining):
            distance = abs(x - nx) + abs(y - ny)
            if distance < best[i]:
                best[i] = distance
    return total


def hanan_steiner_points(points: Sequence[Point]) -> List[Point]:
    """Return the Hanan grid points that are not already terminals.

    The Hanan grid is the set of intersections of horizontal and vertical
    lines through the terminals; an optimal rectilinear Steiner tree only
    needs Steiner points from this grid.
    """
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    terminals = set(points)
    return [Point(x, y) for x in xs for y in ys if Point(x, y) not in terminals]


def build_steiner_tree(points: Sequence[Point], max_steiner_points: int = 16) -> SteinerTree:
    """Build a rectilinear Steiner tree with the iterated 1-Steiner heuristic.

    Parameters
    ----------
    points:
        The net terminals (pin centres).
    max_steiner_points:
        Upper bound on inserted Steiner points; net degrees here are small so
        the default is never reached in practice, but it guards the worst case.
    """
    terminals = list(dict.fromkeys(points))
    if len(terminals) <= 1:
        return SteinerTree(terminals=terminals, edges=[])
    current_points: List[Point] = list(terminals)
    steiner: List[Point] = []
    current_length = mst_length(current_points)
    for _ in range(max_steiner_points):
        candidates = hanan_steiner_points(current_points)
        best_gain = 0
        best_candidate = None
        for candidate in candidates:
            new_length = mst_length(current_points + [candidate])
            gain = current_length - new_length
            if gain > best_gain:
                best_gain = gain
                best_candidate = candidate
        if best_candidate is None:
            break
        steiner.append(best_candidate)
        current_points.append(best_candidate)
        current_length -= best_gain
    edges = rectilinear_mst(current_points)
    # Drop Steiner points of degree <= 1: they do not help the tree.
    tree = SteinerTree(terminals=terminals, steiner_points=steiner, edges=edges)
    pruned = [p for p in steiner if tree.degree_of(p) >= 2]
    if len(pruned) != len(steiner):
        edges = rectilinear_mst(terminals + pruned)
        tree = SteinerTree(terminals=terminals, steiner_points=pruned, edges=edges)
    return tree
