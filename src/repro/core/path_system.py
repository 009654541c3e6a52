"""Path systems (Definition 2.1).

A path system ``P = {P(s, t)}`` assigns to every ordered vertex pair a
finite set of simple (s, t)-paths.  Semi-oblivious routing *is* a path
system: the candidate paths are fixed obliviously, only the rates over
them adapt to the demand.

``PathSystem`` stores paths canonically (tuples of vertices), validates
them against the network, and exposes the sparsity measures used by the
paper: plain α-sparsity and (α + cut_G)-sparsity.  It also derives, once
per installed path, the network edge indices each path traverses
(:meth:`PathSystem.path_edge_indices`), which every Stage-4 path LP
reads instead of re-walking the paths.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import PathError, RoutingError
from repro.graphs.network import Network, Path, Vertex

Pair = Tuple[Vertex, Vertex]


class PathSystem:
    """A collection of candidate simple paths per ordered vertex pair.

    Parameters
    ----------
    network:
        The underlying network; every stored path is validated against it.
    paths:
        Optional initial mapping ``(s, t) -> iterable of paths``.

    The per-pair edge-index lists behind :meth:`path_edge_indices` are
    derived state: filled lazily on first use, dropped for a pair when
    :meth:`add_path` extends it, and left out of pickles (filled, they
    grow a pickled semi-oblivious engine by 30% on hypercube(3) and 70%
    on torus(6)); a receiver re-derives them on its first path LP.
    """

    def __init__(
        self,
        network: Network,
        paths: Optional[Mapping[Pair, Iterable[Sequence[Vertex]]]] = None,
    ) -> None:
        self._network = network
        self._paths: Dict[Pair, List[Path]] = {}
        self._edge_indices: Dict[Pair, List[List[int]]] = {}
        if paths:
            for (source, target), candidates in paths.items():
                for path in candidates:
                    self.add_path(source, target, path)

    @property
    def network(self) -> Network:
        return self._network

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_edge_indices"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._edge_indices = {}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_path(self, source: Vertex, target: Vertex, path: Sequence[Vertex]) -> bool:
        """Add ``path`` to ``P(source, target)``; returns False if already present."""
        if source == target:
            raise PathError("path systems do not store paths from a vertex to itself")
        canonical = self._network.validate_path(path, source=source, target=target)
        bucket = self._paths.setdefault((source, target), [])
        if canonical in bucket:
            return False
        bucket.append(canonical)
        self._edge_indices.pop((source, target), None)
        return True

    def add_paths(self, source: Vertex, target: Vertex, paths: Iterable[Sequence[Vertex]]) -> int:
        """Add several paths; returns the number of new paths added."""
        added = 0
        for path in paths:
            if self.add_path(source, target, path):
                added += 1
        return added

    def merge(self, other: "PathSystem") -> "PathSystem":
        """Union of two path systems over the same network (Section 7 uses this)."""
        if other._network is not self._network and other._network.name != self._network.name:
            # Allow equal-topology merges built from distinct Network objects.
            if set(other._network.vertices) != set(self._network.vertices):
                raise RoutingError("cannot merge path systems over different networks")
        merged = PathSystem(self._network)
        for (source, target), paths in self._paths.items():
            merged.add_paths(source, target, paths)
        for (source, target), paths in other._paths.items():
            merged.add_paths(source, target, paths)
        return merged

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def paths(self, source: Vertex, target: Vertex) -> List[Path]:
        """The candidate paths ``P(source, target)`` (empty list when none)."""
        return list(self._paths.get((source, target), []))

    def path_edge_indices(self, source: Vertex, target: Vertex) -> List[List[int]]:
        """Network edge indices of every path in ``P(source, target)``, in order.

        Derived once per pair and shared by every caller: treat the
        returned lists as read-only.
        """
        pair = (source, target)
        indices = self._edge_indices.get(pair)
        if indices is None:
            edge_indices = self._network.path_edge_indices
            indices = [edge_indices(path) for path in self._paths.get(pair, ())]
            self._edge_indices[pair] = indices
        return indices

    def pairs(self) -> List[Pair]:
        """All pairs with at least one candidate path."""
        return list(self._paths.keys())

    def has_pair(self, source: Vertex, target: Vertex) -> bool:
        return (source, target) in self._paths

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._paths

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def num_paths(self) -> int:
        """Total number of stored paths across all pairs."""
        return sum(len(paths) for paths in self._paths.values())

    def items(self) -> Iterator[Tuple[Pair, List[Path]]]:
        for pair, paths in self._paths.items():
            yield pair, list(paths)

    # ------------------------------------------------------------------ #
    # Sparsity (Definition 2.1)
    # ------------------------------------------------------------------ #
    def sparsity(self) -> int:
        """``max_{s,t} |P(s, t)|`` — the plain sparsity α."""
        if not self._paths:
            return 0
        return max(len(paths) for paths in self._paths.values())

    def is_alpha_sparse(self, alpha: int) -> bool:
        """True when every pair has at most ``alpha`` candidate paths."""
        return self.sparsity() <= alpha

    def is_alpha_plus_cut_sparse(
        self,
        alpha: int,
        cut_oracle: Callable[[Vertex, Vertex], float],
    ) -> bool:
        """True when ``|P(s, t)| <= alpha + cut_G(s, t)`` for every pair."""
        for (source, target), paths in self._paths.items():
            if len(paths) > alpha + cut_oracle(source, target) + 1e-9:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #
    def max_hops(self) -> int:
        """The longest candidate path (dilation upper bound of the system)."""
        longest = 0
        for paths in self._paths.values():
            for path in paths:
                longest = max(longest, len(path) - 1)
        return longest

    def restricted_to_pairs(self, pairs: Iterable[Pair]) -> "PathSystem":
        """A new path system containing only the requested pairs."""
        wanted = set(pairs)
        restricted = PathSystem(self._network)
        for pair, paths in self._paths.items():
            if pair in wanted:
                restricted.add_paths(pair[0], pair[1], paths)
        return restricted

    def without_edge(self, u: Vertex, v: Vertex) -> "PathSystem":
        """A new path system dropping every candidate path through edge {u, v}.

        This is the elementary step of the Lemma 5.6 deletion process.
        """
        from repro.graphs.network import edge_key, path_edges

        banned = edge_key(u, v)
        filtered = PathSystem(self._network)
        for (source, target), paths in self._paths.items():
            kept = [path for path in paths if banned not in path_edges(path)]
            if kept:
                filtered.add_paths(source, target, kept)
        return filtered

    def covers(self, pairs: Iterable[Pair]) -> bool:
        """True when every listed pair has at least one candidate path."""
        return all(pair in self._paths and self._paths[pair] for pair in pairs)

    def __repr__(self) -> str:
        return (
            f"PathSystem(pairs={len(self._paths)}, paths={self.num_paths()}, "
            f"sparsity={self.sparsity()})"
        )


__all__ = ["PathSystem", "Pair"]
