"""Finite graphs, circular stable sets, and dihedral group actions.

Vertex subsets of Z_m are kept as bitmasks, so disjointness and cyclic
stability are single AND operations.  Graphs store one adjacency bitmask
per vertex; loops are permitted unless an operation says otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class CircularSet:
    """A subset of Z_m stored as a bitmask (bit j set iff j is a member)."""

    m: int
    mask: int

    @classmethod
    def from_members(cls, m: int, members: Iterable[int]) -> "CircularSet":
        mask = 0
        for j in members:
            mask |= 1 << (j % m)
        return cls(m, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, j: int) -> bool:
        return bool(self.mask >> (j % self.m) & 1)

    def is_stable(self) -> bool:
        """No two cyclically consecutive members (wraparound pair included)."""
        rotated = (self.mask << 1 | self.mask >> (self.m - 1)) & ((1 << self.m) - 1)
        return self.mask & rotated == 0

    def disjoint(self, other: "CircularSet") -> bool:
        return self.mask & other.mask == 0

    def __str__(self) -> str:
        return "{" + ",".join(str(j) for j in self.members()) + "}"


@dataclass(frozen=True)
class DihedralElement:
    """sigma^shift rho^flip in D_{2m}, with rho sigma = sigma^{-1} rho."""

    m: int
    shift: int
    flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "shift", self.shift % self.m)

    @classmethod
    def identity(cls, m: int) -> "DihedralElement":
        return cls(m, 0, False)

    @classmethod
    def sigma(cls, m: int, power: int = 1) -> "DihedralElement":
        return cls(m, power, False)

    @classmethod
    def rho(cls, m: int) -> "DihedralElement":
        return cls(m, 0, True)

    def compose(self, other: "DihedralElement") -> "DihedralElement":
        """Group product self*other; acting by it applies self first."""
        if self.m != other.m:
            raise ValueError("modulus mismatch")
        sgn = -1 if self.flip else 1
        return DihedralElement(self.m, self.shift + sgn * other.shift,
                               self.flip ^ other.flip)

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        return self.compose(other)

    def inverse(self) -> "DihedralElement":
        if self.flip:
            return self
        return DihedralElement(self.m, -self.shift, False)

    def is_identity(self) -> bool:
        return self.shift == 0 and not self.flip

    def order(self) -> int:
        if self.flip:
            return 2
        if self.shift == 0:
            return 1
        from math import gcd
        return self.m // gcd(self.m, self.shift)


def position_map(m: int, shift: int, flip: bool) -> list[int]:
    """Where sigma^shift rho^flip sends each j of Z_m: to j + shift, negated if flip."""
    sign = -1 if flip else 1
    return [sign * (j + shift) % m for j in range(m)]


def dihedral_act(s: CircularSet, g: DihedralElement) -> CircularSet:
    """Right action on subsets of Z_m: S.sigma = {j+1}, S.rho = {-j}."""
    if s.m != g.m:
        raise ValueError("modulus mismatch: set lives in Z_%d, element in D_%d" % (s.m, 2 * g.m))
    return CircularSet(s.m, permute_mask(s.mask, position_map(s.m, g.shift, g.flip)))


def generate_subgroup(generators: Sequence[DihedralElement]) -> list[DihedralElement]:
    """All elements of the subgroup generated in D_{2m}, identity first."""
    if not generators:
        raise ValueError("need at least one generator")
    m = generators[0].m
    seen = {(0, False)}
    frontier = [DihedralElement.identity(m)]
    elems = [DihedralElement.identity(m)]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                f = e * g
                key = (f.shift, f.flip)
                if key not in seen:
                    seen.add(key)
                    elems.append(f)
                    nxt.append(f)
        frontier = nxt
    elems.sort(key=lambda e: (e.flip, e.shift))
    return elems


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Finite graph as adjacency bitmask rows; loops allowed.

    adjacency[i] has bit j set iff (i, j) is an edge.  The relation is
    kept symmetric by construction.  labels, when present, attach a
    CircularSet to each vertex and are injective.
    """

    adjacency: tuple[int, ...]
    labels: Optional[tuple[CircularSet, ...]] = None

    def __post_init__(self):
        n = len(self.adjacency)
        for i in range(n):
            for j in range(i + 1, n):
                if (self.adjacency[i] >> j & 1) != (self.adjacency[j] >> i & 1):
                    raise ValueError("adjacency not symmetric at (%d,%d)" % (i, j))
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValueError("labels length != vertex count")
            if len({(l.m, l.mask) for l in self.labels}) != n:
                raise ValueError("labels not injective")

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def neighbours(self, i: int) -> tuple[int, ...]:
        row = self.adjacency[i]
        return tuple(j for j in range(self.n) if row >> j & 1)

    def edges(self, include_loops: bool = True) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            row = self.adjacency[i]
            for j in range(i, self.n):
                if row >> j & 1:
                    if i == j and not include_loops:
                        continue
                    out.append((i, j))
        return out

    def is_loopless(self) -> bool:
        return all(not (self.adjacency[i] >> i & 1) for i in range(self.n))

    def has_loop(self, i: int) -> bool:
        return bool(self.adjacency[i] >> i & 1)

    def looped_vertices(self) -> list[int]:
        return [i for i in range(self.n) if self.has_loop(i)]

    def label_index(self) -> dict[tuple[int, int], int]:
        if self.labels is None:
            raise ValueError("graph carries no labels")
        return {(l.m, l.mask): i for i, l in enumerate(self.labels)}

    def delete_vertex(self, v: int) -> "Graph":
        keep = [i for i in range(self.n) if i != v]
        return self.induced_subgraph(keep)

    def induced_subgraph(self, keep: Sequence[int]) -> "Graph":
        pos = {v: i for i, v in enumerate(keep)}
        adj = [0] * len(keep)
        for v in keep:
            row = self.adjacency[v]
            for w in keep:
                if row >> w & 1:
                    adj[pos[v]] |= 1 << pos[w]
        labels = tuple(self.labels[v] for v in keep) if self.labels else None
        return Graph(tuple(adj), labels)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     labels: Optional[Sequence[CircularSet]] = None) -> Graph:
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(tuple(adj), tuple(labels) if labels is not None else None)


def complete_graph(s: int) -> Graph:
    return graph_from_edges(s, [(i, j) for i in range(s) for j in range(i + 1, s)])


def k2() -> Graph:
    return complete_graph(2)


# ---------------------------------------------------------------------------
# stable sets and Kneser graphs


def enumerate_stable_sets(n: int, m: int) -> list[CircularSet]:
    """All stable n-subsets of Z_m, in lexicographic member order.

    Stable means no two cyclically consecutive elements.  The sets with 0
    are 0 plus a gapped (n-1)-subset of [2, m-2], the others a gapped
    n-subset of [1, m-1], each run listed by _gapped_masks.  Returns []
    when m < 2n (no such set fits).
    """
    if n < 1:
        raise ValueError("stable n-subsets of Z_m need n >= 1, got (n, m) = (%d, %d)"
                         % (n, m))
    if m < 2 * n:
        return []
    # every set containing 0 precedes every set avoiding it
    return ([CircularSet(m, 1 | rest) for rest in _gapped_masks(2, m - 2, n - 1, {})]
            + [CircularSet(m, mask) for mask in _gapped_masks(1, m - 1, n, {})])


def _gapped_masks(start: int, limit: int, need: int, memo: dict) -> list[int]:
    """Masks of the need-subsets of [start, limit] with gaps >= 2, lexicographically.

    Each least member j goes before every mask of the state (j + 2, need - 1).
    memo, one per limit, keeps each (start, need) state's list: built once.
    """
    if (start, need) not in memo:
        # prune: `need` elements with pairwise gaps >= 2 must fit
        memo[start, need] = [1 << j | rest for j in range(start, limit - 2 * need + 3)
                             for rest in _gapped_masks(j + 2, limit, need - 1, memo)
                             ] if need else [0]
    return memo[start, need]


def kneser_graph(n: int, k: int) -> Graph:
    """KG_{n,k}: n-subsets of Z_{2n+k}, adjacent iff disjoint."""
    if n < 1 or k < 0:
        raise ValueError("KG_{n,k} needs n >= 1 and k >= 0, got (n, k) = (%d, %d)"
                         % (n, k))
    m = 2 * n + k
    labels = [CircularSet.from_members(m, c)
              for c in itertools.combinations(range(m), n)]
    return _disjointness_graph(labels)


def stable_kneser_graph(n: int, k: int) -> Graph:
    """SG_{n,k}: stable n-subsets of Z_{2n+k}, adjacent iff disjoint."""
    if n < 1 or k < 0:
        raise ValueError("SG_{n,k} needs n >= 1 and k >= 0, got (n, k) = (%d, %d)"
                         % (n, k))
    m = 2 * n + k
    return _disjointness_graph(enumerate_stable_sets(n, m))


def _disjointness_graph(labels: Sequence[CircularSet]) -> Graph:
    nv = len(labels)
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            if labels[i].mask & labels[j].mask == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(tuple(adj), tuple(labels))


# ---------------------------------------------------------------------------
# exact chromatic number


def chromatic_number(g: Graph, return_colouring: bool = False):
    """Exact chromatic number by branch and bound.

    Greedy colouring in decreasing degree order for the upper bound, a
    greedy clique for the lower bound, then each colour count between them
    decided by `_k_colouring`.  The witness is the greedy colouring unless
    the search finds fewer colours.  A loop makes the graph uncolourable
    and raises.
    """
    if not g.is_loopless():
        raise ValueError("graph has a loop; chromatic number undefined")
    n = g.n
    if n == 0:
        return (0, []) if return_colouring else 0

    order = _degree_order(g)

    # greedy upper bound along `order`
    greedy = [-1] * n
    for v in order:
        used = {greedy[w] for w in g.neighbours(v) if greedy[w] >= 0}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    ub = max(greedy) + 1 if n else 0

    lb = _clique_lower_bound(g, order)

    best = greedy[:]
    chi = ub
    for kcol in range(lb, ub):
        col = _k_colouring(g, kcol)
        if col is not None:
            chi = kcol
            best = col
            break
    if return_colouring:
        return chi, best
    return chi


def _degree_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """The bitmask with bit perm[j] set for each bit j of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _clique_lower_bound(g: Graph, order: Sequence[int]) -> int:
    best = 0
    for v0 in order[: min(len(order), 12)]:
        clique = [v0]
        cand = g.adjacency[v0]
        while cand:
            pick = -1
            for v in order:
                if cand >> v & 1:
                    pick = v
                    break
            if pick < 0:
                break
            clique.append(pick)
            cand &= g.adjacency[pick]
        best = max(best, len(clique))
    return max(best, 1)


def _k_colouring(g: Graph, kcol: int) -> Optional[list[int]]:
    """Exact k-colourability by maximal independent colour classes (Lawler).

    Some colouring gives the class of any chosen vertex v a maximal
    independent set (move vertices into it until it is maximal), so the
    search picks v of highest degree in what is left (lowest index on
    ties), tries every maximal independent set containing v as one class,
    listed by pivoted Bron-Kerbosch (Tomita et al. 2006) on the complement,
    and colours the rest with one colour fewer.  Two colours are a
    breadth-first 2-colouring.  Returns a proper colouring with colours
    < kcol, or None.
    """
    adj = g.adjacency

    def rec(mask: int, k: int) -> Optional[list[int]]:
        if not mask:
            return []
        if k <= 1:
            independent = k == 1 and all(adj[v] & mask == 0 for v in _bits(mask))
            return [mask] if independent else None
        if k == 2:
            return _two_colouring(adj, mask)
        v = max(_bits(mask), key=lambda u: ((adj[u] & mask).bit_count(), -u))

        def extend(chosen: int, cand: int, done: int) -> Optional[list[int]]:
            # cand: vertices that may still join `chosen`; done: vertices
            # already branched on, so a set that could take one of them is
            # either not maximal or was tried before
            if not cand:
                if done:
                    return None
                rest = rec(mask & ~chosen, k - 1)
                return None if rest is None else [chosen] + rest
            # pivot u: branch only on u and its neighbours in cand, since a
            # maximal set without them would take u
            u = min(_bits(cand | done),
                    key=lambda w: (cand & (adj[w] | 1 << w)).bit_count())
            branch = cand & (adj[u] | 1 << u)
            while branch:
                low = branch & -branch
                outside = ~(adj[low.bit_length() - 1] | low)
                found = extend(chosen | low, cand & outside, done & outside)
                if found is not None:
                    return found
                cand ^= low
                done |= low
                branch ^= low
            return None

        bit = 1 << v
        return extend(bit, mask & ~adj[v] & ~bit, 0)

    classes = rec((1 << g.n) - 1, kcol)
    if classes is None:
        return None
    colour = [-1] * g.n
    for c, cls in enumerate(classes):
        for v in _bits(cls):
            colour[v] = c
    return colour


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _two_colouring(adj: Sequence[int], mask: int) -> Optional[list[int]]:
    """The two sides of G[mask] by breadth-first search, or None if not bipartite."""
    sides = [0, 0]
    rest = mask
    while rest:
        frontier = rest & -rest
        same = other = 0
        while frontier:
            same |= frontier
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            reach &= mask
            if reach & same:
                return None
            frontier = reach & ~other
            same, other = other, same
        sides[0] |= same
        sides[1] |= other
        rest &= ~(same | other)
    return sides


def is_valid_colouring(g: Graph, colouring: Sequence[int]) -> bool:
    return all(colouring[i] != colouring[j]
               for i, j in g.edges(include_loops=False)) and \
        all(colouring[v] >= 0 for v in range(g.n))


def vertex_criticality_check(g: Graph, chi: Optional[int] = None,
                             automorphisms: Sequence[Sequence[int]] = ()) -> bool:
    """True iff deleting any single vertex lowers the chromatic number.

    `chi` must be the chromatic number of g; when None it is computed with
    `chromatic_number`.  Each entry of `automorphisms` is a vertex
    permutation (perm[i] is the image of vertex i) and must map adjacency
    rows onto adjacency rows; anything else raises ValueError before any
    colouring search.  Deleting v or its image under an automorphism gives
    isomorphic graphs, so one (chi - 1)-colouring search per orbit of the
    generated group decides the answer exactly.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_loopless():
        raise ValueError("graph has a loop; chromatic number undefined")
    n = g.n
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for perm in automorphisms:
        if sorted(perm) != list(range(n)):
            raise ValueError("automorphism is not a permutation of the %d vertices" % n)
        for i, row in enumerate(g.adjacency):
            if permute_mask(row, perm) != g.adjacency[perm[i]]:
                raise ValueError("permutation does not preserve the edges at vertex %d" % i)
        for i in range(n):
            parent[find(i)] = find(perm[i])
    if chi is None:
        chi = chromatic_number(g)
    elif chi < 1:
        raise ValueError("chi = %d cannot be the chromatic number of a nonempty graph" % chi)
    for v in range(n):
        if find(v) != v:
            continue
        h = g.delete_vertex(v)
        col = _k_colouring(h, chi - 1)
        if col is None:
            return False
        if not is_valid_colouring(h, col):
            raise RuntimeError("colouring search returned an improper colouring")
    return True


# ---------------------------------------------------------------------------
# group actions on labelled graphs


def vertex_permutation(g: Graph, elem: DihedralElement) -> list[int]:
    """The vertex permutation induced by a dihedral element on labels.

    Raises if some image label is not a vertex or adjacency is broken.
    """
    index = g.label_index()
    pos = position_map(elem.m, elem.shift, elem.flip)
    perm = []
    for lab in g.labels:
        if lab.m != elem.m:
            raise ValueError("modulus mismatch: label %s lives in Z_%d, element in D_%d"
                             % (lab, lab.m, 2 * elem.m))
        key = (lab.m, permute_mask(lab.mask, pos))
        if key not in index:
            raise ValueError("action does not preserve the vertex set at %s" % lab)
        perm.append(index[key])
    for i, j in g.edges():
        if not g.has_edge(perm[i], perm[j]):
            raise ValueError("action does not preserve the edge set")
    return perm


def free_action_check(g: Graph, generators: Sequence[DihedralElement]):
    """Freeness witnesses per the orbit criterion.

    For each non-identity gamma of the generated subgroup, search for a
    vertex v and exponent k with (v, v.gamma^k) an edge.  Returns a dict
    mapping (shift, flip) -> (vertex index, k) or None when no witness
    exists (the action on some Hom(T, G) then fails to be free).
    """
    if not g.is_loopless():
        raise ValueError("graph must be loopless")
    group = generate_subgroup(generators)
    result = {}
    for gamma in group:
        if gamma.is_identity():
            continue
        witness = None
        step = vertex_permutation(g, gamma)
        perm = step
        for k in range(1, gamma.order()):
            for v in range(g.n):
                if g.has_edge(v, perm[v]):
                    witness = (v, k)
                    break
            if witness:
                break
            perm = [step[p] for p in perm]   # gamma^k -> gamma^(k+1)
        result[(gamma.shift, gamma.flip)] = witness
    return result


def automorphism_group_order(g: Graph, max_vertices: int = 16) -> int:
    """|Aut(G)| by backtracking over degree-compatible bijections.

    Refuses graphs with more than `max_vertices` vertices rather than
    fall back to heuristics.
    """
    n = g.n
    if n > max_vertices:
        raise ValueError("too large: %d vertices (limit %d)" % (n, max_vertices))
    if n == 0:
        return 1
    sig = [(g.degree(v), g.has_loop(v)) for v in range(n)]
    count = 0
    image = [-1] * n
    used = [False] * n

    def rec(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for t in range(n):
            if used[t] or sig[t] != sig[v]:
                continue
            ok = True
            for w in range(v):
                if g.has_edge(v, w) != g.has_edge(t, image[w]):
                    ok = False
                    break
            if ok and g.has_edge(v, v) == g.has_edge(t, t):
                image[v] = t
                used[t] = True
                rec(v + 1)
                used[t] = False
                image[v] = -1

    rec(0)
    return count
