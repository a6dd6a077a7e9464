"""Finite graphs, stable subsets of Z_m, and dihedral group actions.

A subset of Z_m is a plain int bitmask, bit j set iff j is a member, so
disjointness is a single AND and a dihedral element acts by permuting bits.
The vertex labels of SG_{n,k} and KG_{n,k} are such masks.  Graphs store one
adjacency bitmask per vertex; loops are permitted unless an operation says
otherwise.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np


class _Frozen:
    """Immutable record whose fields are its __slots__, set once by `_init` in slot
    order; records of one class are equal, and hash equal, when their fields are."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot set or delete %r of an immutable %s"
                             % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % field for field in zip(self.__slots__, self._values())))


class DihedralElement(_Frozen):
    """sigma^shift rho^flip in D_{2m}, with rho sigma = sigma^{-1} rho; shift is kept mod m."""

    __slots__ = ("m", "shift", "flip")

    def __init__(self, m: int, shift: int, flip: bool = False):
        self._init(m, shift % m, flip)

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


def dihedral_act(mask: int, g: DihedralElement) -> int:
    """Right action on subsets of Z_m as bitmasks: S.sigma = {j+1}, S.rho = {-j}."""
    _check_in_z(mask, g.m)
    return permute_mask(mask, position_map(g.m, g.shift, g.flip))


def _check_in_z(mask: int, m: int) -> None:
    if mask >> m:
        raise ValueError("modulus mismatch: set %s does not lie in Z_%d" % (render_set(mask), m))


def render_set(mask: int) -> str:
    """The members of a subset of Z_m, as in {0,2,5}."""
    return "{" + ",".join(map(str, set_bits(mask))) + "}"


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


class Graph(_Frozen):
    """Finite graph as adjacency bitmask rows; loops allowed.

    adjacency[i] has bit j set iff (i, j) is an edge.  The relation is
    kept symmetric by construction.  labels, when present, attach a
    subset of Z_m, as a bitmask, to each vertex and are injective.
    """

    __slots__ = ("adjacency", "labels")

    def __init__(self, adjacency: tuple[int, ...], labels: Optional[tuple[int, ...]] = None):
        self._init(adjacency, labels)
        self.__post_init__()

    def __post_init__(self):
        """The constructor's last step: refuse an asymmetric relation or bad labels."""
        n = len(self.adjacency)
        for i in range(n):
            for j in range(i + 1, n):
                if (self.adjacency[i] >> j & 1) != (self.adjacency[j] >> i & 1):
                    raise ValueError("adjacency not symmetric at (%d,%d)" % (i, j))
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValueError("labels length != vertex count")
            if len(set(self.labels)) != n:
                raise ValueError("labels not injective")

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def neighbours(self, i: int) -> tuple[int, ...]:
        return tuple(set_bits(self.adjacency[i]))

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (i, j) with i <= j, loops (i, i) included."""
        out = []
        for i in range(self.n):
            row = self.adjacency[i]
            for j in range(i, self.n):
                if row >> j & 1:
                    out.append((i, j))
        return out

    def is_loopless(self) -> bool:
        return all(not (self.adjacency[i] >> i & 1) for i in range(self.n))

    def has_loop(self, i: int) -> bool:
        return bool(self.adjacency[i] >> i & 1)

    def looped_vertices(self) -> list[int]:
        return [i for i in range(self.n) if self.has_loop(i)]

    def label_index(self) -> dict[int, int]:
        if self.labels is None:
            raise ValueError("graph carries no labels")
        return {lab: i for i, lab in enumerate(self.labels)}


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     labels: Optional[Sequence[int]] = None) -> Graph:
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


def enumerate_stable_sets(n: int, m: int, members: bool = False) -> list[int] | np.ndarray:
    """The bitmasks of all stable n-subsets of Z_m (no two members cyclically
    consecutive) in lexicographic member order, or with members=True their
    members, as the increasing rows of an intp array.

    With lo = 0 for the sets with 0, else 1, a set reads from lo as n tokens
    "member, non-member" and k = m - 2n lone non-members at token positions d,
    a k-subset of [0, n + k) without 0 when lo = 0.  The d in reverse
    lexicographic order list the sets in lexicographic order.
    """
    if n < 1:
        raise ValueError("stable n-subsets of Z_m need n >= 1, got (n, m) = (%d, %d)"
                         % (n, m))
    k = m - 2 * n
    if k < 0:
        return np.zeros((0, n), dtype=np.intp) if members else []
    first = comb(n + k - 1, k)   # the sets with 0, whose d avoid 0, come first
    if members:
        gaps = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n + k), k)),
                           np.intp, comb(n + k, k) * k).reshape(comb(n + k, k), k)[::-1]
        free = np.ones((first + len(gaps), n + k), dtype=bool)
        np.put_along_axis(free, np.concatenate([gaps[:first], gaps]), False, axis=1)
        rows = np.nonzero(free)[1].reshape(-1, n) + np.arange(n)
        rows[first:] += 1
        return rows
    gaps = list(itertools.combinations(range(n + k), k))[::-1]
    masks = []   # plain ints: the first numpy calls of a process cost graph-only runs ~1 ms
    for i, d in enumerate(gaps[:first] + gaps):
        mask = (4 ** n - 1) // 3   # members 0, 2, 4, ... before any lone non-member
        for j, p in enumerate(d):   # a lone non-member at token p moves later members up one
            mask += mask >> (2 * p - j) << (2 * p - j)
        masks.append(mask << (i >= first))
    return masks


def kneser_graph(n: int, k: int) -> Graph:
    """KG_{n,k}: n-subsets of Z_{2n+k}, adjacent iff disjoint."""
    if n < 1 or k < 0:
        raise ValueError("KG_{n,k} needs n >= 1 and k >= 0, got (n, k) = (%d, %d)"
                         % (n, k))
    m = 2 * n + k
    return _disjointness_graph([sum(1 << j for j in c)
                                for c in itertools.combinations(range(m), n)])


def stable_kneser_graph(n: int, k: int) -> Graph:
    """SG_{n,k}: stable n-subsets of Z_{2n+k}, adjacent iff disjoint."""
    if n < 1 or k < 0:
        raise ValueError("SG_{n,k} needs n >= 1 and k >= 0, got (n, k) = (%d, %d)"
                         % (n, k))
    m = 2 * n + k
    return _disjointness_graph(enumerate_stable_sets(n, m))


def _disjointness_graph(labels: Sequence[int]) -> Graph:
    nv = len(labels)
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            if labels[i] & labels[j] == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(tuple(adj), tuple(labels))


# ---------------------------------------------------------------------------
# exact chromatic number


def chromatic_number(g: Graph, return_colouring: bool = False):
    """Exact chromatic number with a witness colouring.

    A greedy colouring in decreasing degree order (lowest index on ties)
    bounds chi from above; `_k_colouring` then tries one colour fewer at a
    time, and the last count before the first failure is chi, so the only
    refutation is at chi - 1.  The witness is the greedy colouring unless
    the search finds fewer colours, in which case vertex v gets colour c
    when it lies in class c of the search at chi.  A loop makes the graph
    uncolourable and raises.
    """
    if not g.is_loopless():
        raise ValueError("graph has a loop; chromatic number undefined")
    n = g.n
    if n == 0:
        return (0, []) if return_colouring else 0

    best = [-1] * n
    for v in sorted(range(n), key=lambda u: (-g.degree(u), u)):
        used = {best[w] for w in g.neighbours(v) if best[w] >= 0}
        c = 0
        while c in used:
            c += 1
        best[v] = c
    chi = max(best) + 1

    full, classes = (1 << n) - 1, []
    while chi > 1 and (found := _k_colouring(g.adjacency, full, chi - 1)) is not None:
        chi, classes = chi - 1, found
    for c, cls in enumerate(classes):
        for v in set_bits(cls):
            best[v] = c
    if return_colouring:
        return chi, best
    return chi


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """The bitmask with bit perm[j] set for each bit j of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _k_colouring(adj: Sequence[int], mask: int, kcol: int) -> Optional[list[int]]:
    """At most kcol independent classes covering the vertices of mask, or None.

    Decides whether the subgraph on mask (adj holds the adjacency rows) is
    kcol-colourable by maximal independent colour classes (Lawler).  Some
    colouring gives the class of any chosen vertex v a maximal independent
    set (move vertices into it until it is maximal), so the search picks v
    of highest degree in mask (lowest index on ties), tries every maximal
    independent set containing v as one class, listed by pivoted
    Bron-Kerbosch (Tomita et al. 2006) on the complement, and colours the
    rest with one colour fewer.  Two colours are a breadth-first
    2-colouring.  The classes are disjoint bitmasks whose union is mask.
    """
    if not mask:
        return []
    if kcol <= 1:
        independent = kcol == 1 and all(adj[v] & mask == 0 for v in set_bits(mask))
        return [mask] if independent else None
    if kcol == 2:
        return _two_colouring(adj, mask)
    v = max(set_bits(mask), key=lambda u: ((adj[u] & mask).bit_count(), -u))
    closed = [row | 1 << i for i, row in enumerate(adj)]

    def extend(chosen: int, cand: int, done: int) -> Optional[list[int]]:
        # cand: vertices that may still join `chosen`; done: vertices
        # already branched on, so a set that could take one of them is
        # either not maximal or was tried before
        if not cand:
            if done:
                return None
            rest = _k_colouring(adj, mask & ~chosen, kcol - 1)
            return None if rest is None else [chosen] + rest
        # pivot u: branch only on u and its neighbours in cand, since a
        # maximal set without them would take u.  u is the lowest of the
        # vertices with fewest; the walk runs down from the top and stops
        # at 0, where any u leaves nothing to branch on
        least, pool = cand.bit_count() + 1, cand | done
        while pool and least:
            w = pool.bit_length() - 1
            score = (cand & closed[w]).bit_count()
            if score <= least:
                u, least = w, score
            pool ^= 1 << w
        branch = cand & closed[u]
        while branch:
            low = branch & -branch
            outside = ~closed[low.bit_length() - 1]
            found = extend(chosen | low, cand & outside, done & outside)
            if found is not None:
                return found
            cand ^= low
            done |= low
            branch ^= low
        return None

    return extend(1 << v, mask & ~closed[v], 0)


def set_bits(mask: int) -> list[int]:
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
            while frontier:
                v = frontier.bit_length() - 1
                reach |= adj[v]
                frontier ^= 1 << v
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
    """True iff every colour is >= 0 and every edge has two colours; a loop never does."""
    return all(colouring[i] != colouring[j] for i, j in g.edges()) and \
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
    generated group decides the answer exactly.  Each search runs
    `_k_colouring` on the mask of every vertex but the orbit's union-find
    root, the vertex its merges end at (not in general its least one).
    Classes that are not at most chi - 1 disjoint independent sets covering
    that mask raise RuntimeError.
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
        _check_automorphism(g, perm)
        for i in range(n):
            parent[find(i)] = find(perm[i])
    if chi is None:
        chi = chromatic_number(g)
    elif chi < 1:
        raise ValueError("chi = %d cannot be the chromatic number of a nonempty graph" % chi)
    for v in range(n):
        if find(v) != v:
            continue
        mask = (1 << n) - 1 ^ 1 << v
        classes = _k_colouring(g.adjacency, mask, chi - 1)
        if classes is None:
            return False
        covered = 0
        for cls in classes:
            if cls & covered or any(g.adjacency[u] & cls for u in set_bits(cls)):
                raise RuntimeError("colouring search returned an improper colouring")
            covered |= cls
        if covered != mask or len(classes) > chi - 1:
            raise RuntimeError("colouring search returned an improper colouring")
    return True


def _check_automorphism(g: Graph, perm: Sequence[int]) -> None:
    """Raise ValueError unless perm (perm[i] the image of vertex i) is a
    bijection of the vertices that maps adjacency rows onto adjacency rows."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("automorphism is not a permutation of the %d vertices" % g.n)
    for i, row in enumerate(g.adjacency):
        if permute_mask(row, perm) != g.adjacency[perm[i]]:
            raise ValueError("permutation does not preserve the edges at vertex %d" % i)


# ---------------------------------------------------------------------------
# group actions on labelled graphs


def vertex_permutation(g: Graph, elem: DihedralElement) -> list[int]:
    """The vertex permutation induced by a dihedral element on the label masks.

    Raises if a label is not a subset of Z_m, if some image label is not a
    vertex, or if the permutation is not an automorphism (_check_automorphism).
    """
    index = g.label_index()
    _check_in_z(max(g.labels, default=0), elem.m)   # the largest mask has the top bit
    pos = position_map(elem.m, elem.shift, elem.flip)
    perm = []
    for lab in g.labels:
        image = permute_mask(lab, pos)
        if image not in index:
            raise ValueError("action does not preserve the vertex set at %s" % render_set(lab))
        perm.append(index[image])
    _check_automorphism(g, perm)
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


def automorphism_group_order(g: Graph) -> int:
    """|Aut(G)| by backtracking over degree-compatible bijections.

    Refuses graphs with more than 16 vertices rather than fall back to
    heuristics.
    """
    n = g.n
    if n > 16:
        raise ValueError("too large: %d vertices (limit 16)" % n)
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
