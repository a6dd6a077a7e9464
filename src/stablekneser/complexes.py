"""Hom complexes, neighbourhood and order complexes, and GF(2) homology.

A Hom cell assigns to each source vertex a nonempty set of target vertices
with every cross pair an edge; cells ordered componentwise.  Hom homology
is computed from the cells themselves; the order complex of the cell poset,
built from the same cells, gives a second homology route.  A simplex is
the one-coordinate cell, so one cellular boundary routine serves Hom and
simplicial complexes alike, its rows bit-packed into ints and ranked over
GF(2).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import graphs
from .graphs import (CircularSet, DihedralElement, Graph,
                     stable_kneser_graph)
from .matroid import (SignVector, covector_extension_feasible, dihedral_act_sign,
                      enumerate_covectors, is_covector, negate,
                      render_sign_vector)


@dataclass(frozen=True)
class MultiHom:
    """A cell of Hom(G,H): source vertex -> nonempty target vertex set."""

    assignment: tuple[frozenset, ...]

    def validate(self, source: Graph, target: Graph) -> None:
        if len(self.assignment) != source.n:
            raise ValueError("assignment length != |V(source)|")
        if any(not a for a in self.assignment):
            raise ValueError("empty value set")
        for u in range(source.n):
            for v in range(source.n):
                if source.has_edge(u, v):
                    for a in self.assignment[u]:
                        for b in self.assignment[v]:
                            if not target.has_edge(a, b):
                                raise ValueError("not a multihomomorphism")

    def is_atom(self) -> bool:
        return all(len(a) == 1 for a in self.assignment)

    def leq(self, other: "MultiHom") -> bool:
        return all(a <= b for a, b in zip(self.assignment, other.assignment))

    def swap(self) -> "MultiHom":
        """The nontrivial K_2 involution on Hom(K_2, -)."""
        if len(self.assignment) != 2:
            raise ValueError("swap needs a 2-vertex source")
        return MultiHom((self.assignment[1], self.assignment[0]))

    def act_vertices(self, perm: Sequence[int]) -> "MultiHom":
        return MultiHom(tuple(frozenset(perm[t] for t in a) for a in self.assignment))

    def key(self):
        return tuple(tuple(sorted(a)) for a in self.assignment)


class FinitePoset:
    """Finite poset over arbitrary elements with bitmask up-sets."""

    def __init__(self, elements: Sequence, leq: Callable):
        self.elements = list(elements)
        n = len(self.elements)
        self.above = [0] * n   # above[i] bit j: elements[i] <= elements[j]
        for i in range(n):
            for j in range(n):
                if leq(self.elements[i], self.elements[j]):
                    self.above[i] |= 1 << j
        for i in range(n):
            if not (self.above[i] >> i & 1):
                raise ValueError("order not reflexive")
            for j in range(n):
                if i != j and (self.above[i] >> j & 1) and (self.above[j] >> i & 1):
                    raise ValueError("order not antisymmetric")

    @classmethod
    def from_up_sets(cls, elements: Sequence, above: Sequence[int]) -> "FinitePoset":
        """A poset whose up-sets are known: above[i] bit j iff elements[i] <= elements[j].

        The caller vouches that the bitmasks form a partial order; nothing
        is re-checked.
        """
        p = cls.__new__(cls)
        p.elements = list(elements)
        p.above = list(above)
        return p

    @property
    def n(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.above[i] >> j & 1)

    def atoms(self) -> list[int]:
        """Minimal elements (the poset has no artificial bottom)."""
        n = self.n
        out = []
        for i in range(n):
            if all(not (self.above[j] >> i & 1) for j in range(n) if j != i):
                out.append(i)
        return out

    def maximal(self) -> list[int]:
        return [i for i in range(self.n) if self.above[i] == 1 << i]

    def covers(self) -> list[list[int]]:
        """covers[i] = indices j covering i."""
        n = self.n
        out: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            ups = [j for j in range(n) if j != i and self.leq(i, j)]
            for j in ups:
                if not any(self.leq(i, l) and self.leq(l, j)
                           for l in ups if l != j):
                    out[i].append(j)
        return out

    def maximal_chains(self) -> list[tuple[int, ...]]:
        cov = self.covers()
        minimal = self.atoms()
        chains: list[tuple[int, ...]] = []

        def rec(chain: list[int]) -> None:
            ups = cov[chain[-1]]
            if not ups:
                chains.append(tuple(chain))
                return
            for j in ups:
                chain.append(j)
                rec(chain)
                chain.pop()

        for i in minimal:
            rec([i])
        return chains


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by its facets (maximal faces)."""

    vertices: tuple
    facets: tuple[frozenset, ...]

    @classmethod
    def from_faces(cls, faces: Sequence[frozenset]) -> "SimplicialComplex":
        """Keep the distinct inclusion-maximal nonempty faces as facets.

        Facets are ordered by size, then by the sorted reprs of their
        vertices; vertices are sorted by repr.
        """
        by_size: dict[int, dict[frozenset, None]] = {}   # insertion-ordered sets
        for f in faces:
            if f:
                by_size.setdefault(len(f), {})[frozenset(f)] = None
        uniq = []
        for size, group in by_size.items():
            larger = [g for big, gs in by_size.items() if big > size for g in gs]
            uniq += [f for f in group if not any(f < g for g in larger)]
        verts = sorted({v for f in uniq for v in f}, key=repr)
        uniq.sort(key=lambda f: (len(f), sorted(map(repr, f))))
        return cls(tuple(verts), tuple(uniq))

    def dimension(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)

    def all_faces(self, max_faces: int = 10 ** 6) -> dict[int, list[frozenset]]:
        """Downward closure, keyed by dimension."""
        byd: dict[int, set] = {}
        total = 0
        for facet in self.facets:
            fl = sorted(facet, key=repr)
            for size in range(1, len(fl) + 1):
                bucket = byd.setdefault(size - 1, set())
                for sub in itertools.combinations(fl, size):
                    fs = frozenset(sub)
                    if fs not in bucket:
                        bucket.add(fs)
                        total += 1
                        if total > max_faces:
                            raise ValueError("complex exceeds %d faces" % max_faces)
        return {d: sorted(fs, key=lambda f: sorted(map(repr, f)))
                for d, fs in byd.items()}

    def f_vector(self) -> tuple[int, ...]:
        byd = self.all_faces()
        top = max(byd) if byd else -1
        return tuple(len(byd.get(d, ())) for d in range(top + 1))


def gf2_rank_dense(rows: Sequence[int]) -> int:
    """Rank over GF(2); rows are bit-packed ints."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        r = row
        while r:
            p = r.bit_length() - 1
            if p in pivots:
                r ^= pivots[p]
            else:
                pivots[p] = r
                rank += 1
                break
    return rank


def gf2_rank_sparse(rows: Sequence[set]) -> int:
    """Rank over GF(2); rows as sets of column indices."""
    pivots: dict[int, set] = {}
    rank = 0
    for row in rows:
        r = set(row)
        while r:
            p = max(r)
            if p in pivots:
                r ^= pivots[p]
            else:
                pivots[p] = r
                rank += 1
                break
    return rank


def _cell_faces(cell: tuple[int, ...]):
    """The codimension-one faces: one bit dropped from one mask of >= 2 bits."""
    for u, a in enumerate(cell):
        if a & (a - 1):
            head, tail = cell[:u], cell[u + 1:]
            rest = a
            while rest:
                low = rest & -rest
                rest ^= low
                yield head + (a ^ low,) + tail


def boundary_rank(cells: Sequence[tuple[int, ...]], below_index: dict) -> int:
    """Rank over GF(2) of the boundary from `cells` to the cells indexed by below_index.

    A cell is a tuple of bitmasks, a product of simplices; over GF(2) its
    boundary is the sum of its codimension-one faces.
    """
    rows = []
    for c in cells:
        row = 0
        for f in _cell_faces(c):
            row ^= 1 << below_index[f]
        rows.append(row)
    return gf2_rank_dense(rows)


def _cellular_betti(cells: dict[int, list[tuple[int, ...]]]) -> tuple[int, ...]:
    """Betti numbers over GF(2) of cells keyed by dimension, trailing zeros trimmed.

    Every dimension from 0 to the top holds cells, and every face of a cell
    is a cell.
    """
    top = max(cells, default=-1)
    ranks = [0] * (top + 2)   # ranks[d]: the boundary from dimension d to d - 1
    for d in range(1, top + 1):
        ranks[d] = boundary_rank(cells[d], {c: i for i, c in enumerate(cells[d - 1])})
    betti = [len(cells[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def z2_betti(x: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers over GF(2), trailing zeros trimmed.

    A face is the one-coordinate cell (mask,), bit i for x.vertices[i].
    """
    bit = {v: 1 << i for i, v in enumerate(x.vertices)}.__getitem__
    return _cellular_betti({d: [(sum(map(bit, f)),) for f in fs]
                            for d, fs in x.all_faces().items()})


# ---------------------------------------------------------------------------
# Hom poset


def hom_size_estimate(g: Graph, h: Graph) -> int:
    return (2 ** h.n - 1) ** g.n


def hom_cells(g: Graph, h: Graph,
              max_cells: int = 10 ** 6) -> dict[int, list[tuple[int, ...]]]:
    """The cells of Hom(G, H) as tuples of target bitmasks, keyed by dimension.

    A cell gives each source vertex u a nonempty target set, bit t of
    cell[u] for target t, with every cross pair over an edge of G an edge
    of H.  It is a product of simplices of dimension sum(|cell[u]| - 1).
    Backtracks over the source vertices and grows each set one target at a
    time, keeping only sets that leave every unassigned neighbour a nonempty
    common-neighbour set; for K_2 the first set A runs over the sets with a
    common neighbour and the second over the nonempty subsets of CN(A).  A
    looped source vertex takes a set of looped, pairwise adjacent targets.
    Refuses once more than `max_cells` cells are found.
    """
    if g.n > 3 and hom_size_estimate(g, h) > max_cells:
        raise ValueError("refusing: size estimate %d cells exceeds %d"
                         % (hom_size_estimate(g, h), max_cells))
    adj = h.adjacency
    looped_targets = sum(1 << t for t in h.looped_vertices())
    loop = [g.has_loop(u) for u in range(g.n)]
    later = [[v for v in range(u + 1, g.n) if g.has_edge(u, v)]
             for u in range(g.n)]
    # allowed[v]: the targets v may take, given the sets assigned so far
    allowed = [looped_targets if loop[v] else (1 << h.n) - 1
               for v in range(g.n)]
    cell = [0] * g.n
    cells: dict[int, list[tuple[int, ...]]] = {}
    found = 0

    def grow(u: int, rem: int, s: int, common: int):
        """Valid sets for u extending s by targets of rem, with their CN."""
        while rem:
            low = rem & -rem
            rem ^= low
            c = common & adj[low.bit_length() - 1]
            if any(not allowed[v] & c for v in later[u]):
                continue
            yield s | low, c
            yield from grow(u, rem & c if loop[u] else rem, s | low, c)

    def rec(u: int, dim: int) -> None:
        nonlocal found
        if u == g.n:
            cells.setdefault(dim, []).append(tuple(cell))
            found += 1
            if found > max_cells:
                raise ValueError("refusing: more than %d cells" % max_cells)
            return
        for s, c in grow(u, allowed[u], 0, (1 << h.n) - 1):
            cell[u] = s
            saved = [allowed[v] for v in later[u]]
            for v in later[u]:
                allowed[v] &= c
            rec(u + 1, dim + s.bit_count() - 1)
            for v, a in zip(later[u], saved):
                allowed[v] = a

    rec(0, 0)
    return cells


def hom_betti(g: Graph, h: Graph) -> tuple[int, ...]:
    """Betti numbers of Hom(G, H) over GF(2) from its cellular chain complex.

    The cells are products of simplices, so no order complex is built.
    Trailing zeros are trimmed as in z2_betti.
    """
    return _cellular_betti(hom_cells(g, h))


def _multihom(cell: tuple[int, ...]) -> MultiHom:
    return MultiHom(tuple(frozenset(t for t in range(a.bit_length()) if a >> t & 1)
                          for a in cell))


def hom_poset(g: Graph, h: Graph, max_cells: int = 10 ** 6) -> FinitePoset:
    """The face poset of hom_cells: multihomomorphisms G -> H, componentwise.

    Elements are sorted by MultiHom.key(); the up-sets are pushed down from
    each cell to its faces, highest dimension first.
    """
    byd = hom_cells(g, h, max_cells=max_cells)
    pairs = sorted(((_multihom(c), c) for cs in byd.values() for c in cs),
                   key=lambda pair: pair[0].key())
    index = {c: i for i, (_, c) in enumerate(pairs)}
    above = [1 << i for i in range(len(pairs))]
    for d in sorted(byd, reverse=True):
        for c in byd[d]:
            up = above[index[c]]
            for f in _cell_faces(c):
                above[index[f]] |= up
    return FinitePoset.from_up_sets([mh for mh, _ in pairs], above)


def hom_atoms(g: Graph, h: Graph, max_cells: int = 10 ** 6) -> list[MultiHom]:
    atoms = hom_cells(g, h, max_cells=max_cells).get(0, [])
    return sorted(map(_multihom, atoms), key=MultiHom.key)


def neighbourhood_complex(g: Graph) -> SimplicialComplex:
    """Sets of vertices with a common neighbour."""
    faces = []
    for v in range(g.n):
        nb = frozenset(g.neighbours(v))
        if nb:
            faces.append(nb)
    return SimplicialComplex.from_faces(faces)


def order_complex(p: FinitePoset) -> SimplicialComplex:
    """Chains of the poset; facets are the maximal chains."""
    chains = p.maximal_chains()
    return SimplicialComplex.from_faces([frozenset(c) for c in chains])


def looped_one_skeleton(p: FinitePoset) -> Graph:
    """Reflexive graph on atoms; adjacent iff a common upper bound exists."""
    atoms = p.atoms()
    na = len(atoms)
    adj = [0] * na
    for a in range(na):
        for b in range(na):
            if p.above[atoms[a]] & p.above[atoms[b]]:
                adj[a] |= 1 << b
    return Graph(tuple(adj))


# ---------------------------------------------------------------------------
# the covector -> Hom map


def _side_masks(s: SignVector) -> tuple[int, int]:
    """Bitmasks of S_0(s) and S_1(s): j is in S_l when (-1)^j s_j = (-1)^l."""
    masks = [0, 0]
    for j, v in enumerate(s):
        if v:
            masks[(v < 0) ^ (j & 1)] |= 1 << j
    return masks[0], masks[1]


def side_sets(s: SignVector) -> tuple[CircularSet, CircularSet]:
    """S_l(s) = {j : (-1)^j s_j = (-1)^l} for l = 0, 1."""
    s0, s1 = _side_masks(s)
    return CircularSet(len(s), s0), CircularSet(len(s), s1)


def _covector_cell(s: SignVector, n: int, target: Graph,
                   inside: dict[int, int]) -> tuple[int, int]:
    """The Hom(K_2, SG_{n,k}) cell (A, B) of a covector, as vertex bitmasks.

    A holds the vertices whose stable set lies inside S_0(s), B those inside
    S_1(s).  `inside` memoises side mask -> vertex bitmask for one target.
    Cross pairs are edges automatically: the two sides are disjoint.
    """
    cell = []
    for side in _side_masks(s):
        verts = inside.get(side)
        if verts is None:
            verts = sum(1 << i for i, lab in enumerate(target.labels)
                        if lab.mask & ~side == 0)
            if not verts:
                raise ValueError("side %s carries no stable %d-set"
                                 % (CircularSet(len(s), side), n))
            inside[side] = verts
        cell.append(verts)
    return cell[0], cell[1]


def covector_to_hom(s: SignVector, n: int, k: int,
                    target: Optional[Graph] = None) -> MultiHom:
    """The cell of Hom(K_2, SG_{n,k}) attached to a covector.

    Each K_2 vertex l is sent to all stable n-sets inside S_l(s).  Order
    preserving in s; cocircuits land on atoms with interleaved sides.
    """
    m = 2 * n + k
    if len(s) != m:
        raise ValueError("sign vector length %d, expected m = %d" % (len(s), m))
    if not is_covector(s, k):
        raise ValueError("not a covector of C^{%d,%d}: %s"
                         % (m, k + 1, render_sign_vector(s)))
    if target is None:
        target = stable_kneser_graph(n, k)
    return _multihom(_covector_cell(s, n, target, {}))


def covector_cells(n: int, k: int,
                   target: Optional[Graph] = None) -> dict[SignVector, tuple[int, int]]:
    """Every covector of C^{m,k+1}, m = 2n + k, with its cell (A, B).

    Keys follow enumerate_covectors; cells are pairs of vertex bitmasks of
    SG_{n,k} as in hom_cells(K_2, SG_{n,k}), one per side.
    """
    if target is None:
        target = stable_kneser_graph(n, k)
    inside: dict[int, int] = {}
    return {s: _covector_cell(s, n, target, inside)
            for s in enumerate_covectors(2 * n + k, k)}


def multihom_dihedral_act(mh: MultiHom, g: Graph, elem: DihedralElement) -> MultiHom:
    """Push a Hom(K_2, G) cell along the dihedral action on G's labels."""
    return mh.act_vertices(graphs.vertex_permutation(g, elem))


def check_equivariance_combinatorial(n: int, k: int) -> dict:
    """Check the covector map intertwines both group actions, on every covector.

    sigma and rho act on sign vectors by the twisted shift/flip rules and on
    Hom(K_2, SG_{n,k}) through vertex labels, a cell (A, B) going to
    (pi(A), pi(B)) for the vertex permutation pi; negation must match the
    K_2 swap (A, B) -> (B, A).  Each covector's cell is built once, and each
    vertex bitmask is permuted once per generator; an image that is not
    itself an enumerated covector counts as a violation.  Returns a report
    whose violation list is expected empty.
    """
    m = 2 * n + k
    target = stable_kneser_graph(n, k)
    actions = []
    for name, elem in (("sigma", DihedralElement.sigma(m)), ("rho", DihedralElement.rho(m))):
        perm = graphs.vertex_permutation(target, elem)
        actions.append((name, elem, functools.cache(
            functools.partial(graphs.permute_mask, perm=perm))))
    cells = covector_cells(n, k, target)
    violations = []
    for s, (a, b) in cells.items():
        for name, elem, image in actions:
            if cells.get(dihedral_act_sign(s, elem)) != (image(a), image(b)):
                violations.append((render_sign_vector(s), name))
        if cells.get(negate(s)) != (b, a):
            violations.append((render_sign_vector(s), "negation"))
    return {
        "n": n,
        "k": k,
        "m": m,
        "covectors_checked": len(cells),
        "violations": violations,
    }


def verify_nerve(n: int, k: int, max_set_size: Optional[int] = None,
                 max_vertices: int = 20) -> bool:
    """Nerve criterion: sign-pattern feasibility == common-neighbour existence.

    For every nonempty vertex family of SG_{n,k} (up to max_set_size), fixing
    s_j = (-1)^j on the union must be covector-extendable exactly when some
    stable set avoids the union.
    """
    m = 2 * n + k
    verts = [lab for lab in stable_kneser_graph(n, k).labels]
    nv = len(verts)
    if nv > max_vertices and max_set_size is None:
        raise ValueError("refusing 2^%d subsets; pass max_set_size" % nv)
    sizes = range(1, nv + 1) if max_set_size is None else range(1, max_set_size + 1)
    for size in sizes:
        for family in itertools.combinations(range(nv), size):
            union = 0
            for i in family:
                union |= verts[i].mask
            partial: list[Optional[int]] = []
            for j in range(m):
                if union >> j & 1:
                    partial.append(1 if j % 2 == 0 else -1)
                else:
                    partial.append(None)
            feasible = covector_extension_feasible(partial, k)
            has_common = any(v.mask & union == 0 for v in verts)
            if feasible != has_common:
                return False
    return True
