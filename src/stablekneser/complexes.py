"""Hom complexes, neighbourhood and order complexes, and GF(2) homology.

A Hom cell assigns to each source vertex a nonempty set of target vertices
with every cross pair an edge.  There is one cell model: the tuple of target
bitmasks that hom_cells enumerates, one mask per source vertex, ordered by
componentwise mask containment.  The covector map gives Hom(K_2, SG_{n,k})
cells as the same vertex-bitmask pairs (A, B); negation is the swap (B, A),
and a dihedral element acts on each mask by graphs.permute_mask under its
graphs.vertex_permutation.  A covector is its side-mask pair (S_0, S_1)
from matroid.covector_sides, keyed by the int S_0 | S_1 << m in the
equivariance check; sign-vector tuples appear only where covectors are
taken in or reported.  Hom homology is computed from the cells
themselves; the order complex of the cell poset, built from the same cells,
gives a second homology route.  A simplex is the one-coordinate cell, so
one cellular boundary routine serves Hom and simplicial complexes alike,
its rows bit-packed into ints and ranked over GF(2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import graphs
from .graphs import (CircularSet, DihedralElement, Graph,
                     stable_kneser_graph)
from .matroid import (SignVector, covector_extension_feasible, covector_sides,
                      dihedral_act_sign, enumerate_covectors, is_covector,
                      render_sign_vector, side_masks, sign_vector_from_sides)


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


def hom_poset(g: Graph, h: Graph, max_cells: int = 10 ** 6) -> FinitePoset:
    """The face poset of hom_cells, ordered by componentwise mask containment.

    Elements are the hom_cells tuples themselves, dimension by dimension
    from 0 up and in enumeration order within a dimension; the up-sets are
    pushed down from each cell to its faces, highest dimension first.
    """
    byd = hom_cells(g, h, max_cells=max_cells)
    cells = [c for d in sorted(byd) for c in byd[d]]
    index = {c: i for i, c in enumerate(cells)}
    above = [1 << i for i in range(len(cells))]
    for i in reversed(range(len(cells))):
        for f in _cell_faces(cells[i]):
            above[index[f]] |= above[i]
    return FinitePoset.from_up_sets(cells, above)


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


# ---------------------------------------------------------------------------
# the covector -> Hom map


def _vertices_inside(side: int, target: Graph) -> int:
    """Bitmask of the target vertices whose stable set lies inside the side mask."""
    return sum(1 << i for i, lab in enumerate(target.labels) if lab.mask & ~side == 0)


def _side_vertices(side: int, m: int, n: int, target: Graph,
                   inside: dict[int, int]) -> int:
    """_vertices_inside for a covector side, memoised in `inside`; never empty.

    Cross pairs of a covector's cell are edges automatically: the two sides
    are disjoint.
    """
    verts = inside.get(side)
    if verts is None:
        verts = _vertices_inside(side, target)
        if not verts:
            raise ValueError("side %s carries no stable %d-set" % (CircularSet(m, side), n))
        inside[side] = verts
    return verts


def covector_to_hom(s: SignVector, n: int, k: int,
                    target: Optional[Graph] = None) -> tuple[int, int]:
    """The cell (A, B) of Hom(K_2, SG_{n,k}) attached to a covector.

    A and B are vertex bitmasks of SG_{n,k}, as in hom_cells: each K_2
    vertex l is sent to all stable n-sets inside S_l(s).  Order preserving
    in s for componentwise mask containment; negation is the swap (B, A),
    and cocircuits land on atoms with interleaved sides.
    """
    m = 2 * n + k
    if len(s) != m:
        raise ValueError("sign vector length %d, expected m = %d" % (len(s), m))
    if not is_covector(s, k):
        raise ValueError("not a covector of C^{%d,%d}: %s"
                         % (m, k + 1, render_sign_vector(s)))
    if target is None:
        target = stable_kneser_graph(n, k)
    inside: dict[int, int] = {}
    s0, s1 = side_masks(s)
    return _side_vertices(s0, m, n, target, inside), _side_vertices(s1, m, n, target, inside)


def covector_cells(n: int, k: int,
                   target: Optional[Graph] = None) -> dict[SignVector, tuple[int, int]]:
    """Every covector of C^{m,k+1}, m = 2n + k, with its cell (A, B).

    Keys follow enumerate_covectors; cells are pairs of vertex bitmasks of
    SG_{n,k} as in hom_cells(K_2, SG_{n,k}), one per side.
    """
    m = 2 * n + k
    if target is None:
        target = stable_kneser_graph(n, k)
    inside: dict[int, int] = {}
    return {s: tuple(_side_vertices(side, m, n, target, inside) for side in side_masks(s))
            for s in enumerate_covectors(m, k)}


def _position_move(m: int, elem: DihedralElement) -> Optional[list[int]]:
    """Where dihedral_act_sign moves each entry under elem, read off the unit sign vectors.

    None unless the m unit vectors go, bijectively, to unit vectors whose
    nonzero entry stays on the side it started on.
    """
    pos = []
    for j in range(m):
        sides = side_masks(dihedral_act_sign((0,) * j + (1,) + (0,) * (m - j - 1), elem))
        moved = sides[j & 1]   # +1 at j lies on side j & 1
        if sides[1 - (j & 1)] or moved.bit_count() != 1:
            return None
        pos.append(moved.bit_length() - 1)
    return pos if sorted(pos) == list(range(m)) else None


def check_equivariance_combinatorial(n: int, k: int) -> dict:
    """Check the covector map intertwines both group actions, on every covector.

    sigma and rho act on sign vectors by the twisted shift/flip rules and on
    Hom(K_2, SG_{n,k}) through vertex labels, a cell (A, B) going to
    (pi(A), pi(B)) for the vertex permutation pi; negation must match the
    K_2 swap (A, B) -> (B, A).  A covector is its side masks (S_0, S_1),
    keyed S_0 | S_1 << m.  The sign action moves sides as sets, by the
    position move of each generator; one table per generator sends each
    covector side S to gS when the vertices inside gS are pi of those inside
    S, and to None otherwise, so a covector passes when both its sides map
    and the moved key is itself a covector.  Negation is the swapped key.
    Returns a report whose violation list is expected empty, in covector
    order and sigma, rho, negation within a covector.
    """
    m = 2 * n + k
    target = stable_kneser_graph(n, k)
    covs = covector_sides(m, k)
    keys = {s0 | s1 << m for s0, s1 in covs}
    inside: dict[int, int] = {}
    for side in dict.fromkeys(itertools.chain.from_iterable(covs)):
        _side_vertices(side, m, n, target, inside)
    tables = []
    for name, elem in (("sigma", DihedralElement.sigma(m)), ("rho", DihedralElement.rho(m))):
        perm = graphs.vertex_permutation(target, elem)
        pos = _position_move(m, elem)
        table = dict.fromkeys(inside)
        if pos is not None:
            for side, verts in inside.items():
                moved = graphs.permute_mask(side, pos)
                if _vertices_inside(moved, target) == graphs.permute_mask(verts, perm):
                    table[side] = moved
        tables.append((name, table))
    violations = []
    for s0, s1 in covs:
        for name, table in tables:
            g0, g1 = table[s0], table[s1]
            if g0 is None or g1 is None or g0 | g1 << m not in keys:
                violations.append((render_sign_vector(sign_vector_from_sides(m, s0, s1)), name))
        if s1 | s0 << m not in keys:
            violations.append((render_sign_vector(sign_vector_from_sides(m, s0, s1)), "negation"))
    return {
        "n": n,
        "k": k,
        "m": m,
        "covectors_checked": len(covs),
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
