"""Hom complexes, neighbourhood and order complexes, and GF(2) homology.

A Hom cell assigns to each source vertex a nonempty set of target vertices
with every cross pair an edge.  There is one cell model: one int that packs
the target bitmask of source vertex u into the width-bit field starting at
bit u * width, width = |V(H)|.  The face order is then a & ~b == 0, and a
codimension-one face drops one bit and keeps that bit's field nonempty.  The
covector map gives Hom(K_2, SG_{n,k}) cells as A | B << |V(SG_{n,k})| for the
vertex bitmasks A, B of its two sides, a vertex lying in a side when its
label, the bitmask of its stable set, does.  Negation swaps the two fields,
and a dihedral element acts on each field by graphs.permute_mask under its
graphs.vertex_permutation.  A covector is its side-mask pair (S_0, S_1),
a row of the matroid.covector_sides arrays, on which the equivariance check
runs, keyed S_0 | S_1 << m; sign-vector tuples appear only where covectors
are taken in or reported.  Hom homology is computed from the cells
themselves; the order complex of the cell poset, built from the same cells,
gives a second homology route.  A simplicial complex keeps its facets as
vertex bitmasks, bit i for vertex i: the neighbourhood complex takes the
maximal adjacency rows, the order complex the maximal chains as masks of
element indices, and faces are listed as submasks.  A simplex is then the
one-field cell, so one cellular boundary routine serves Hom and simplicial
complexes alike, its rows bit-packed into ints and ranked over GF(2).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import graphs
from .graphs import (DihedralElement, Graph, render_set, set_bits,
                     stable_kneser_graph)
from .matroid import (SignVector, covector_extension_feasible, covector_sides,
                      dihedral_act_sign, enumerate_covectors, is_covector,
                      render_sign_vector, side_masks, sign_vector_from_sides)


class FinitePoset:
    """Finite poset over arbitrary elements, given by its bitmask up-sets.

    above[i] bit j iff elements[i] <= elements[j]; the caller vouches that
    the bitmasks form a partial order, and nothing is re-checked.
    """

    def __init__(self, elements: Sequence, above: Sequence[int]):
        self.elements = list(elements)
        self.above = list(above)

    @property
    def n(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.above[i] >> j & 1)

    def atoms(self) -> list[int]:
        """Minimal elements (the poset has no artificial bottom)."""
        above_another = 0
        for i, up in enumerate(self.above):
            above_another |= up & ~(1 << i)
        return set_bits(((1 << self.n) - 1) & ~above_another)

    def covers(self) -> list[list[int]]:
        """covers[i] = indices j covering i: the minimal elements of i's strict up-set."""
        strict = [up & ~(1 << i) for i, up in enumerate(self.above)]
        out = []
        for ups in strict:
            beyond = 0
            for j in set_bits(ups):
                beyond |= strict[j]
            out.append(set_bits(ups & ~beyond))
        return out

    def maximal_chains(self) -> list[int]:
        """The maximal chains, each as the bitmask of its element indices."""
        cov = self.covers()
        chains: list[int] = []

        def rec(i: int, chain: int) -> None:
            if not cov[i]:
                chains.append(chain)
            for j in cov[i]:
                rec(j, chain | 1 << j)

        for i in self.atoms():
            rec(i, 1 << i)
        return chains


def _size_then_value(face: int) -> tuple[int, int]:
    return face.bit_count(), face


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by its facets (maximal faces).

    A face is a bitmask over the vertices 0, 1, ...; a caller with labelled
    vertices maps bit i to its own i-th label.  The facets are distinct,
    pairwise incomparable and sorted by (bit_count, value).
    """

    facets: tuple[int, ...]

    @classmethod
    def from_faces(cls, faces: Iterable[int]) -> "SimplicialComplex":
        """Keep the distinct nonzero masks that no other mask contains as facets."""
        facets: list[int] = []
        for f in sorted(set(faces) - {0}, key=_size_then_value, reverse=True):
            if all(f & ~g for g in facets):
                facets.append(f)
        return cls(tuple(reversed(facets)))

    def all_faces(self, max_faces: int = 10 ** 6) -> dict[int, list[int]]:
        """Downward closure keyed by dimension: every facet's nonzero submasks, sorted.

        Refuses once more than max_faces distinct faces are found.
        """
        top = max(map(int.bit_count, self.facets), default=0)
        by_size: list[set[int]] = [set() for _ in range(top + 1)]
        total = 0
        for facet in self.facets:
            sub = facet
            while sub:
                bucket = by_size[sub.bit_count()]
                if sub not in bucket:
                    bucket.add(sub)
                    total += 1
                    if total > max_faces:
                        raise ValueError("complex exceeds %d faces" % max_faces)
                sub = (sub - 1) & facet
        return {size - 1: sorted(by_size[size]) for size in range(1, top + 1)}

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.all_faces().values()))


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
    """Rank over GF(2); rows as sets of column indices, packed for gf2_rank_dense."""
    return gf2_rank_dense([sum(1 << j for j in set(row)) for row in rows])


def _cell_faces(cell: int, width: int):
    """The codimension-one faces of a packed cell: one bit dropped, its field kept nonempty."""
    field = (1 << width) - 1
    rest = cell
    while rest:
        low = rest & -rest
        rest ^= low
        face = cell ^ low
        if face >> (low.bit_length() - 1) // width * width & field:
            yield face


def boundary_rank(cells: Sequence[int], below_index: dict[int, int], width: int) -> int:
    """Rank over GF(2) of the boundary from `cells` to the cells indexed by below_index.

    A cell is packed in width-bit fields, a product of simplices; over GF(2)
    its boundary is the sum of its codimension-one faces.
    """
    rows = []
    for c in cells:
        row = 0
        for f in _cell_faces(c, width):
            row ^= 1 << below_index[f]
        rows.append(row)
    return gf2_rank_dense(rows)


def _cellular_betti(cells: dict[int, list[int]], width: int) -> tuple[int, ...]:
    """Betti numbers over GF(2) of packed cells keyed by dimension, trailing zeros trimmed.

    Every dimension from 0 to the top holds cells, and every face of a cell
    is a cell.
    """
    top = max(cells, default=-1)
    ranks = [0] * (top + 2)   # ranks[d]: the boundary from dimension d to d - 1
    for d in range(1, top + 1):
        ranks[d] = boundary_rank(cells[d], {c: i for i, c in enumerate(cells[d - 1])}, width)
    betti = [len(cells[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def z2_betti(x: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers over GF(2), trailing zeros trimmed.

    A face mask is a one-field cell of _cellular_betti, the field as wide
    as the highest vertex bit.
    """
    return _cellular_betti(x.all_faces(), max(map(int.bit_length, x.facets), default=1))


# ---------------------------------------------------------------------------
# Hom poset


def hom_cells(g: Graph, h: Graph, max_cells: int = 10 ** 6) -> dict[int, list[int]]:
    """The cells of Hom(G, H) as packed ints, keyed by dimension.

    A cell gives each source vertex u a nonempty target set, bit t of its
    field for target t, the field of u starting at bit u * h.n, with every
    cross pair over an edge of G an edge of H.  It is a product of simplices
    of dimension sum(|field| - 1).
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
    cells: dict[int, list[int]] = {}
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

    def rec(u: int, cell: int, dim: int) -> None:
        nonlocal found
        if u == g.n:
            cells.setdefault(dim, []).append(cell)
            found += 1
            if found > max_cells:
                raise ValueError("refusing: more than %d cells" % max_cells)
            return
        for s, c in grow(u, allowed[u], 0, (1 << h.n) - 1):
            saved = [allowed[v] for v in later[u]]
            for v in later[u]:
                allowed[v] &= c
            rec(u + 1, cell | s << u * h.n, dim + s.bit_count() - 1)
            for v, a in zip(later[u], saved):
                allowed[v] = a

    rec(0, 0, 0)
    return cells


def hom_betti(g: Graph, h: Graph) -> tuple[int, ...]:
    """Betti numbers of Hom(G, H) over GF(2) from its cellular chain complex.

    The cells are products of simplices, so no order complex is built.
    Trailing zeros are trimmed as in z2_betti.
    """
    return _cellular_betti(hom_cells(g, h), h.n)


def hom_poset(g: Graph, h: Graph) -> FinitePoset:
    """The face poset of hom_cells, ordered by a & ~b == 0 on the packed cells.

    Elements are the hom_cells ints themselves, dimension by dimension
    from 0 up and in enumeration order within a dimension; the up-sets are
    pushed down from each cell to its faces, highest dimension first.
    """
    byd = hom_cells(g, h)
    cells = [c for d in sorted(byd) for c in byd[d]]
    index = {c: i for i, c in enumerate(cells)}
    above = [1 << i for i in range(len(cells))]
    for i in reversed(range(len(cells))):
        for f in _cell_faces(cells[i], h.n):
            above[index[f]] |= above[i]
    return FinitePoset(cells, above)


def neighbourhood_complex(g: Graph) -> SimplicialComplex:
    """Sets of vertices with a common neighbour; the facets are the maximal rows of g.adjacency."""
    return SimplicialComplex.from_faces(g.adjacency)


def order_complex(p: FinitePoset) -> SimplicialComplex:
    """Chains of the poset, bit i for p.elements[i]; the facets are the maximal chains.

    Distinct maximal chains are never nested, so no maximality filter runs.
    """
    return SimplicialComplex(tuple(sorted(p.maximal_chains(), key=_size_then_value)))


# ---------------------------------------------------------------------------
# the covector -> Hom map


def _side_vertices(side: int, n: int, k: int, target: Graph) -> int:
    """Bitmask of the target vertices whose label mask lies inside a covector side.

    Never empty; cross pairs of a covector's cell are edges automatically:
    the two sides are disjoint.
    """
    verts = sum(1 << i for i, lab in enumerate(target.labels) if lab & ~side == 0)
    if not verts:
        raise _no_stable_set(side, n, k)
    return verts


def _no_stable_set(side: int, n: int, k: int) -> ValueError:
    return ValueError("(n, k) = (%d, %d): side %s carries no stable %d-set"
                      % (n, k, render_set(side), n))


def covector_to_hom(s: SignVector, n: int, k: int,
                    target: Optional[Graph] = None) -> int:
    """The packed cell A | B << |V(SG_{n,k})| of Hom(K_2, SG_{n,k}) attached to a covector.

    A and B are vertex bitmasks of SG_{n,k}, as in hom_cells: each K_2
    vertex l is sent to all stable n-sets inside S_l(s).  Order preserving
    in s for a & ~b == 0; negation swaps the two fields, and cocircuits
    land on atoms with interleaved sides.
    """
    m = 2 * n + k
    if len(s) != m:
        raise ValueError("sign vector length %d, expected m = %d" % (len(s), m))
    if not is_covector(s, k):
        raise ValueError("not a covector of C^{%d,%d}: %s"
                         % (m, k + 1, render_sign_vector(s)))
    if target is None:
        target = stable_kneser_graph(n, k)
    return sum(_side_vertices(side, n, k, target) << l * target.n
               for l, side in enumerate(side_masks(s)))


def covector_cells(n: int, k: int) -> dict[SignVector, int]:
    """Every covector of C^{m,k+1}, m = 2n + k, with its packed cell as in covector_to_hom.

    Keys follow enumerate_covectors; cells are packed as in
    hom_cells(K_2, SG_{n,k}), one vertex-bitmask field per side, each
    distinct side resolved once.
    """
    m = 2 * n + k
    target = stable_kneser_graph(n, k)
    verts = functools.cache(lambda side: _side_vertices(side, n, k, target))
    return {s: sum(verts(side) << l * target.n for l, side in enumerate(side_masks(s)))
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


def _in_sorted(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which queries occur in the sorted array keys, searched as sorted queries.

    Queries that permute the keys, as on a passing check, sort to keys;
    otherwise only the values found missing are looked up query by query.
    """
    q = np.sort(queries)
    if not np.array_equal(q, keys):
        missing = q[keys[np.minimum(np.searchsorted(keys, q), len(keys) - 1)] != q]
        if len(missing):
            return missing[np.minimum(np.searchsorted(missing, queries),
                                      len(missing) - 1)] != queries
    return np.ones(len(q), bool)


def check_equivariance_combinatorial(n: int, k: int) -> dict:
    """Check the covector map intertwines both group actions, on every covector.

    sigma and rho act on sign vectors by the twisted shift/flip rules and on
    Hom(K_2, SG_{n,k}) through vertex labels, each field A of a cell going
    to pi(A) for the vertex permutation pi; negation must match the K_2
    swap of the two fields.  A covector is its side masks (S_0, S_1) from
    covector_sides, keyed S_0 | S_1 << m.  Each distinct side gets a row of
    the (sides x vertices) boolean matrix of the vertices inside it.  The
    sign action moves sides as sets, by the position move of each
    generator; a side S passes when the row of gS is the row of S with its
    columns moved by pi, and a covector when both its sides pass and the
    moved key is itself a covector.  Negation is the swapped key.
    Returns a report whose violation list is expected empty, in covector
    order and sigma, rho, negation within a covector.
    """
    m = 2 * n + k
    s0, s1 = covector_sides(m, k)
    target = stable_kneser_graph(n, k)
    keys = np.sort(s0 | s1 << m)
    # np.sort, several times faster than the argsort inside np.unique
    sides = np.sort(np.concatenate([s0, s1]))
    sides = sides[np.concatenate([[True], sides[1:] != sides[:-1]])]
    inv0, inv1 = np.searchsorted(sides, s0), np.searchsorted(sides, s1)
    j = np.arange(m)
    bits = sides[:, None] >> j & 1
    outside = (1 - bits).astype(np.float32)
    labels = np.array(target.labels, sides.dtype)
    members = (labels[:, None] >> j & 1).astype(np.float32)
    # no member of the vertex outside the side; float32 counts up to m are exact
    inside = outside @ members.T == 0
    empty = ~inside.any(axis=1)
    if empty.any():
        raise _no_stable_set(int(sides[empty.argmax()]), n, k)
    failed = []
    for name, elem in (("sigma", DihedralElement.sigma(m)), ("rho", DihedralElement.rho(m))):
        perm = graphs.vertex_permutation(target, elem)
        pos = _position_move(m, elem)
        if pos is None:
            failed.append((name, np.ones(len(s0), bool)))
            continue
        moved = bits @ (1 << np.array(pos, sides.dtype))
        passes = ((outside @ members[:, pos].T == 0)[:, perm] == inside).all(axis=1)
        failed.append((name, ~(passes[inv0] & passes[inv1]
                               & _in_sorted(keys, moved[inv0] | moved[inv1] << m))))
    failed.append(("negation", ~_in_sorted(keys, s1 | s0 << m)))
    violations = []
    for i in np.flatnonzero(np.logical_or.reduce([f for _, f in failed])).tolist():
        s = render_sign_vector(sign_vector_from_sides(m, int(s0[i]), int(s1[i])))
        violations += [(s, name) for name, f in failed if f[i]]
    return {
        "n": n,
        "k": k,
        "m": m,
        "covectors_checked": len(s0),
        "violations": violations,
    }


def verify_nerve(n: int, k: int, max_set_size: Optional[int] = None) -> bool:
    """Nerve criterion: sign-pattern feasibility == common-neighbour existence.

    For every nonempty vertex family of SG_{n,k} (up to max_set_size), fixing
    s_j = (-1)^j on the union must be covector-extendable exactly when some
    stable set avoids the union.  A max_set_size below 1 would check no
    family, so it is refused, and so is a graph of more than 20 vertices
    without one: it has too many families.
    """
    if max_set_size is not None and max_set_size < 1:
        raise ValueError("nerve check of (n, k) = (%d, %d): max_set_size %d checks no family"
                         % (n, k, max_set_size))
    m = 2 * n + k
    verts = stable_kneser_graph(n, k).labels
    nv = len(verts)
    if nv > 20 and max_set_size is None:
        raise ValueError("refusing 2^%d subsets; pass max_set_size" % nv)
    sizes = range(1, nv + 1) if max_set_size is None else range(1, max_set_size + 1)
    for size in sizes:
        for family in itertools.combinations(range(nv), size):
            union = 0
            for i in family:
                union |= verts[i]
            partial: list[Optional[int]] = []
            for j in range(m):
                if union >> j & 1:
                    partial.append(1 if j % 2 == 0 else -1)
                else:
                    partial.append(None)
            feasible = covector_extension_feasible(partial, k)
            has_common = any(v & union == 0 for v in verts)
            if feasible != has_common:
                return False
    return True
