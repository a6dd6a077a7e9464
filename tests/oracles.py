"""Independent oracles the tests check the library against.

Everything here is deliberately naive: exhaustive polynomial families,
LP feasibility, brute-force colourings and permutation search.  None of it
shares code with the implementations under test, except the fixtures
`poly_zero`, `cycle_graph` and `one_vertex_looped`, which build the empty
series and two small graphs through the package's own constructors, and
`total_sw_class_from_blocks`, which multiplies the package's series but
reads each factor off the representation's matrices, not the closed form.
`lawler_colouring_reference` and `chromatic_number_upward` are the other
exception: earlier, plainer forms of the library's colouring search, kept
so that tests can pin its exact classes and witnesses.  So are
`cellular_betti_without_clearing`, the library's boundary reduction before
clearing (it reads the faces of a packed cell from `_cell_faces`), and
`hom_cells_by_growing`, its Hom cell enumeration before the last field was
listed by submasks.
"""

import functools
import itertools
from operator import neg
from typing import Optional, Sequence

import numpy as np

from stablekneser.charclasses import (ODD, TWO_MOD_4, GradedPoly, generator,
                                      one_plus, poly_one, ring_for)
from stablekneser.complexes import _cell_faces
from stablekneser.geometry import ZERO_TOL, representation
from stablekneser.graphs import Graph, graph_from_edges
from stablekneser.matroid import SignVector


def polynomial_sign_patterns(m: int, k: int) -> set:
    """Every sign vector of a degree-<=k real polynomial at points 0..m-1.

    Exhausts +-prod(t - c) over root multisets drawn from the half-integer
    grid {0, 1/2, 1, ..., m-1}.  Roots at sample points give zeros (use a
    double root for a zero without sign change); roots strictly between
    consecutive sample points only matter through their midpoint; roots
    outside [0, m-1] and complex-conjugate factors never change the pattern
    up to global sign.  Hence this family realizes every achievable
    pattern, and realizes nothing else by construction.
    """
    grid = [i / 2.0 for i in range(0, 2 * m - 1)]
    out = set()
    for d in range(0, k + 1):
        for roots in itertools.combinations_with_replacement(grid, d):
            vals = [1.0] * m
            for c in roots:
                for i in range(m):
                    vals[i] *= (i - c)
            sv = tuple(0 if v == 0 else (1 if v > 0 else -1) for v in vals)
            if all(v == 0 for v in sv):
                continue
            out.add(sv)
            out.add(tuple(-v for v in sv))
    return out


def lp_sign_feasible(s, k: int) -> bool:
    """LP feasibility of a degree-<=k polynomial with sign p(i) = s_i."""
    from scipy.optimize import linprog
    if k < 0:
        return False
    m = len(s)
    vander = np.vander(np.arange(m, dtype=float), k + 1, increasing=True)
    a_eq, a_ub = [], []
    for i, sv in enumerate(s):
        if sv == 0:
            a_eq.append(vander[i])
        else:
            a_ub.append(-sv * vander[i])
    res = linprog(
        c=np.zeros(k + 1),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=-np.ones(len(a_ub)) if a_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.zeros(len(a_eq)) if a_eq else None,
        bounds=[(None, None)] * (k + 1), method="highs")
    return res.status == 0


def minimal_degree_by_gap_parity(s) -> int:
    """Least degree of a real polynomial matching s at m increasing points.

    Each zero entry forces a root.  Between consecutive nonzero entries the
    forced roots flip the sign once each; when the flip parity disagrees
    with the required one, a single extra root is needed.
    """
    nz = [i for i, v in enumerate(s) if v != 0]
    if not nz:
        raise ValueError("zero sign vector")
    deg = len(s) - len(nz)
    for a, b in zip(nz, nz[1:]):
        zeros_between = b - a - 1
        differ = s[a] != s[b]
        if (differ and zeros_between % 2 == 0) or (not differ and zeros_between % 2 == 1):
            deg += 1
    return deg


def is_cocircuit(s, k: int) -> bool:
    """A covector with exactly k zeros, by the gap-parity degree."""
    return sum(1 for v in s if v == 0) == k and minimal_degree_by_gap_parity(s) <= k


def cocircuits_by_support_loop(m: int, k: int) -> list[tuple]:
    """Every cocircuit as a sorted list of sign tuples, one entry at a time.

    The k zeros are all the roots, so the signs alternate along the support
    (with the parity of j), up to a global flip.
    """
    out = []
    for zeros in itertools.combinations(range(m), k):
        support = [j for j in range(m) if j not in zeros]
        for first in (0, 1):
            s = [0] * m
            for t, j in enumerate(support):
                s[j] = -1 if (first ^ t ^ j) & 1 else 1
            out.append(tuple(s))
    out.sort()
    return out


def covectors_by_prefix_dfs(m: int, k: int) -> list[tuple]:
    """All covectors of C^{m,k+1} as sign tuples, lexicographic in the order (-1, 0, +1).

    Depth-first over entries of one shared prefix; the state is the side of
    the last nonzero entry and the degree so far, which only grows along a
    prefix, so branches above k are cut early.
    """
    out: list[tuple] = []
    prefix = [0] * m

    def rec(i: int, last: Optional[int], deg: int) -> None:
        if deg > k:
            return
        if i == m:
            if last is not None:
                out.append(tuple(prefix))
            return
        for v in (-1, 0, 1):
            prefix[i] = v
            if v == 0:
                rec(i + 1, last, deg + 1)
            else:
                side = (v < 0) ^ (i & 1)
                rec(i + 1, side, deg + (side == last))
        prefix[i] = 0

    rec(0, None, 0)
    return out


def random_polynomial_patterns(m: int, k: int, trials: int, seed: int) -> set:
    """Sign patterns of random degree-<=k polynomials (soundness direction)."""
    rng = np.random.default_rng(seed)
    t = np.arange(m, dtype=float)
    vander = np.vander(t, k + 1, increasing=True)
    out = set()
    for _ in range(trials):
        coeffs = rng.standard_t(df=2, size=k + 1)
        vals = vander @ coeffs
        if np.abs(vals).min() < 1e-9:
            continue
        out.add(tuple(1 if v > 0 else -1 for v in vals))
    return out


def negate(s: SignVector) -> SignVector:
    return tuple(map(neg, s))


def dihedral_sign_reference(s, shift: int, flip: bool) -> tuple:
    """Twisted dihedral action on a sign vector, one generator at a time.

    Applies (s.sigma)_j = -s_{j-1} `shift` times, then (s.rho)_j = s_{-j}
    if `flip`, where an index leaving 0..m-1 wraps around with the factor
    (-1)^m (s_{j+m} = (-1)^m s_j).
    """
    m = len(s)
    twist = -1 if m % 2 else 1
    out = list(s)
    for _ in range(shift % m):
        out = [-out[j - 1] if j else -twist * out[m - 1] for j in range(m)]
    if flip:
        out = [out[0]] + [twist * out[m - j] for j in range(1, m)]
    return tuple(out)


def dihedral_set_reference(members, m: int, shift: int, flip: bool) -> frozenset:
    """Right dihedral action on a subset of Z_m, member by member.

    Sends each member j to j + shift, then to its negative if `flip`.
    """
    out = {(j + shift) % m for j in members}
    if flip:
        out = {(-j) % m for j in out}
    return frozenset(out)


def equivariance_reference(n: int, k: int, covectors,
                           sign_action=dihedral_sign_reference) -> dict:
    """The combinatorial equivariance report, rebuilt from frozensets.

    A vertex of SG_{n,k} is a stable n-subset of Z_m (no two cyclically
    consecutive members) kept as a frozenset.  A covector's cell sends K_2
    vertex l to the set of vertices inside S_l(s) = {j : (-1)^j s_j =
    (-1)^l}.  sigma moves members j -> j + 1 and rho j -> -j; on sign
    vectors they act by sign_action(s, shift, flip).  Negation must swap
    the two sets.  Violations are (covector string, "sigma" / "rho" /
    "negation"), in covector order and then in that order.
    """
    m = 2 * n + k
    vertices = [frozenset(c) for c in itertools.combinations(range(m), n)
                if all((j + 1) % m not in c for j in c)]
    moves = [("sigma", 1, False, lambda j: (j + 1) % m),
             ("rho", 0, True, lambda j: -j % m)]

    @functools.cache
    def inside(side):
        return frozenset(v for v in vertices if v <= side)

    @functools.cache
    def moved(part, move):
        return frozenset(frozenset(map(move, v)) for v in part)

    cells = {}
    for s in covectors:
        twisted = [(-1) ** j * v for j, v in enumerate(s)]
        cells[s] = tuple(inside(frozenset(j for j, t in enumerate(twisted) if t == want))
                         for want in (1, -1))
    violations = []
    for s, cell in cells.items():
        names = [name for name, shift, flip, move in moves
                 if cells.get(sign_action(s, shift, flip))
                 != tuple(moved(part, move) for part in cell)]
        if cells.get(tuple(-v for v in s)) != cell[::-1]:
            names.append("negation")
        violations += [("".join("-0+"[v + 1] for v in s), name) for name in names]
    return {"n": n, "k": k, "m": m, "covectors_checked": len(cells),
            "violations": violations}


def brute_force_chromatic(adjacency, max_colours: int = 8) -> int:
    """Try every colouring, k = 1, 2, ... (tiny graphs only)."""
    n = len(adjacency)
    if n == 0:
        return 0
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if adjacency[i] >> j & 1]
    for k in range(1, max_colours + 1):
        for col in itertools.product(range(k), repeat=n):
            if all(col[i] != col[j] for i, j in edges):
                return k
    raise AssertionError("needs more than %d colours" % max_colours)


def dsatur_reference(g, order, kcol: int):
    """Exact k-colourability by saturation-ordered backtracking.

    Always branches on the uncoloured vertex seeing the most distinct
    neighbour colours (ties by degree, then the fixed order), and spends a
    fresh colour class at most once per node.  It branches on single
    vertices, not on colour classes, so it checks `graphs._k_colouring`
    by a different route: the two must agree on whether a colouring exists.
    """
    n = g.n
    colour = [-1] * n
    seen = [0] * n          # bitmask of neighbour colours per vertex
    rank = {v: i for i, v in enumerate(order)}
    degs = [g.degree(v) for v in range(n)]
    full = (1 << kcol) - 1

    def pick() -> int:
        best, best_key = -1, None
        for v in range(n):
            if colour[v] >= 0:
                continue
            key = (-seen[v].bit_count(), -degs[v], rank[v])
            if best < 0 or key < best_key:
                best, best_key = v, key
        return best

    def rec(coloured: int, used: int) -> bool:
        if coloured == n:
            return True
        v = pick()
        if seen[v] == full:
            return False
        limit = min(kcol, used + 1)
        row = g.adjacency[v]
        nbrs = [w for w in range(n) if row >> w & 1]
        for c in range(limit):
            if seen[v] >> c & 1:
                continue
            colour[v] = c
            touched = []
            for w in nbrs:
                if not (seen[w] >> c & 1):
                    seen[w] |= 1 << c
                    touched.append(w)
            if rec(coloured + 1, max(used, c + 1)):
                return True
            for w in touched:
                seen[w] &= ~(1 << c)
            colour[v] = -1
        return False

    if rec(0, 0):
        return colour
    return None


class _Rows:
    """Adjacency bitmask rows with the attributes `dsatur_reference` reads."""

    def __init__(self, adjacency):
        self.adjacency = tuple(adjacency)
        self.n = len(self.adjacency)

    def degree(self, v):
        return self.adjacency[v].bit_count()


def _chromatic_by_reference(g) -> int:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    kcol = 0
    while dsatur_reference(g, order, kcol) is None:
        kcol += 1
    return kcol


def critical_by_all_deletions(adjacency) -> bool:
    """Vertex criticality by deleting every vertex and recolouring from scratch."""
    full = (1 << len(adjacency)) - 1
    chi = _chromatic_by_reference(_Rows(adjacency))
    for v in range(len(adjacency)):
        if _chromatic_by_reference(induced_subgraph(adjacency, full ^ 1 << v)) >= chi:
            return False
    return True


def lawler_colouring_reference(adj: Sequence[int], mask: int, kcol: int) -> Optional[list[int]]:
    """At most kcol independent classes covering the vertices of mask, or None.

    Lawler's search as `graphs._k_colouring` runs it, written with a
    `min` over the pivot candidates, a fresh `adj[w] | 1 << w` per use and a
    member list per breadth-first layer.  It pins the classes the library's
    search returns and their order, not only whether they exist.
    """
    if not mask:
        return []
    if kcol <= 1:
        independent = kcol == 1 and all(adj[v] & mask == 0 for v in members(mask))
        return [mask] if independent else None
    if kcol == 2:
        return _two_colouring_reference(adj, mask)
    v = max(members(mask), key=lambda u: ((adj[u] & mask).bit_count(), -u))

    def extend(chosen: int, cand: int, done: int) -> Optional[list[int]]:
        # cand: vertices that may still join `chosen`; done: vertices
        # already branched on, so a set that could take one of them is
        # either not maximal or was tried before
        if not cand:
            if done:
                return None
            rest = lawler_colouring_reference(adj, mask & ~chosen, kcol - 1)
            return None if rest is None else [chosen] + rest
        # pivot u: branch only on u and its neighbours in cand, since a
        # maximal set without them would take u
        u = min(members(cand | done),
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


def _two_colouring_reference(adj: Sequence[int], mask: int) -> Optional[list[int]]:
    """The two sides of G[mask] by breadth-first search, or None if not bipartite."""
    sides = [0, 0]
    rest = mask
    while rest:
        frontier = rest & -rest
        same = other = 0
        while frontier:
            same |= frontier
            reach = 0
            for v in members(frontier):
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


def chromatic_number_upward(g) -> tuple[int, list[int]]:
    """(chi, witness) as `graphs.chromatic_number` gives them, deciding counts from 1 up.

    The same greedy bound, then `lawler_colouring_reference` at 1, 2, ...
    below it; the first count that succeeds is chi, and its classes colour
    the witness.
    """
    n = g.n
    if n == 0:
        return 0, []
    best = [-1] * n
    for v in sorted(range(n), key=lambda u: (-g.degree(u), u)):
        used = {best[w] for w in g.neighbours(v) if best[w] >= 0}
        c = 0
        while c in used:
            c += 1
        best[v] = c
    chi = max(best) + 1

    for kcol in range(1, chi):
        classes = lawler_colouring_reference(g.adjacency, (1 << n) - 1, kcol)
        if classes is not None:
            chi = kcol
            for c, cls in enumerate(classes):
                for v in members(cls):
                    best[v] = c
            break
    return chi, best


def induced_subgraph(adjacency, mask: int) -> _Rows:
    """The subgraph on the vertices of mask, renumbered 0, 1, ... in increasing order."""
    keep = [v for v in range(len(adjacency)) if mask >> v & 1]
    return _Rows([sum(1 << i for i, w in enumerate(keep) if adjacency[v] >> w & 1)
                  for v in keep])


def brute_force_automorphisms(adjacency) -> int:
    """Count adjacency-preserving permutations outright (tiny graphs only)."""
    n = len(adjacency)
    count = 0
    for perm in itertools.permutations(range(n)):
        if all((adjacency[i] >> j & 1) == (adjacency[perm[i]] >> perm[j] & 1)
               for i in range(n) for j in range(n)):
            count += 1
    return count


def hom_cells_by_product_filter(g_adjacency, h_adjacency) -> dict:
    """Every cell of Hom(G, H), dimension by cell, from all set tuples.

    Tries each tuple of nonempty target sets, one per source vertex, and
    keeps it when every pair over an edge of G (loops included) is an edge
    of H.  Cells are tuples of sorted target tuples (tiny graphs only).
    """
    gn, hn = len(g_adjacency), len(h_adjacency)
    edges = [(u, v) for u in range(gn) for v in range(u, gn)
             if g_adjacency[u] >> v & 1]
    subsets = [s for r in range(1, hn + 1)
               for s in itertools.combinations(range(hn), r)]
    out = {}
    for cell in itertools.product(subsets, repeat=gn):
        if all(h_adjacency[a] >> b & 1
               for u, v in edges for a in cell[u] for b in cell[v]):
            out[cell] = sum(len(s) - 1 for s in cell)
    return out


def tuple_cell_faces(cell: tuple[int, ...]):
    """The codimension-one faces of a cell given as one target mask per source
    vertex: one bit dropped from one mask of >= 2 bits."""
    for u, a in enumerate(cell):
        if a & (a - 1):
            head, tail = cell[:u], cell[u + 1:]
            rest = a
            while rest:
                low = rest & -rest
                rest ^= low
                yield head + (a ^ low,) + tail


def up_sets_by_predicate(elements: Sequence, leq) -> list[int]:
    """The bitmask up-sets of the order leq, one leq call per pair of elements.

    above[i] bit j iff leq(elements[i], elements[j]); refuses a predicate
    that is not reflexive, antisymmetric and transitive.
    """
    n = len(elements)
    above = [0] * n
    for i in range(n):
        for j in range(n):
            if leq(elements[i], elements[j]):
                above[i] |= 1 << j
    for i in range(n):
        if not (above[i] >> i & 1):
            raise ValueError("order not reflexive")
        for j in range(n):
            if above[i] >> j & 1:
                if i != j and above[j] >> i & 1:
                    raise ValueError("order not antisymmetric")
                if above[j] & ~above[i]:
                    raise ValueError("order not transitive")
    return above


def cycle_graph(length: int) -> Graph:
    return graph_from_edges(length, [(i, (i + 1) % length) for i in range(length)])


def one_vertex_looped() -> Graph:
    return Graph((1,))


def homomorphisms(g, h) -> list[tuple[int, ...]]:
    """All graph homomorphisms G -> H by backtracking."""
    gedges = [(u, v) for u in range(g.n) for v in range(g.n)
              if g.has_edge(u, v)]
    out: list[tuple[int, ...]] = []
    assign: list[int] = []

    def rec(u: int) -> None:
        if u == g.n:
            out.append(tuple(assign))
            return
        for t in range(h.n):
            ok = True
            for a, b in gedges:
                if a == u and b < u and not h.has_edge(t, assign[b]):
                    ok = False
                    break
                if b == u and a < u and not h.has_edge(assign[a], t):
                    ok = False
                    break
                if a == u and b == u and not h.has_edge(t, t):
                    ok = False
                    break
            if ok:
                assign.append(t)
                rec(u + 1)
                assign.pop()

    rec(0)
    return out


def stable_set_masks_by_recursion(n: int, m: int) -> list[int]:
    """Masks of the stable n-subsets of Z_m, one recursive call per set member.

    Sets containing 0 first (0 excludes 1 and m - 1), then the sets avoiding
    0; each run extends the mask in increasing member order, so both runs
    and their concatenation are lexicographic.
    """
    if m < 2 * n:
        return []
    out = []

    def rec(start: int, limit: int, mask: int, need: int) -> None:
        if need == 0:
            out.append(mask)
            return
        for j in range(start, limit - 2 * (need - 1) + 1):
            rec(j + 2, limit, mask | 1 << j, need - 1)

    rec(2, m - 2, 1, n - 1)
    rec(1, m - 1, 0, n)
    return out


def stable_set_count(n: int, m: int) -> int:
    """Closed form m/(m-n) * C(m-n, n)."""
    from math import comb
    if m < 2 * n:
        return 0
    return m * comb(m - n, n) // (m - n)


def members_by_range_scan(m: int, mask: int) -> tuple:
    return tuple(j for j in range(m) if mask >> j & 1)


def members(mask: int) -> tuple:
    """The members of the set with bitmask mask, lowest first."""
    return members_by_range_scan(mask.bit_length(), mask)


def mask_of(members) -> int:
    """The bitmask of a set of members."""
    return sum(1 << j for j in set(members))


def is_stable(m: int, mask: int) -> bool:
    """No two cyclically consecutive members of Z_m (wraparound pair included)."""
    rotated = (mask << 1 | mask >> (m - 1)) & ((1 << m) - 1)
    return mask & rotated == 0


def alternating_sums_by_set(member_tuples, vectors) -> np.ndarray:
    """Row per set: sum of (-1)^i v_i over its members, added one at a time."""
    rows = []
    for members in member_tuples:
        total = np.zeros(vectors.shape[1])
        for i in members:
            total += (-1) ** i * vectors[i]
        rows.append(total)
    return np.array(rows)


def curve_point_by_terms(t: float, m: int, k: int) -> np.ndarray:
    """The moment curve at one t, one angle and one cos/sin pair at a time."""
    if k % 2 == 0:
        out = [1.0]
        for l in range(1, k // 2 + 1):
            ang = 2.0 * np.pi * l * t / m
            out += [np.cos(ang), np.sin(ang)]
    else:
        out = []
        for l in range((k - 1) // 2 + 1):
            ang = (2 * l + 1) * np.pi * t / m
            out += [np.cos(ang), np.sin(ang)]
    return np.array(out)


def eq3_deviations_by_rows(vectors, sigma, rho) -> dict:
    """The three shift-identity deviations, one matrix-vector product and one
    norm per j, the curve read at each shifted index by curve_point_by_terms."""
    m, k = vectors.shape[0], vectors.shape[1] - 1

    def at(j):
        return curve_point_by_terms(float(j), m, k)

    sign = -1.0 if m % 2 else 1.0
    return {
        "sigma_shift": max(float(np.linalg.norm(sigma @ vectors[j] + at(j + 1))) for j in range(m)),
        "rho_flip": max(float(np.linalg.norm(rho @ vectors[j] - at(-j))) for j in range(m)),
        "periodicity": max(float(np.linalg.norm(at(j + m) - sign * vectors[j])) for j in range(m)),
    }


def max_edge_defect_by_row_blocks(masks, sums, rows: int = 64) -> float:
    """Max ||u_S + u_T|| over disjoint pairs S < T, u the normalized rows.

    Scans every pair: the Gram entries of a block of rows against the rows
    from the block on, disjointness read off the integer masks: int64 while
    every mask fits in 63 bits, Python ints (an object array) past that.
    """
    unit = sums / np.linalg.norm(sums, axis=1)[:, None]
    masks = np.array(masks, dtype=object if any(s >> 63 for s in masks) else np.int64)
    index = np.arange(len(masks))
    worst = 0.0
    for lo in range(0, len(masks), rows):
        hi = lo + rows
        edge = ((masks[lo:hi, None] & masks[lo:]) == 0) & (index[lo:] > index[lo:hi, None])
        if edge.any():
            worst = max(worst, 2.0 + 2.0 * float((unit[lo:hi] @ unit[lo:].T)[edge].max()))
    return float(np.sqrt(max(worst, 0.0)))


def zero_set_points_by_qr(signs, vectors) -> np.ndarray:
    """Unit points orthogonal to every zero-set vector of each sign row, up to
    sign: the last column of the complete Householder QR of the row's zero-set
    vectors taken as columns, stacked over all rows, which must share one zero
    count; +-e_k for rows with no zeros.  The solver the realization check
    used before the closed-form product of sines.
    """
    signs = np.asarray(signs, dtype=np.int8).reshape(-1, len(vectors))
    zeros = np.nonzero(signs == 0)[1].reshape(len(signs), -1)
    rows = vectors[zeros]
    return np.linalg.qr(np.swapaxes(rows, 1, 2), mode="complete")[0][:, :, -1]


def sampled_sign_patterns(vectors, samples: int, seed: int, zero_tol: float) -> dict:
    """Full-support sign rows of Gaussian points against the vectors, counted.

    Draws the points as a realization check would, then counts the distinct
    rows with np.unique(axis=0).
    """
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(samples, vectors.shape[1])) @ vectors.T
    signs = np.where(np.abs(vals) < zero_tol, 0, np.sign(vals)).astype(int)
    full = signs[~np.any(signs == 0, axis=1)]
    rows, counts = np.unique(full, axis=0, return_counts=True)
    return {tuple(int(v) for v in row): int(c) for row, c in zip(rows, counts)}


def first_stable_subset_by_search(allowed: Sequence[int], n: int, m: int) -> Optional[list]:
    allowed = sorted(allowed)

    def rec(chosen: list, start: int) -> Optional[list]:
        if len(chosen) == n:
            return list(chosen)
        for idx in range(start, len(allowed)):
            j = allowed[idx]
            if chosen:
                if j - chosen[-1] < 2:
                    continue
                if (chosen[0] - j) % m < 2:  # wraparound with the first pick
                    continue
            chosen.append(j)
            got = rec(chosen, idx + 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    return rec([], 0)


def euler_characteristic_consistent(f_vector, betti) -> bool:
    chi_f = sum((-1) ** d * f for d, f in enumerate(f_vector))
    chi_b = sum((-1) ** d * b for d, b in enumerate(betti))
    return chi_f == chi_b


def boundary_squared_is_zero(complex_obj) -> bool:
    """Each face's codim-1 faces are listed, and d(d(face)) = 0 over GF(2).

    Faces are vertex bitmasks, as SimplicialComplex.all_faces lists them;
    d drops one vertex bit, so d(d(face)) meets every codim-2 face twice.
    """
    byd = complex_obj.all_faces()
    for d, faces in byd.items():
        below = set(byd.get(d - 1, ()))
        for f in faces:
            verts = [1 << i for i in range(f.bit_length()) if f >> i & 1]
            if d and any(f & ~v not in below for v in verts):
                return False
            acc = set()
            for v in verts:
                for w in verts:
                    if w != v:
                        acc ^= {f & ~v & ~w}
            if d >= 2 and acc:
                return False
    return True


def gf2_rank_by_rows(rows) -> int:
    """Rank over GF(2) of bit-packed rows, eliminated in list order on the highest bit."""
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


def cellular_betti_without_clearing(cells: dict, width: int) -> tuple:
    """GF(2) Betti numbers of packed cells keyed by dimension, trailing zeros trimmed.

    Builds every row of every boundary, bottom dimension up, and ranks each
    boundary in full: no row is cleared.  Faces come from _cell_faces, which
    tests check against tuple_cell_faces.
    """
    top = max(cells, default=-1)
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        below = {c: i for i, c in enumerate(cells[d - 1])}
        rows = []
        for c in cells[d]:
            row = 0
            for f in _cell_faces(c, width):
                row ^= 1 << below[f]
            rows.append(row)
        ranks[d] = gf2_rank_by_rows(rows)
    betti = [len(cells[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def hom_cells_by_growing(g, h, max_cells: int = 10 ** 6) -> dict:
    """The packed cells of Hom(G, H) keyed by dimension, every field grown target by target.

    Backtracks over the source vertices, the last one included, and grows
    each set one target at a time, keeping only sets that leave every
    unassigned neighbour a nonempty common-neighbour set; a looped vertex
    takes looped, pairwise adjacent targets.  Refuses once more than
    max_cells cells are found.
    """
    adj = h.adjacency
    looped_targets = sum(1 << t for t in h.looped_vertices())
    loop = [g.has_loop(u) for u in range(g.n)]
    later = [[v for v in range(u + 1, g.n) if g.has_edge(u, v)]
             for u in range(g.n)]
    allowed = [looped_targets if loop[v] else (1 << h.n) - 1
               for v in range(g.n)]
    cells: dict[int, list[int]] = {}
    found = 0

    def grow(u: int, rem: int, s: int, common: int):
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


def poset_covers_and_minima(n: int, leq) -> tuple[list[list[int]], list[int]]:
    """Covers and minimal elements of the order leq on 0..n-1, one leq call per pair.

    covers[i] lists the j > i with no l strictly between, in increasing j;
    the minimal elements are the i with no j < i.
    """
    covers: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        ups = [j for j in range(n) if j != i and leq(i, j)]
        for j in ups:
            if not any(leq(i, l) and leq(l, j) for l in ups if l != j):
                covers[i].append(j)
    minima = [i for i in range(n) if not any(j != i and leq(j, i) for j in range(n))]
    return covers, minima


def z2_betti_by_frozensets(faces) -> tuple:
    """GF(2) Betti numbers of the complex the faces generate, trailing zeros trimmed.

    Lists every subface, builds each boundary row from the faces f - {v},
    and ranks the matrices with sympy over GF(2).
    """
    from sympy import GF, Matrix
    from sympy.polys.matrices import DomainMatrix
    byd: dict = {}
    for f in faces:
        for size in range(1, len(f) + 1):
            for sub in itertools.combinations(list(f), size):
                byd.setdefault(size - 1, set()).add(frozenset(sub))
    top = max(byd, default=-1)
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        below = {f: i for i, f in enumerate(byd[d - 1])}
        rows = [[0] * len(below) for _ in byd[d]]
        for row, f in zip(rows, byd[d]):
            for v in f:
                row[below[f - {v}]] = 1
        ranks[d] = DomainMatrix.from_Matrix(Matrix(rows)).convert_to(GF(2)).rank()
    betti = [len(byd[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def sign_vectors_orthogonal(s, v) -> bool:
    """Oriented-matroid orthogonality: products vanish or take both signs."""
    prods = {a * b for a, b in zip(s, v) if a * b != 0}
    return prods in (set(), {1, -1})


def is_dependence_pattern(s, k: int) -> bool:
    """LP oracle for matroid vectors: is s the sign pattern of a nonzero
    linear dependence among m moment-curve points in R^{k+1}?"""
    from scipy.optimize import linprog
    m = len(s)
    vander = np.vander(np.arange(m, dtype=float), k + 1, increasing=True)
    _, _, vt = np.linalg.svd(vander.T)
    null_basis = vt[k + 1:]  # rows span {lambda : sum lambda_i v_i = 0}
    if null_basis.shape[0] == 0:
        return False
    cols = null_basis.T  # lambda = cols @ y
    a_eq, a_ub = [], []
    for i, sv in enumerate(s):
        if sv == 0:
            a_eq.append(cols[i])
        else:
            a_ub.append(-sv * cols[i])
    res = linprog(
        c=np.zeros(cols.shape[1]),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=-np.ones(len(a_ub)) if a_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.zeros(len(a_eq)) if a_eq else None,
        bounds=[(None, None)] * cols.shape[1], method="highs")
    return res.status == 0


# ---------------------------------------------------------------------------
# graded GF(2) rings as plain sets of exponent tuples: the unpacked arithmetic
# the bit-packed charclasses.GradedPoly is checked against

TERM_GENS = {
    "ODD": ("a",),
    "TWO_MOD_4": ("a", "b"),
    "ZERO_MOD_4": ("x", "y", "u"),
    "CYCLIC_4": ("x", "u"),
}
TERM_DEGS = {
    "ODD": (1,),
    "TWO_MOD_4": (1, 1),
    "ZERO_MOD_4": (1, 1, 2),
    "CYCLIC_4": (1, 2),
}
# restriction name -> target ring, image exponent tuple per generator (None: 0)
TERM_RESTRICTIONS = {
    ("ZERO_MOD_4", "j"): ("CYCLIC_4", {"x": (1, 0), "y": (1, 0), "u": (0, 1)}),
    ("ZERO_MOD_4", "phi_rho"): ("ODD", {"x": (1,), "y": None, "u": None}),
    ("ZERO_MOD_4", "phi_sigma_rho"): ("ODD", {"x": None, "y": (1,), "u": None}),
    ("TWO_MOD_4", "phi_rho"): ("ODD", {"a": None, "b": (1,)}),
    ("TWO_MOD_4", "phi_sigma_m2"): ("ODD", {"a": (1,), "b": None}),
    ("CYCLIC_4", "phi_sigma_m2"): ("ODD", {"x": None, "u": (2,)}),
    ("ODD", "p"): ("CYCLIC_4", {"a": (1, 0)}),
    ("ODD", "phi_rho"): ("ODD", {"a": (1,)}),
}


def poly_zero(ring: str, max_degree: int) -> GradedPoly:
    return GradedPoly(ring, max_degree)


def term_degree(ring: str, mono) -> int:
    return sum(e * d for e, d in zip(mono, TERM_DEGS[ring]))


def term_ok(ring: str, mono) -> bool:
    """xy = 0 in ZERO_MOD_4, x^2 = 0 in CYCLIC_4."""
    if ring == "ZERO_MOD_4" and mono[0] > 0 and mono[1] > 0:
        return False
    if ring == "CYCLIC_4" and mono[0] > 1:
        return False
    return True


def term_monomials(ring: str, max_degree: int) -> list:
    """Every nonzero monomial of degree <= max_degree, in sorted order."""
    width = len(TERM_GENS[ring])
    return sorted(t for t in itertools.product(range(max_degree + 1), repeat=width)
                  if term_ok(ring, t) and term_degree(ring, t) <= max_degree)


def terms_mul(ring: str, max_degree: int, s, t) -> frozenset:
    acc = set()
    for t1 in s:
        for t2 in t:
            prod = tuple(e1 + e2 for e1, e2 in zip(t1, t2))
            if term_degree(ring, prod) <= max_degree and term_ok(ring, prod):
                acc ^= {prod}
    return frozenset(acc)


def terms_pow(ring: str, max_degree: int, s, e: int) -> frozenset:
    out = frozenset({(0,) * len(TERM_GENS[ring])})
    for _ in range(e):
        out = terms_mul(ring, max_degree, out, s)
    return out


def terms_invert(ring: str, max_degree: int, s) -> frozenset:
    """inv_d = sum over all 1 <= i <= d of s_i · inv_(d-i), every degree pair."""
    one = (0,) * len(TERM_GENS[ring])
    assert one in s
    by_deg = [frozenset(t for t in s if term_degree(ring, t) == d)
              for d in range(max_degree + 1)]
    inv = [frozenset({one})]
    for d in range(1, max_degree + 1):
        acc = frozenset()
        for i in range(1, d + 1):
            acc = acc ^ terms_mul(ring, max_degree, by_deg[i], inv[d - i])
        inv.append(acc)
    return frozenset().union(*inv)


def terms_restrict(ring: str, max_degree: int, s, name: str) -> frozenset:
    """Multiply out the generator images of each monomial in the target ring."""
    target, images = TERM_RESTRICTIONS[(ring, name)]
    one = (0,) * len(TERM_GENS[target])
    acc = frozenset()
    for mono in s:
        term = frozenset({one})
        for g, e in zip(TERM_GENS[ring], mono):
            image = frozenset() if images[g] is None else frozenset({images[g]})
            for _ in range(e):
                term = terms_mul(target, max_degree, term, image)
        acc = acc ^ term
    return acc


def terms_str(ring: str, s) -> str:
    """Sorted by (degree, exponent tuple); factors joined by a middle dot."""
    if not s:
        return "0"
    parts = []
    for t in sorted(s, key=lambda t: (term_degree(ring, t), t)):
        factors = [g if e == 1 else "%s^%d" % (g, e)
                   for g, e in zip(TERM_GENS[ring], t) if e]
        parts.append("·".join(factors) if factors else "1")
    return " + ".join(parts)


def _diag_sign_pattern(mat: np.ndarray) -> list[int]:
    off = mat - np.diag(np.diag(mat))
    if np.abs(off).max() > ZERO_TOL:
        raise ValueError("matrix is not diagonal")
    pattern = []
    for v in np.diag(mat):
        if abs(v - 1) < ZERO_TOL:
            pattern.append(1)
        elif abs(v + 1) < ZERO_TOL:
            pattern.append(-1)
        else:
            raise ValueError("diagonal entry %r is not +-1" % v)
    return pattern


def total_sw_class_from_blocks(n: int, k: int, max_degree: int = 64) -> GradedPoly:
    """Whitney-sum route: per-block classes read off the actual matrices.

    Independent of the closed form: the involutions' eigenvalue patterns on
    each rotation block decide the degree-1 and degree-2 contributions.
    """
    ring = ring_for(n, k)
    rep = representation(n, k)
    m = rep.m
    if ring == ODD:
        negatives = sum(1 for v in np.diag(rep.rho_matrix) if v < 0)
        return one_plus(ODD, max_degree, "a") ** negatives
    if ring == TWO_MOD_4:
        half_turn = np.linalg.matrix_power(rep.sigma_matrix, m // 2)
        eps_sigma = _diag_sign_pattern(half_turn)
        eps_rho = _diag_sign_pattern(rep.rho_matrix)
        w = poly_one(ring, max_degree)
        for e1, e2 in zip(eps_sigma, eps_rho):
            names = [name for name, e in (("a", e1), ("b", e2)) if e < 0]
            w = w * one_plus(ring, max_degree, *names)
        return w
    # ZERO_MOD_4: one line block then 2-dim rotation blocks
    half_turn = np.linalg.matrix_power(rep.sigma_matrix, m // 2)
    sigma_rho = rep.rho_matrix @ rep.sigma_matrix
    blocks = [(0, 1)] + [(2 * j - 1, 2 * j + 1) for j in range(1, k // 2 + 1)]
    w = poly_one(ring, max_degree)
    for lo, hi in blocks:
        det_rho = float(np.linalg.det(rep.rho_matrix[lo:hi, lo:hi]))
        det_srho = float(np.linalg.det(sigma_rho[lo:hi, lo:hi]))
        names = []
        if det_rho < 0:
            names.append("x")
        if det_srho < 0:
            names.append("y")
        w1 = one_plus(ring, max_degree, *names)
        if hi - lo == 2:
            blk = half_turn[lo:hi, lo:hi]
            if np.abs(blk + np.eye(2)).max() < ZERO_TOL:
                w1 = w1 + generator(ring, "u", max_degree)
            elif np.abs(blk - np.eye(2)).max() >= ZERO_TOL:
                raise ValueError("half turn is not +-identity on a block")
        w = w * w1
    return w
