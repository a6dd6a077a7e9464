"""Independent oracles the tests check the library against.

Everything here is deliberately naive: exhaustive polynomial families,
LP feasibility, brute-force colourings and permutation search.  None of it
shares code with the implementations under test, except the fixtures
`poly_zero`, `cycle_graph` and `one_vertex_looped`, which build the empty
series and two small graphs through the package's own constructors.
"""

import functools
import itertools
from operator import neg
from typing import Optional, Sequence

import numpy as np

from stablekneser.charclasses import GradedPoly
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
    chi = _chromatic_by_reference(_Rows(adjacency))
    for v in range(len(adjacency)):
        low = (1 << v) - 1
        rest = [row & low | row >> (v + 1) << v
                for w, row in enumerate(adjacency) if w != v]
        if _chromatic_by_reference(_Rows(rest)) >= chi:
            return False
    return True


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


def alternating_sums_by_set(member_tuples, vectors) -> np.ndarray:
    """Row per set: sum of (-1)^i v_i over its members, added one at a time."""
    rows = []
    for members in member_tuples:
        total = np.zeros(vectors.shape[1])
        for i in members:
            total += (-1) ** i * vectors[i]
        rows.append(total)
    return np.array(rows)


def max_edge_defect_by_pairs(masks, sums) -> float:
    """Max ||u_S + u_T|| over disjoint pairs S < T, u the normalized rows.

    Reads each pair's Gram entry one at a time.
    """
    unit = sums / np.linalg.norm(sums, axis=1)[:, None]
    gram = unit @ unit.T
    worst = 0.0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j] == 0:
                val = 2.0 + 2.0 * gram[i][j]
                if val > worst:
                    worst = val
    return float(np.sqrt(max(worst, 0.0)))


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
    """d(d(face)) accumulates every codim-2 face an even number of times."""
    byd = complex_obj.all_faces()
    for d, faces in byd.items():
        if d < 2:
            continue
        for f in faces:
            acc = set()
            for v in f:
                for w in f - {v}:
                    sub = f - {v} - {w}
                    acc ^= {sub}
            if acc:
                return False
    return True


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
