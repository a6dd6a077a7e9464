"""The alternating oriented matroid on m points of the moment curve.

Sign vectors over {-1, 0, +1}; a covector is a sign pattern attained by a
real polynomial of degree <= k at m increasing points.  Entry j != 0 lies
on side (s_j < 0) ^ (j & 1) (side_masks), and the degree rule, the
cocircuits and the dihedral action are all stated in these sides
(Bjorner et al., Oriented Matroids, 9.4).  Inside the package a covector
is its pair of side bitmasks (S_0, S_1), one row of the two numpy arrays
that covector_sides builds entry by entry, and the cocircuits are the int8
rows of enumerate_cocircuits; tuples over {-1, 0, +1}
(sign_vector_from_sides) appear only where sign vectors are parsed,
rendered or reported.  The membership test, minimal_degree and is_covector,
takes one sign vector or a 2-D array of sign rows and states the degree
rule once, for all rows at once; it is validated elsewhere against an
exhaustive polynomial oracle and against the geometric realization.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Optional, Sequence

import numpy as np

from .graphs import DihedralElement, permute_mask, position_map

SignVector = tuple[int, ...]

_CHARS = {-1: "-", 0: "0", 1: "+"}
_VALS = {"-": -1, "0": 0, "+": 1}


def parse_sign_vector(text: str) -> SignVector:
    """Parse a string over '+', '-', '0' such as '++0-'; spaces at either end are ignored."""
    text = text.strip()
    for i, c in enumerate(text):
        if c not in _VALS:
            raise ValueError("bad sign %r at position %d of %r; expected '+', '-' or '0'"
                             % (c, i, text))
    return tuple(_VALS[c] for c in text)


def render_sign_vector(s: SignVector) -> str:
    return "".join(_CHARS[v] for v in s)


def side_masks(s: SignVector) -> tuple[int, int]:
    """Bitmasks of S_0(s) and S_1(s): j is in S_l when (-1)^j s_j = (-1)^l."""
    masks = [0, 0]
    for j, v in enumerate(s):
        if v:
            masks[(v < 0) ^ (j & 1)] |= 1 << j
    return masks[0], masks[1]


def sign_vector_from_sides(m: int, s0: int, s1: int) -> SignVector:
    """The sign vector of length m with sides S_0 = s0 and S_1 = s1; inverts side_masks.

    An entry j in S_l is (-1)^(j+l), so s_j = (-1)^j ([j in S_0] - [j in S_1]).
    """
    if s0 & s1 or (s0 | s1) >> m:
        raise ValueError("side masks %#x and %#x are not disjoint subsets of Z_%d"
                         % (s0, s1, m))
    return tuple((1 - 2 * (j & 1)) * ((s0 >> j & 1) - (s1 >> j & 1)) for j in range(m))


def minimal_degree(s: SignVector | np.ndarray) -> int | np.ndarray:
    """Least degree of a real polynomial matching s at m increasing points.

    Each zero entry forces a root.  With no other root between consecutive
    nonzero entries a < b, s_b = (-1)^(b-a-1) s_a puts them on opposite
    sides, so each consecutive nonzero pair on one side needs one more root.
    s is one sign vector, giving an int, or a 2-D array of sign rows, giving
    the array of their degrees, all rows at once: each nonzero entry j is
    coded 2j + 2 + its side, so the running maximum along a row is its last
    nonzero entry so far, and 0 before the first.  A zero vector or row is
    refused, naming it.
    """
    rows = np.asarray(s)
    if rows.ndim not in (1, 2):
        raise ValueError("minimal_degree needs a sign vector or a 2-D array of sign rows, "
                         "got shape %s" % (rows.shape,))
    rows = np.atleast_2d(rows)
    nonzero = rows != 0
    zero_rows = np.flatnonzero(~nonzero.any(axis=1))
    if len(zero_rows):
        i = zero_rows[0]
        raise ValueError("the zero sign vector %r%s has no minimal degree"
                         % (render_sign_vector(rows[i].tolist()),
                            "" if np.ndim(s) == 1 else " at row %d" % i))
    j = np.arange(rows.shape[1])
    side = (rows < 0) ^ (j & 1).astype(bool)
    last = np.maximum.accumulate(np.where(nonzero, 2 * j + 2 + side, 0), axis=1)[:, :-1]
    same = nonzero[:, 1:] & (last > 0) & ((last & 1) == side[:, 1:])
    degrees = len(j) - nonzero.sum(axis=1) + same.sum(axis=1)
    return int(degrees[0]) if np.ndim(s) == 1 else degrees


def is_covector(s: SignVector | np.ndarray, k: int) -> bool | np.ndarray:
    """Is s a covector of C^{m,k+1}: nonzero, of minimal_degree at most k?

    One sign vector gives a bool, a 2-D array of sign rows a bool array,
    False at its zero rows.
    """
    rows = np.asarray(s)
    if rows.ndim != 2:
        return bool(rows.any()) and minimal_degree(rows) <= k
    nonzero = rows.any(axis=1)
    ok = np.zeros(len(rows), dtype=bool)
    ok[nonzero] = minimal_degree(rows[nonzero]) <= k
    return ok


def check_instance(m: int, k: int) -> None:
    """Refuse (m, k) unless 0 <= k < m, the range where C^{m,k+1} is defined."""
    if not 0 <= k < m:
        raise ValueError("C^{m,k+1} needs 0 <= k < m, got (m, k) = (%d, %d)" % (m, k))


def count_covectors(m: int, k: int) -> int:
    """Number of nonzero covectors of C^{m,k+1}, without listing them.

    The matroid is uniform of rank r = k+1.  A covector with zero set Z,
    |Z| = z < r, is a tope of the contraction by Z, uniform of rank r - z on
    m - z elements, which has 2 * sum_{i < r-z} C(m-z-1, i) topes
    (Zaslavsky; Bjorner et al., Oriented Matroids, 4.6 and 9.4).
    """
    check_instance(m, k)
    r = k + 1
    return sum(comb(m, z) * 2 * sum(comb(m - z - 1, i) for i in range(r - z))
               for z in range(r))


# The most covectors covector_sides lists: about 2 GB, as the equivariance
# check's peak resident memory grows by 57-64 bytes per covector (measured
# at m = 13 and 14); the tuple view, enumerate_covectors, takes about 300
MAX_COVECTORS = 35 * 10 ** 6


def covector_sides(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The side masks of every covector of C^{m,k+1}, as two arrays (S_0, S_1).

    In enumerate_covectors order: lexicographic in the entries, each taken
    in the order (-1, 0, +1).  Built one entry at a time; a prefix's state
    is the side of its last nonzero entry (2 before the first), its degree,
    which only grows along a prefix, so children above k are dropped, and
    its two masks.  Its -1, 0 and +1 children follow it in that order.  The
    masks are int64 while the key S_0 | S_1 << m fits (2m <= 62), Python
    ints in object arrays from m = 32 on.  Refuses more than MAX_COVECTORS,
    which leaves k < 16 (count_covectors(k + 1, k) = 3^(k+1) - 1), so the
    degrees fit int8.
    """
    count = count_covectors(m, k)
    if count > MAX_COVECTORS:
        raise ValueError("refusing (m, k) = (%d, %d): %d covectors, more than %d"
                         % (m, k, count, MAX_COVECTORS))
    dtype = np.int64 if 2 * m <= 62 else object
    last, deg = np.array([2], np.int8), np.zeros(1, np.int8)
    s0, s1 = np.zeros(1, dtype), np.zeros(1, dtype)
    for i in range(m):
        side = np.array([1 - (i & 1), 2, i & 1], np.int8)   # the entry -1, 0, +1
        child_deg = deg[:, None] + np.where(side == 2, np.int8(1), side == last[:, None])
        keep = (child_deg <= k).ravel()
        last = np.where(side == 2, last[:, None], side).ravel()[keep]
        deg = child_deg.ravel()[keep]
        bits = np.array([[0, 0, 1 << i], [1 << i, 0, 0]][i & 1], dtype)
        s0, s1 = (s0[:, None] | bits).ravel()[keep], (s1[:, None] | bits[::-1]).ravel()[keep]
    return s0, s1


def enumerate_covectors(m: int, k: int) -> list[SignVector]:
    """All covectors of C^{m,k+1} as sign vectors, lexicographic in the order (-1, 0, +1).

    The tuple view of covector_sides: s_j = (-1)^j ([j in S_0] - [j in S_1]).
    """
    s0, s1 = covector_sides(m, k)
    j = np.arange(m)[:, None]
    signs = (((s0 >> j & 1) - (s1 >> j & 1)) * (1 - 2 * (j & 1))).astype(np.int8)
    return list(zip(*signs.tolist()))   # signs holds one row per entry


def enumerate_cocircuits(m: int, k: int) -> np.ndarray:
    """Covectors with exactly k zeros: 2*C(m,k) sorted int8 rows, rows[::-1] == -rows.

    Built directly: the k zeros are all the roots, so the sides alternate
    along the support, which fixes the signs up to a global flip.  The
    rows whose first nonzero entry is -1 sort before all the others, so
    they are sorted alone and followed by their negations, reversed.
    """
    check_instance(m, k)
    zeros = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), k)),
                        dtype=np.intp, count=comb(m, k) * k).reshape(comb(m, k), k)
    zero = np.zeros((len(zeros), m), dtype=bool)
    np.put_along_axis(zero, zeros, True, axis=1)
    # entry j is -1 when j, its 1-based rank in the support and the first
    # support index have an odd sum; uint8 sums keep their parity
    odd = (np.cumsum(~zero, axis=1, dtype=np.uint8) + (np.arange(m) & 1).astype(np.uint8)
           + np.argmax(~zero, axis=1).astype(np.uint8)[:, None]) & 1
    signs = np.where(zero, 0, 1 - 2 * odd.view(np.int8))
    signs = signs[np.lexsort(signs.T[::-1])]
    return np.concatenate([signs, -signs[::-1]])


def cocircuit_count(m: int, k: int) -> int:
    return 2 * comb(m, k)


def is_vector(s: SignVector, k: int) -> bool:
    """Vector of C^{m,k+1}: an alternating nonzero subsequence of length k+2.

    The longest alternating subsequence picks one entry per maximal block
    of equal consecutive signs, so it has the length of the block count.
    """
    if all(v == 0 for v in s):
        raise ValueError("the zero sign vector %r is not a vector" % render_sign_vector(s))
    nz = [v for v in s if v != 0]
    blocks = 1 + sum(1 for a, b in zip(nz, nz[1:]) if a != b)
    return blocks >= k + 2


def covector_leq(s: SignVector, t: SignVector) -> bool:
    """Coordinatewise order: s_i = 0 or s_i = t_i."""
    if len(s) != len(t):
        raise ValueError("covector_leq needs sign vectors of one length, got %d and %d"
                         % (len(s), len(t)))
    return all(a == 0 or a == b for a, b in zip(s, t))


def dihedral_act_sign(s: SignVector, g: DihedralElement,
                      k: Optional[int] = None) -> SignVector:
    """Right dihedral action on sign vectors.

    Entry i moves to the position graphs.dihedral_act moves i to and changes
    sign when it moves by an odd distance, so the sides S_0(s), S_1(s) move
    as circular sets: each side mask is permuted under position_map.  With
    s extended to Z by the sign twist s_{j+m} = (-1)^m s_j this is
    (s.sigma)_j = -s_{j-1}, (s.rho)_j = s_{-j}.
    Commutes with taking sign vectors of points under the moment-curve
    action and with the covector-to-Hom map.  When k is given the input
    must be a covector and m - k even (m = 2n + k): the twist (-1)^m then
    matches the moment curve's (-1)^k, and C^{m,k+1} is preserved.
    """
    m = g.m
    if len(s) != m:
        raise ValueError("length %d does not match modulus %d" % (len(s), m))
    if k is not None and (m - k) % 2:
        raise ValueError("m = %d and k = %d differ in parity: the twisted action "
                         "does not preserve C^{m,k+1}" % (m, k))
    if k is not None and not is_covector(s, k):
        raise ValueError("not a covector: %s" % render_sign_vector(s))
    pos = position_map(m, g.shift, g.flip)
    return sign_vector_from_sides(m, *(permute_mask(x, pos) for x in side_masks(s)))


FREE = None  # free slot marker in partial sign vectors


def covector_extension_feasible(partial: Sequence[Optional[int]], k: int) -> bool:
    """Can the free slots be filled so the result is a covector of C^{m,k+1}?

    Dynamic programme over positions; the state is the side of the last
    nonzero entry (None before the first), the value the least accumulated
    degree.  An all-free pattern is feasible for every k >= 0 (constant
    signs).
    """
    m = len(partial)
    if m <= k:
        raise ValueError("covector extension needs m > k, got (m, k) = (%d, %d)" % (m, k))
    states: dict[Optional[int], int] = {None: 0}
    for j, entry in enumerate(partial):
        choices = (-1, 0, 1) if entry is FREE else (entry,)
        nxt: dict[Optional[int], int] = {}
        for last, deg in states.items():
            for v in choices:
                side, d = last, deg + 1
                if v:
                    side = (v < 0) ^ (j & 1)
                    d = deg + (side == last)
                if d <= k and d < nxt.get(side, k + 1):
                    nxt[side] = d
        states = nxt
        if not states:
            return False
    return any(last is not None for last in states)
