"""The alternating oriented matroid on m points of the moment curve.

Sign vectors over {-1, 0, +1}; a covector is a sign pattern attained by a
real polynomial of degree <= k at m increasing points.  Entry j != 0 lies
on side (s_j < 0) ^ (j & 1) (side_masks), and the degree rule, the
cocircuits and the dihedral action are all stated in these sides
(Bjorner et al., Oriented Matroids, 9.4).  Inside the package a covector
is the pair of side bitmasks (S_0, S_1) that covector_sides enumerates;
tuples over {-1, 0, +1} (sign_vector_from_sides) appear only where sign
vectors are parsed, rendered or reported.  The membership test is validated
elsewhere against an exhaustive polynomial oracle and against the geometric
realization.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import sub
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

    An entry j in S_l is (-1)^(j+l), so s_j = (-1)^j ([j in S_0] - [j in S_1]),
    read four entries at a time from _NIBBLE_SIGNS.
    """
    if s0 & s1 or (s0 | s1) >> m:
        raise ValueError("side masks %#x and %#x are not disjoint subsets of Z_%d"
                         % (s0, s1, m))
    out = _NIBBLE_SIGNS[s0 & 15 | (s1 & 15) << 4]
    while len(out) < m:
        s0 >>= 4
        s1 >>= 4
        out += _NIBBLE_SIGNS[s0 & 15 | (s1 & 15) << 4]
    return out[:m]


# entries j..j+3, j even, of the sign vector whose sides hold the nibbles a
# (S_0) and b (S_1) there, at index a | b << 4: (-1)^j ([j in a] - [j in b])
_SIDE0_NIBBLE = [tuple((a >> j & 1) * (1 - 2 * (j & 1)) for j in range(4)) for a in range(16)]
_NIBBLE_SIGNS = tuple(tuple(map(sub, a, b))
                      for b, a in itertools.product(_SIDE0_NIBBLE, repeat=2))


def minimal_degree(s: SignVector) -> int:
    """Least degree of a real polynomial matching s at m increasing points.

    Each zero entry forces a root.  With no other root between consecutive
    nonzero entries a < b, s_b = (-1)^(b-a-1) s_a puts them on opposite
    sides, so each consecutive nonzero pair on one side needs one more root.
    """
    if not any(s):
        raise ValueError("zero sign vector")
    deg, last = 0, None
    for j, v in enumerate(s):
        if v:
            side = (v < 0) ^ (j & 1)
            deg += side == last
            last = side
        else:
            deg += 1
    return deg


def is_covector(s: SignVector, k: int) -> bool:
    return any(s) and minimal_degree(s) <= k


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


def covector_sides(m: int, k: int) -> list[tuple[int, int]]:
    """The side masks (S_0, S_1) of every covector of C^{m,k+1}.

    In enumerate_covectors order: lexicographic in the entries, each taken
    in the order (-1, 0, +1).  Depth-first over entries; the state is the
    side of the last nonzero entry, the degree so far, which only grows
    along a prefix, so branches above k are cut early, and the two masks.
    """
    check_instance(m, k)
    out: list[tuple[int, int]] = []

    def rec(i: int, last: Optional[int], deg: int, s0: int, s1: int) -> None:
        if i == m:
            if last is not None:
                out.append((s0, s1))
            return
        bit = 1 << i
        for side in (1 - (i & 1), None, i & 1):   # the entry -1, 0, +1
            if side is None:
                if deg < k:
                    rec(i + 1, last, deg + 1, s0, s1)
            elif deg + (side == last) <= k:
                if side:
                    rec(i + 1, 1, deg + (last == 1), s0, s1 | bit)
                else:
                    rec(i + 1, 0, deg + (last == 0), s0 | bit, s1)

    rec(0, None, 0, 0, 0)
    return out


def enumerate_covectors(m: int, k: int) -> list[SignVector]:
    """All covectors of C^{m,k+1} as sign vectors, lexicographic in the order (-1, 0, +1)."""
    return [sign_vector_from_sides(m, s0, s1) for s0, s1 in covector_sides(m, k)]


def enumerate_cocircuits(m: int, k: int) -> list[SignVector]:
    """Covectors with exactly k zeros; 2*C(m,k) of them.

    Built directly: the k zeros are all the roots, so the sides alternate
    along the support, which fixes the signs up to a global flip.
    """
    check_instance(m, k)
    zeros = np.array(list(itertools.combinations(range(m), k)),
                     dtype=np.intp).reshape(comb(m, k), k)
    zero = np.zeros((len(zeros), m), dtype=bool)
    np.put_along_axis(zero, zeros, True, axis=1)
    t = np.cumsum(~zero, axis=1) - 1   # index of entry j within the support
    signs = np.where(zero, 0, 1 - 2 * ((t ^ np.arange(m)) & 1)).astype(np.int8)
    signs = np.concatenate([signs, -signs])
    return list(map(tuple, signs[np.lexsort(signs.T[::-1])].tolist()))


def cocircuit_count(m: int, k: int) -> int:
    return 2 * comb(m, k)


def is_vector(s: SignVector, k: int) -> bool:
    """Vector of C^{m,k+1}: an alternating nonzero subsequence of length k+2.

    The longest alternating subsequence picks one entry per maximal block
    of equal consecutive signs, so it has the length of the block count.
    """
    if all(v == 0 for v in s):
        raise ValueError("zero sign vector")
    nz = [v for v in s if v != 0]
    blocks = 1 + sum(1 for a, b in zip(nz, nz[1:]) if a != b)
    return blocks >= k + 2


def covector_leq(s: SignVector, t: SignVector) -> bool:
    """Coordinatewise order: s_i = 0 or s_i = t_i."""
    if len(s) != len(t):
        raise ValueError("length mismatch")
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
        raise ValueError("need m > k")
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
