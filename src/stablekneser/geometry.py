"""Orthogonal dihedral representations and trigonometric moment configurations.

The m configuration vectors in R^{k+1} realize the alternating oriented
matroid and intertwine the dihedral matrices with index shifts; every
floating-point check reports its maximum deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import CircularSet, DihedralElement, enumerate_stable_sets
from .matroid import (SignVector, check_instance, enumerate_cocircuits,
                      enumerate_covectors, is_covector, render_sign_vector,
                      side_masks)


class RealizationError(RuntimeError):
    """A geometric check contradicted the combinatorial covector rule."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


def _rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class OrthogonalRep:
    """The (k+1)-dimensional orthogonal right action of D_{2m}.

    x.g is matrix(g) @ x; tau acts by global negation.  For even k the
    shift generator is -diag(1, R_{2pi/m}, ..., R_{k pi/m}); for odd k it
    is -diag(R_{pi/m}, R_{3pi/m}, ..., R_{k pi/m}), with the reflection
    diag(1, [1,-1]...) resp. diag([1,-1]...).
    """

    n: int
    k: int
    sigma_matrix: np.ndarray
    rho_matrix: np.ndarray

    @property
    def m(self) -> int:
        return 2 * self.n + self.k

    @property
    def dim(self) -> int:
        return self.k + 1

    def matrix(self, g: DihedralElement) -> np.ndarray:
        if g.m != self.m:
            raise ValueError("modulus mismatch")
        out = np.linalg.matrix_power(self.sigma_matrix, g.shift % self.m)
        if g.flip:
            out = self.rho_matrix @ out
        return out

    def relation_deviations(self) -> dict[str, float]:
        eye = np.eye(self.dim)
        sig, rho = self.sigma_matrix, self.rho_matrix
        srs = rho @ sig
        return {
            "sigma_orthogonal": float(np.abs(sig.T @ sig - eye).max()),
            "rho_orthogonal": float(np.abs(rho.T @ rho - eye).max()),
            "sigma_order_m": float(np.abs(np.linalg.matrix_power(sig, self.m) - eye).max()),
            "rho_involution": float(np.abs(rho @ rho - eye).max()),
            "sigma_rho_involution": float(np.abs(srs @ srs - eye).max()),
        }


def representation(n: int, k: int) -> OrthogonalRep:
    if n < 1 or k < 0:
        raise ValueError("the representation of D_{2m} needs n >= 1 and k >= 0, "
                         "got (n, k) = (%d, %d)" % (n, k))
    m = 2 * n + k
    dim = k + 1
    sigma = np.zeros((dim, dim))
    if k % 2 == 0:
        r = k // 2
        sigma[0, 0] = 1.0
        for l in range(1, r + 1):
            sigma[2 * l - 1: 2 * l + 1, 2 * l - 1: 2 * l + 1] = _rotation(2 * np.pi * l / m)
        rho_diag = [1.0] + [1.0, -1.0] * r
    else:
        r = (k - 1) // 2
        for l in range(r + 1):
            sigma[2 * l: 2 * l + 2, 2 * l: 2 * l + 2] = _rotation((2 * l + 1) * np.pi / m)
        rho_diag = [1.0, -1.0] * (r + 1)
    return OrthogonalRep(n, k, -sigma, np.diag(rho_diag))


@dataclass(frozen=True)
class MomentConfig:
    """Vectors v_0..v_{m-1} on the trigonometric moment curve in R^{k+1}."""

    m: int
    k: int
    vectors: np.ndarray

    @property
    def n(self) -> Optional[int]:
        return (self.m - self.k) // 2 if (self.m - self.k) % 2 == 0 else None

    def vector(self, j: int) -> np.ndarray:
        """v_j for any integer j via the curve formula (not reduced mod m)."""
        return _curve_point(float(j), self.m, self.k)


def _curve_point(t: float, m: int, k: int) -> np.ndarray:
    if k % 2 == 0:
        r = k // 2
        out = [1.0]
        for l in range(1, r + 1):
            ang = 2.0 * np.pi * l * t / m
            out += [np.cos(ang), np.sin(ang)]
    else:
        r = (k - 1) // 2
        out = []
        for l in range(r + 1):
            ang = (2 * l + 1) * np.pi * t / m
            out += [np.cos(ang), np.sin(ang)]
    return np.array(out)


def config_for(m: int, k: int) -> MomentConfig:
    """Configuration keyed on (m, k); n need not be integral here."""
    check_instance(m, k)
    vecs = np.array([_curve_point(float(j), m, k) for j in range(m)])
    return MomentConfig(m, k, vecs)


def moment_vectors(n: int, k: int) -> MomentConfig:
    if n < 1 or k < 0:
        raise ValueError("the moment configuration needs n >= 1 and k >= 0, "
                         "got (n, k) = (%d, %d)" % (n, k))
    return config_for(2 * n + k, k)


def eq3_deviations(config: MomentConfig, rep: OrthogonalRep) -> dict[str, float]:
    """Max deviations of the three shift identities over all j."""
    m = config.m
    v = config.vectors
    dev_sigma = max(
        float(np.linalg.norm(rep.sigma_matrix @ v[j] + config.vector(j + 1)))
        for j in range(m))
    dev_rho = max(
        float(np.linalg.norm(rep.rho_matrix @ v[j] - config.vector(-j)))
        for j in range(m))
    sign = -1.0 if m % 2 else 1.0
    dev_period = max(
        float(np.linalg.norm(config.vector(j + m) - sign * v[j]))
        for j in range(m))
    return {"sigma_shift": dev_sigma, "rho_flip": dev_rho, "periodicity": dev_period}


def sign_vector_of_point(x: np.ndarray, config: MomentConfig,
                         zero_tol: float = 1e-9) -> SignVector:
    vals = config.vectors @ np.asarray(x, dtype=float)
    return tuple(0 if abs(t) < zero_tol else (1 if t > 0 else -1) for t in vals)


_REALIZE_BLOCK = 1 << 12   # sign vectors per stacked complete QR, points per sampled block


def _realize_zero_sets(vectors: Sequence[SignVector], config: MomentConfig,
                       zero_tol: float = 1e-9) -> np.ndarray:
    """Unit points with the given sign vectors, one row each, via their zero sets.

    The vectors must share one zero count z <= k.  Each point is the last
    column of the complete Householder QR of its z zero-set rows taken as
    columns, a unit vector orthogonal to all of them, negated when that
    gives the target sign vector; the QRs run stacked, a block of vectors at
    a time.  Raises RealizationError naming the first vector, in the given
    order, that neither the point nor its negative realizes.
    """
    signs = np.array(vectors, dtype=int).reshape(len(vectors), config.m)
    zeros = np.nonzero(signs == 0)[1].reshape(len(signs), -1)
    if not zeros.shape[1]:
        raise ValueError("no zero entries to solve for; use a sampled point")
    points = np.empty((len(signs), config.k + 1))
    for lo in range(0, len(signs), _REALIZE_BLOCK):
        block = slice(lo, lo + _REALIZE_BLOCK)
        rows = config.vectors[zeros[block]]
        x = np.linalg.qr(np.swapaxes(rows, 1, 2), mode="complete")[0][:, :, -1]
        vals = x @ config.vectors.T
        got = np.where(np.abs(vals) < zero_tol, 0, np.sign(vals)).astype(int)
        direct = (got == signs[block]).all(axis=1)
        negated = (got == -signs[block]).all(axis=1)
        if not (direct | negated).all():
            i = int(np.argmin(direct | negated))
            s = render_sign_vector(vectors[lo + i])
            raise RealizationError("cocircuit %s not realized by its zero set" % s,
                                   {"cocircuit": s, "got": render_sign_vector(tuple(got[i]))})
        points[block] = np.where(direct[:, None], x, -x)
    return points


def _tope_witness(s: SignVector, config: MomentConfig,
                  max_steps: int = 200000) -> Optional[np.ndarray]:
    """A point with sign vector s, or None.

    Perceptron iteration on the strict system s_j <x, v_j> > 0; converges
    whenever the open cone is nonempty, so a None for an actual covector
    would falsify the realization.
    """
    rows = np.array(s, dtype=float)[:, None] * config.vectors
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    x, *_ = np.linalg.lstsq(config.vectors, np.array(s, dtype=float), rcond=None)
    if not np.linalg.norm(x):
        x = rows.sum(axis=0)
    for _ in range(max_steps):
        prods = rows @ x
        worst = int(np.argmin(prods))
        if prods[worst] > 1e-12:
            return x / np.linalg.norm(x)
        x = x + rows[worst]
    return None


def _merge_counts(codes: np.ndarray, counts: np.ndarray,
                  block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of codes and block, sorted, with their counts.

    codes holds distinct rows with counts; each row of block counts once.
    """
    codes = np.concatenate([codes, block])
    counts = np.concatenate([counts, np.ones(len(block), dtype=counts.dtype)])
    order = np.lexsort(codes.T)
    codes, counts = codes[order], counts[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = (codes[1:] != codes[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return codes[starts], np.add.reduceat(counts, starts)


def verify_realization(m: int, k: int, samples: int = 100000,
                       seed: int = 0, zero_tol: float = 1e-9) -> dict:
    """Cross-validate the covector rule against the geometric configuration.

    (a) every sampled generic sign vector satisfies the covector rule;
    (b) for m <= 8, k <= 4 the full-support sign patterns found (random
        samples plus one targeted witness per covector) are exactly the
        zero-free covectors;
    (c) every cocircuit is realized by solving its zero set.
    Any discrepancy raises RealizationError.  The points of (a) are drawn
    _REALIZE_BLOCK at a time, the same stream as one draw, and only the
    distinct sign patterns are kept between blocks, so memory follows the
    number of distinct patterns, not samples.  A negative samples or seed,
    or a zero_tol that is not finite and positive, is refused before any
    sampling.
    """
    config = config_for(m, k)
    if samples < 0:
        raise ValueError("realization of (m, k) = (%d, %d) needs samples >= 0, got %d"
                         % (m, k, samples))
    if not 0 < zero_tol < np.inf:
        raise ValueError("realization of (m, k) = (%d, %d) needs a finite zero_tol > 0, "
                         "got %r" % (m, k, zero_tol))
    if seed < 0:
        raise ValueError("realization of (m, k) = (%d, %d) needs seed >= 0, got %d"
                         % (m, k, seed))
    rng = np.random.default_rng(seed)
    report: dict = {"m": m, "k": k, "samples": samples, "seed": seed}

    # each full-support row as little-endian uint64 words, bit j set when
    # sign j is +; only the distinct words seen so far are kept between blocks
    words = -(-m // 64)
    codes = np.zeros((0, words), dtype="<u8")
    counts = np.zeros(0, dtype=np.int64)
    for lo in range(0, samples, _REALIZE_BLOCK):
        size = min(_REALIZE_BLOCK, samples - lo)
        vals = rng.normal(size=(size, k + 1)) @ config.vectors.T
        plus = vals[(np.abs(vals) >= zero_tol).all(axis=1)] > 0
        block = np.packbits(np.pad(plus, ((0, 0), (0, 64 * words - m))), axis=1,
                            bitorder="little").view("<u8")
        codes, counts = _merge_counts(codes, counts, block)
    seen = set()
    non_covector = 0
    plus = np.unpackbits(codes.view(np.uint8), axis=1, count=m, bitorder="little")
    rows = np.where(plus, 1, -1).tolist()
    for s, count in zip(map(tuple, rows), counts.tolist()):
        seen.add(s)
        if not is_covector(s, k):
            non_covector += count
    report["sampled_full_support_patterns"] = len(seen)
    report["non_covector_samples"] = non_covector
    if non_covector:
        raise RealizationError("sampled sign pattern violates the covector rule", report)

    if m <= 8 and k <= 4:
        zero_free = {s for s in enumerate_covectors(m, k) if 0 not in s}
        for s in sorted(zero_free):
            if s in seen:
                continue
            x = _tope_witness(s, config)
            if x is not None and sign_vector_of_point(x, config, zero_tol) == s:
                seen.add(s)
        report["zero_free_covectors"] = len(zero_free)
        if seen != zero_free:
            report["missed"] = [render_sign_vector(s) for s in sorted(zero_free - seen)]
            report["extra"] = [render_sign_vector(s) for s in sorted(seen - zero_free)]
            raise RealizationError("full-support patterns != zero-free covectors", report)

    cocircuits = enumerate_cocircuits(m, k)
    if k > 0:
        _realize_zero_sets(cocircuits, config, zero_tol)
    report["cocircuits_realized"] = len(cocircuits) if k > 0 else 0
    report["status"] = "pass"
    return report


# ---------------------------------------------------------------------------
# the vertex map v(S) and Borsuk-graph experiments


def v_of_set(s: CircularSet, config: MomentConfig,
             min_norm: float = 1e-12) -> np.ndarray:
    """Normalized alternating sum over the set; never zero on stable sets."""
    total = _signed_sums([s], config)[0]
    nrm = float(np.linalg.norm(total))
    if nrm < min_norm:
        raise ValueError("alternating sum vanished on %s; "
                         "this contradicts stability" % s)
    return total / nrm


def _incidence(verts: Sequence[CircularSet], m: int) -> np.ndarray:
    """Rows of 0/1 membership flags, one row per set, one column per j < m."""
    width = (m + 7) // 8
    packed = np.frombuffer(b"".join(s.mask.to_bytes(width, "little") for s in verts),
                           dtype=np.uint8).reshape(len(verts), width)
    return np.unpackbits(packed, axis=1, count=m, bitorder="little")


def _signed_sums(verts: Sequence[CircularSet], config: MomentConfig) -> np.ndarray:
    """The alternating sum of (-1)^i v_i over the members i of every set, as rows.

    The sets must have equal size.  Adds the terms member by member in
    increasing order, all sets at once, so every row equals that loop over
    one set bit for bit.
    """
    members = np.nonzero(_incidence(verts, config.m))[1].reshape(len(verts), -1)
    terms = np.where(np.arange(config.m) % 2 == 0, 1.0, -1.0)[:, None] * config.vectors
    total = np.zeros((len(verts), config.k + 1))
    for col in members.T:
        total += terms[col]
    return total


def min_vertex_norm(n: int, k: int) -> float:
    """Exact minimum of the unnormalized sums over all stable n-sets."""
    config = moment_vectors(n, k)
    return _min_norm(_signed_sums(enumerate_stable_sets(n, config.m), config))


def _min_norm(sums: np.ndarray) -> float:
    return float(np.linalg.norm(sums, axis=1).min())


def max_edge_defect(n: int, k: int) -> float:
    """Max of ||v(S) + v(T)|| over the edges of SG_{n,k}.

    ||v(S) + v(T)||^2 = 2 + 2<v(S), v(T)> is monotone in the Gram entry, so
    the largest entry over disjoint pairs S < T gives the maximum exactly.
    Disjointness is read from row blocks of the membership overlap counts.
    """
    config = moment_vectors(n, k)
    verts = enumerate_stable_sets(n, config.m)
    return _max_defect(verts, _signed_sums(verts, config), config.m)


def _max_defect(verts: Sequence[CircularSet], sums: np.ndarray, m: int) -> float:
    norms = np.linalg.norm(sums, axis=1)
    unit = sums / norms[:, None]
    gram = unit @ unit.T
    member = _incidence(verts, m).astype(np.float32)
    nv = len(verts)
    later = np.arange(nv)
    step = max(1, (1 << 18) // nv)   # rows per block: about 2^18 overlap counts
    worst = 0.0
    for lo in range(0, nv, step):
        hi = min(lo + step, nv)
        edge = (member[lo:hi] @ member.T == 0) & (later > later[lo:hi, None])
        if edge.any():
            worst = max(worst, 2.0 + 2.0 * float(gram[lo:hi][edge].max()))
    return float(np.sqrt(max(worst, 0.0)))


def borsuk_adjacent(x: np.ndarray, y: np.ndarray, eps: float) -> bool:
    """Borsuk graph edge: within eps of each other's antipode."""
    return float(np.linalg.norm(np.asarray(x) + np.asarray(y))) < eps


def point_to_vertex(x: np.ndarray, l: int, n: int, k: int,
                    config: Optional[MomentConfig] = None,
                    zero_tol: float = 1e-9) -> CircularSet:
    """A stable n-set inside S_l of the point's sign vector.

    Deterministically the lexicographically least one, the first of
    enumerate_stable_sets inside the side.  Near-antipodal points with
    l = 0 map to disjoint (hence adjacent) vertices.
    """
    if l not in (0, 1):
        raise ValueError("l must be 0 or 1")
    if config is None:
        config = moment_vectors(n, k)
    side = side_masks(sign_vector_of_point(x, config, zero_tol))[l]
    for v in enumerate_stable_sets(n, config.m):
        if v.mask & ~side == 0:
            return v
    raise ValueError("no stable %d-subset inside S_%d = %s"
                     % (n, l, CircularSet(config.m, side)))


def geometry_row(n: int, k: int) -> dict:
    """One sweep row: norms, defects and equivariance deviations."""
    rep = representation(n, k)
    config = moment_vectors(n, k)
    verts = enumerate_stable_sets(n, config.m)
    sums = _signed_sums(verts, config)
    eq3 = eq3_deviations(config, rep)
    rel = rep.relation_deviations()
    return {
        "n": n,
        "k": k,
        "min_vertex_norm": _min_norm(sums),
        "max_edge_defect": _max_defect(verts, sums, config.m),
        "eq3_sigma_dev": eq3["sigma_shift"],
        "eq3_rho_dev": eq3["rho_flip"],
        "eq3_period_dev": eq3["periodicity"],
        "group_relation_dev": max(rel.values()),
    }
