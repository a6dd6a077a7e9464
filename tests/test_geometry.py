import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablekneser.geometry import (RealizationError, borsuk_adjacent,
                                   config_for, eq3_deviations, geometry_row,
                                   max_edge_defect, min_vertex_norm,
                                   moment_vectors, point_to_vertex,
                                   representation, sign_vector_of_point,
                                   v_of_set, verify_realization)
from stablekneser.graphs import (DihedralElement, dihedral_act,
                                 enumerate_stable_sets, generate_subgroup,
                                 set_bits, stable_kneser_graph)
from stablekneser.matroid import (dihedral_act_sign, enumerate_cocircuits,
                                  enumerate_covectors, is_covector,
                                  parse_sign_vector, render_sign_vector, side_masks)
import stablekneser.geometry as geometry_module
from oracles import (alternating_sums_by_set, curve_point_by_terms,
                     eq3_deviations_by_rows, first_stable_subset_by_search,
                     mask_of, max_edge_defect_by_row_blocks, members, negate,
                     sampled_sign_patterns, zero_set_points_by_qr)

TOL = 1e-9


def unit_samples(dim, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, dim))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def test_representation_relations():
    for n, k in [(2, 1), (1, 2), (2, 2), (3, 4), (2, 5), (5, 0)]:
        rep = representation(n, k)
        assert max(rep.relation_deviations().values()) < TOL, (n, k)


def test_representation_rho_determinant():
    for n, k in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5)]:
        rep = representation(n, k)
        want = (-1.0) ** ((k + 1) // 2)
        assert abs(np.linalg.det(rep.rho_matrix) - want) < TOL


def test_representation_rejects_bad_args():
    with pytest.raises(ValueError, match=r"\(n, k\) = \(0, 1\)"):
        representation(0, 1)
    with pytest.raises(ValueError, match=r"\(n, k\) = \(2, -1\)"):
        moment_vectors(2, -1)
    with pytest.raises(ValueError, match=r"modulus mismatch: .*\(n, k\) = \(2, 1\) acts for "
                                         r"m = 5, .* with m = 6"):
        representation(2, 1).matrix(DihedralElement.sigma(6))
    with pytest.raises(ValueError, match=r"\(n, k\) = \(2, 1\): l must be 0 or 1, got 2"):
        point_to_vertex(np.ones(2), 2, 2, 1)


def test_moment_vectors_odd_case_is_unit_circle():
    config = moment_vectors(2, 1)
    for j in range(5):
        expect = np.array([np.cos(np.pi * j / 5), np.sin(np.pi * j / 5)])
        assert np.linalg.norm(config.vectors[j] - expect) < TOL
        assert abs(np.linalg.norm(config.vectors[j]) - 1.0) < TOL


def test_eq3_identities_all_m_up_to_40():
    for m in range(3, 41):
        for n in range(1, m // 2 + 1):
            k = m - 2 * n
            rep = representation(n, k)
            config = moment_vectors(n, k)
            devs = eq3_deviations(config, rep)
            assert max(devs.values()) < TOL, (n, k)


def test_curve_and_eq3_match_the_per_row_loops_bit_for_bit():
    for m in range(2, 41):
        for n in range(1, m // 2 + 1):
            k = m - 2 * n
            rep = representation(n, k)
            config = moment_vectors(n, k)
            assert np.array_equal(config.vectors, np.array(
                [curve_point_by_terms(float(j), m, k) for j in range(m)])), (n, k)
            for j in (-m - 1, -1, m, 3 * m + 2):
                assert np.array_equal(config.vector(j), curve_point_by_terms(float(j), m, k))
            assert eq3_deviations(config, rep) == eq3_deviations_by_rows(
                config.vectors, rep.sigma_matrix, rep.rho_matrix), (n, k)


def test_sign_vector_of_point_basics():
    config = moment_vectors(2, 1)
    for x in unit_samples(2, 50, seed=2):
        s = sign_vector_of_point(x, config)
        if 0 in s:
            continue
        assert sign_vector_of_point(-x, config) == negate(s)
        assert is_covector(s, 1)


def test_sign_action_matches_geometry():
    # the numeric adjudicator for the twisted sign-vector action rule
    for n, k in [(2, 1), (1, 2), (2, 2), (3, 1), (2, 3), (3, 4)]:
        m = 2 * n + k
        rep = representation(n, k)
        config = moment_vectors(n, k)
        elems = generate_subgroup([DihedralElement.sigma(m),
                                   DihedralElement.rho(m)])
        for x in unit_samples(k + 1, 40, seed=m):
            s = sign_vector_of_point(x, config)
            if 0 in s:
                continue
            for g in elems:
                assert sign_vector_of_point(rep.matrix(g) @ x, config) == \
                    dihedral_act_sign(s, g), (n, k, g)


def test_realize_cocircuit():
    config = moment_vectors(2, 1)
    for s in map(tuple, enumerate_cocircuits(5, 1).tolist()):
        x = geometry_module._realize_zero_sets([s], config)[0]
        assert sign_vector_of_point(x, config) == s


def test_verify_realization_full_sweep():
    # every tope is realized by the sum of its cocircuit points, so the
    # check passes without samples; 2 * sum_{i <= k} C(m-1, i) topes
    for m in range(2, 9):
        for k in range(0, min(m, 5)):
            for samples in (0, 3000):
                report = verify_realization(m, k, samples=samples, seed=0)
                assert report["status"] == "pass", (m, k)
                assert report["non_covector_samples"] == 0, (m, k)
                assert report["zero_free_covectors"] == 2 * sum(
                    comb(m - 1, i) for i in range(k + 1)), (m, k)
                assert report["cocircuits_realized"] == 2 * comb(m, k)
    with pytest.raises(ValueError):
        config_for(3, 3)


def test_verify_realization_counts_match_unique_rows(monkeypatch):
    # m = 63 fills one 63-bit key word; 64 and 65 take a second one
    cases = [(5, 2, 0, 3000), (8, 4, 1, 20000), (12, 4, 2, 20000),
             (14, 6, 3, 5000), (9, 0, 4, 500), (63, 2, 5, 3000), (64, 3, 6, 3000),
             (65, 2, 7, 3000)]
    for m, k, seed, samples in cases:
        report = verify_realization(m, k, samples=samples, seed=seed)
        rows = sampled_sign_patterns(config_for(m, k).vectors, samples, seed, TOL)
        assert report["sampled_full_support_patterns"] == len(rows), (m, k, seed)
        assert report["non_covector_samples"] == 0
    # a wrong covector rule: the rejected samples must be counted per row
    monkeypatch.setattr(geometry_module, "is_covector", lambda s, k: np.asarray(s)[..., 0] == 1)
    for m, k, seed, samples in cases:
        rows = sampled_sign_patterns(config_for(m, k).vectors, samples, seed, TOL)
        with pytest.raises(RealizationError) as err:
            verify_realization(m, k, samples=samples, seed=seed)
        report = err.value.report
        assert report["sampled_full_support_patterns"] == len(rows)
        assert report["non_covector_samples"] == sum(
            c for s, c in rows.items() if s[0] != 1)


def test_verify_realization_drops_sampled_rows_with_a_zero_sign(monkeypatch):
    # no Gaussian point falls within 1e-9 of a hyperplane in practice, so a
    # wide tolerance makes the filter drop rows (a quarter to three quarters
    # of them here); a wrong rule stops the check before the cocircuits,
    # whose signs that tolerance would misread
    monkeypatch.setattr(geometry_module, "ZERO_TOL", 0.1)
    monkeypatch.setattr(geometry_module, "is_covector", lambda s, k: np.asarray(s)[..., 0] == 1)
    for m, k, seed in [(5, 2, 0), (8, 2, 1), (12, 4, 2), (65, 2, 3)]:
        rows = sampled_sign_patterns(config_for(m, k).vectors, 5000, seed, 0.1)
        with pytest.raises(RealizationError) as err:
            verify_realization(m, k, samples=5000, seed=seed)
        assert err.value.report["sampled_full_support_patterns"] == len(rows), (m, k)
        assert err.value.report["non_covector_samples"] == sum(
            c for s, c in rows.items() if s[0] != 1), (m, k)


@pytest.mark.parametrize("m, k, samples", [(8, 4, 100000), (12, 4, 100000), (14, 6, 20000)])
def test_verify_realization_counts_the_benchmark_samples(m, k, samples):
    # the sizes of the symmetry workload's matroid jobs, at each seed it picks
    for seed in range(4):
        report = verify_realization(m, k, samples=samples, seed=seed)
        rows = sampled_sign_patterns(config_for(m, k).vectors, samples, seed, TOL)
        assert report["sampled_full_support_patterns"] == len(rows), seed
        assert report["non_covector_samples"] == 0, seed


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_verify_realization_does_not_depend_on_the_block_size(monkeypatch, block):
    # each block costs a merge, so the small blocks stop before 20000 samples
    sample_counts = {1: (0, 5, 500), 7: (0, 5, 4096, 4097),
                     4096: (0, 5, 4096, 4097, 20000)}[block]
    cases = [(m, k, samples, seed) for m, k, seed in [(5, 2, 0), (12, 4, 2), (70, 2, 1),
                                                      (63, 2, 3), (64, 2, 4), (65, 2, 5)]
             for samples in sample_counts]
    expected = {case: (verify_realization(*case), sampled_sign_patterns(
        config_for(*case[:2]).vectors, case[2], case[3], TOL)) for case in cases}
    monkeypatch.setattr(geometry_module, "_REALIZE_BLOCK", block)
    for case, (report, rows) in expected.items():
        assert verify_realization(*case) == report, case
        assert report["sampled_full_support_patterns"] == len(rows), case
    # a wrong covector rule: the rejected samples are still counted per row
    monkeypatch.setattr(geometry_module, "is_covector", lambda s, k: np.asarray(s)[..., 0] == 1)
    for case, (_, rows) in expected.items():
        rejected = sum(c for s, c in rows.items() if s[0] != 1)
        if not rejected:
            continue
        with pytest.raises(RealizationError) as err:
            verify_realization(*case)
        assert err.value.report["sampled_full_support_patterns"] == len(rows), case
        assert err.value.report["non_covector_samples"] == rejected, case


def test_verify_realization_reports_missed_and_extra_topes(monkeypatch):
    covectors = enumerate_covectors(5, 2)
    non_tope = parse_sign_vector("+-+-+")   # four sign changes: not a covector at k = 2
    assert not is_covector(non_tope, 2)
    monkeypatch.setattr(geometry_module, "enumerate_covectors",
                        lambda m, k: covectors + [non_tope])
    with pytest.raises(RealizationError) as err:
        verify_realization(5, 2, samples=3000, seed=0)
    assert err.value.report["missed"] == ["+-+-+"]
    assert err.value.report["extra"] == []
    assert err.value.report["zero_free_covectors"] == 23
    # drop a tope that the samples hit: it comes back as a sampled extra
    rows = sampled_sign_patterns(config_for(5, 2).vectors, 3000, 0, TOL)
    dropped = max(rows)
    monkeypatch.setattr(geometry_module, "enumerate_covectors",
                        lambda m, k: [s for s in covectors if s != dropped])
    with pytest.raises(RealizationError) as err:
        verify_realization(5, 2, samples=3000, seed=0)
    assert err.value.report["missed"] == []
    assert err.value.report["extra"] == [render_sign_vector(dropped)]


def test_verify_realization_cocircuit_memory_stays_in_arrays():
    # 63,648 cocircuits of 18 entries; 41.8 MB traced when they went
    # through tuples and one QR each, 16.6 MB as int8 rows and one QR per
    # pair, 9.7 MB with each pair's point from the product of sines
    verify_realization(6, 2, samples=0)   # warm-up: lazy imports
    tracemalloc.start()
    try:
        report = verify_realization(18, 7, samples=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["cocircuits_realized"] == 2 * comb(18, 7)
    assert peak < 12 << 20, "traced peak %.1f MB" % (peak / 2**20)


def test_verify_realization_memory_does_not_grow_with_samples():
    verify_realization(12, 4, samples=10**4, seed=0)   # warm-up: lazy imports
    tracemalloc.start()
    try:
        report = verify_realization(12, 4, samples=10**6, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the report recorded when all the samples were drawn at once
    assert report == {
        "m": 12, "k": 4, "samples": 10**6, "seed": 0,
        "sampled_full_support_patterns": 1043, "non_covector_samples": 0,
        "cocircuits_realized": 990, "status": "pass"}
    assert peak < 4 << 20, "traced peak %.1f MB" % (peak / 2**20)


def test_verify_realization_packs_rows_past_one_word():
    # m = 70 takes two 63-bit words per sampled row; the report is the one
    # recorded from the byte-string np.unique sampler the word packing replaced
    assert verify_realization(70, 2, samples=1000) == {
        "m": 70, "k": 2, "samples": 1000, "seed": 0,
        "sampled_full_support_patterns": 636, "non_covector_samples": 0,
        "cocircuits_realized": 4830, "status": "pass"}
    assert len(sampled_sign_patterns(config_for(70, 2).vectors, 1000, 0, TOL)) == 636


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 70), st.data())
def test_tally_in_blocks_is_one_unique_over_the_stream(m, data):
    # the sampler's keys: one int64 word up to m = 63, from m = 64 on the
    # bytes of a row's 63-bit int64 words; a few distinct values so that
    # blocks repeat keys
    words = (m + 62) // 63
    dtype = np.dtype(np.int64 if m < 64 else "V%d" % (8 * words))
    pool = data.draw(st.lists(st.integers(0, 2 ** m - 1), min_size=1, max_size=8))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    codes = np.array([[pool[i] >> 63 * w & (1 << 63) - 1 for w in range(words)]
                      for i in picks], np.int64).reshape(-1, words)
    stream = codes[:, 0] if m < 64 else codes.view(dtype).ravel()
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    expected = np.unique(stream, return_counts=True)
    for blocks in (np.split(stream, cuts), np.split(stream, range(1, len(stream)))):
        keys, counts = np.zeros(0, dtype), np.zeros(0, dtype=np.int64)
        for block in blocks:   # empty blocks too, as when every row has a zero sign
            keys, counts = geometry_module._tally(keys, counts, block)
        assert keys.dtype == dtype and counts.dtype == np.int64
        assert keys.tolist() == expected[0].tolist()
        assert counts.tolist() == expected[1].tolist()
        assert all(a < b for a, b in zip(keys.tolist(), keys.tolist()[1:]))


def test_verify_realization_refuses_bad_input_up_front():
    with pytest.raises(ValueError, match=r"\(m, k\) = \(3, 5\)"):
        verify_realization(3, 5)
    with pytest.raises(ValueError, match=r"\(m, k\) = \(6, 2\)"):
        verify_realization(6, 2, samples=-1)
    with pytest.raises(ValueError, match=r"\(m, k\) = \(5, 2\) needs seed >= 0, got -1"):
        verify_realization(5, 2, seed=-1)
    assert verify_realization(4, 1, samples=0)["sampled_full_support_patterns"] == 0


def test_verify_realization_detects_corruption():
    # a corrupt "cocircuit" whose zero set does not support its signs
    config = moment_vectors(2, 1)
    with pytest.raises(RealizationError):
        geometry_module._realize_zero_sets([parse_sign_vector("+-+-0")], config)


def test_stacked_realization_matches_one_svd_per_cocircuit(monkeypatch):
    monkeypatch.setattr(geometry_module, "_REALIZE_BLOCK", 7)   # blocks split
    for m, k in [(8, 3), (9, 4), (6, 5)]:
        config = config_for(m, k)
        cocircuits = enumerate_cocircuits(m, k)
        points = geometry_module._realize_zero_sets(cocircuits, config)
        for s, x in zip(map(tuple, cocircuits.tolist()), points):
            rows = config.vectors[[j for j, v in enumerate(s) if v == 0]]
            null = np.linalg.svd(rows)[2][-1]
            assert min(np.abs(x - null).max(), np.abs(x + null).max()) < 1e-12, s
            assert sign_vector_of_point(x, config) == s


def test_stacked_realization_matches_one_qr_per_cocircuit(monkeypatch):
    monkeypatch.setattr(geometry_module, "_REALIZE_BLOCK", 7)   # blocks split
    # at k = 0 the zero sets are empty and the complete QR is the identity
    for m, k in [(8, 3), (9, 4), (6, 5), (8, 0)]:
        config = config_for(m, k)
        cocircuits = enumerate_cocircuits(m, k)
        points = geometry_module._realize_zero_sets(cocircuits, config)
        stacked = zero_set_points_by_qr(cocircuits, config.vectors)
        for s, x, y in zip(map(tuple, cocircuits.tolist()), points, stacked):
            rows = config.vectors[[j for j, v in enumerate(s) if v == 0]]
            q = np.linalg.qr(rows.T, mode="complete")[0][:, -1]
            assert np.array_equal(y, q), s
            assert min(np.abs(x - q).max(), np.abs(x + q).max()) < 1e-12, s


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 24), st.data())
def test_zero_set_points_are_the_product_of_sines(m, data):
    # x . curve(t) is C prod_{j in Z} sin(pi (j - t) / m) for one constant C > 0,
    # checked at non-integer t without any LAPACK solve; C is read where the
    # product is largest and the gap is measured against the largest value,
    # since near a cluster of zeros both sides are tiny
    k = data.draw(st.integers(0, m - 1))
    zeros = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=k, max_size=k)))
    x = geometry_module._zero_set_points(np.array([zeros], dtype=np.intp), m, k)[0]
    assert x.shape == (k + 1,)
    assert abs(np.sqrt(x @ x) - 1.0) < 1e-12
    assert np.abs(config_for(m, k).vectors[zeros] @ x).max(initial=0.0) < 1e-12
    t = np.arange(m) + np.array(data.draw(st.lists(st.floats(0.05, 0.95), min_size=m,
                                                   max_size=m)))
    prod = np.prod(np.sin(np.pi * (np.array(zeros)[:, None] - t) / m), axis=0)
    vals = geometry_module._curve(t, m, k) @ x
    top = np.argmax(np.abs(prod))
    assert vals[top] / prod[top] > 0
    gap = vals - vals[top] / prod[top] * prod
    assert np.abs(gap).max() <= 1e-12 * np.abs(vals).max(), (zeros, gap)


def test_zero_set_points_stay_accurate_on_spread_zero_sets():
    # zero sets around the whole circle, where the product of the sorted
    # factors cancels to a few digits (5e-3 off at {0..61}, m = 63); the
    # SVD null vector of such well-spread rows is accurate to about 1e-15
    for m, zeros in [(63, range(62)), (64, range(0, 64, 2)), (24, range(23)),
                     (40, range(1, 40, 3))]:
        zeros = list(zeros)
        k = len(zeros)
        x = geometry_module._zero_set_points(np.array([zeros]), m, k)[0]
        null = np.linalg.svd(config_for(m, k).vectors[zeros])[2][-1]
        assert min(np.abs(x - null).max(), np.abs(x + null).max()) < 1e-12, (m, k)


def test_realize_zero_sets_refuses_a_wrong_zero_count():
    # one reshape over all rows would hand row 0 the zero set {0} and row 1 the
    # zero set {1}; each row must have exactly k zeros, checked before any solve
    config = config_for(5, 2)
    with pytest.raises(ValueError, match=r"\(m, k\) = \(5, 2\) needs 2 zeros per sign row, "
                                         r"row 1 \(\+-\+-\+\) has 0"):
        geometry_module._realize_zero_sets([parse_sign_vector("00+-+"),
                                            parse_sign_vector("+-+-+")], config)
    with pytest.raises(ValueError, match=r"row 0 \(\+-0\+-\) has 1"):
        geometry_module._realize_zero_sets([parse_sign_vector("+-0+-")], config)
    with pytest.raises(ValueError, match=r"\(m, k\) = \(5, 1\) .* row 2 \(0-\+0\+\) has 2"):
        geometry_module._realize_zero_sets(
            [parse_sign_vector(s) for s in ("++++0", "0++++", "0-+0+")], config_for(5, 1))


def test_realize_zero_sets_refuses_rows_of_the_wrong_length(monkeypatch):
    # a reshape to m columns would split this 10-entry row into ++++0 and
    # 0++++, one zero each, and realize both
    monkeypatch.setattr(geometry_module, "_zero_set_points",
                        lambda *args: pytest.fail("a point was computed"))
    config = config_for(5, 1)
    with pytest.raises(ValueError, match=r"\(m, k\) = \(5, 1\) needs rows of 5 signs, "
                                         r"got shape \(1, 10\)"):
        geometry_module._realize_zero_sets([parse_sign_vector("++++00++++")], config)
    for bad, shape in [(parse_sign_vector("++++0"), r"\(5,\)"),
                       (np.zeros((1, 2, 5), dtype=np.int8), r"\(1, 2, 5\)"),
                       ([parse_sign_vector("+++0")], r"\(1, 4\)")]:
        with pytest.raises(ValueError, match=r"\(5, 1\) .* got shape " + shape):
            geometry_module._realize_zero_sets(bad, config)


def test_verify_realization_names_the_first_unrealized_cocircuit(monkeypatch):
    good = enumerate_cocircuits(5, 1).tolist()
    bad = [parse_sign_vector("++-+0"), parse_sign_vector("+-+-0")]
    monkeypatch.setattr(geometry_module, "enumerate_cocircuits",
                        lambda m, k: np.array(good[:3] + bad + good[3:], dtype=np.int8))
    for block in (2, 4, 1 << 12):
        monkeypatch.setattr(geometry_module, "_REALIZE_BLOCK", block)
        with pytest.raises(RealizationError, match=r"\+\+-\+0") as err:
            verify_realization(5, 1, samples=100)
        assert err.value.report == {"cocircuit": "++-+0", "got": "++++0"}


def test_verify_realization_refuses_cocircuits_that_do_not_mirror(monkeypatch):
    # only the first half is solved, so an unpaired row must stop the run
    # instead of taking the negation of some other row's point
    good = enumerate_cocircuits(5, 1)
    bad_tail = good.copy()
    bad_tail[-1] = parse_sign_vector("+-+-0")   # never solved, not realizable
    swapped = good[[0, 1, 3, 2, 4, 5, 6, 7, 8, 9]]
    for rows, first in [(bad_tail, good[0]), (swapped, good[3]),
                        (np.concatenate([good, good[4:5]]), good[0]), (good[:5], good[0])]:
        monkeypatch.setattr(geometry_module, "enumerate_cocircuits", lambda m, k: rows)
        with pytest.raises(RealizationError, match="negation of its mirror row") as err:
            verify_realization(5, 1, samples=100)
        assert err.value.report == {"cocircuit": render_sign_vector(first.tolist())}


def test_v_of_set_example_and_equivariance():
    config = moment_vectors(2, 1)
    s = mask_of([0, 2])
    raw = alternating_sums_by_set([members(s)], config.vectors)[0]
    assert abs(np.linalg.norm(raw) - 2 * np.cos(np.pi / 5)) < TOL
    assert abs(np.linalg.norm(v_of_set(s, config)) - 1.0) < TOL
    for n, k in [(2, 1), (2, 2), (4, 2)]:
        m = 2 * n + k
        rep = representation(n, k)
        config = moment_vectors(n, k)
        elems = generate_subgroup([DihedralElement.sigma(m),
                                   DihedralElement.rho(m)])
        for vert in enumerate_stable_sets(n, m):
            base = v_of_set(vert, config)
            for g in elems:
                dev = np.linalg.norm(v_of_set(dihedral_act(vert, g), config) - rep.matrix(g) @ base)
                assert dev < TOL, (n, k, g)


def test_v_of_set_single_term():
    config = moment_vectors(1, 2)
    for j in range(4):
        s = mask_of([j])
        expect = (-1) ** j * config.vectors[j]
        expect = expect / np.linalg.norm(expect)
        assert np.linalg.norm(v_of_set(s, config) - expect) < TOL


def test_v_of_set_refuses_bits_outside_z_m():
    config = moment_vectors(2, 1)   # m = 5
    for bits in ([0, 7], [7], [9]):
        with pytest.raises(ValueError, match=r"set \{%s\} does not lie in Z_5"
                           % ",".join(map(str, bits))):
            v_of_set(mask_of(bits), config)


def test_min_vertex_norm():
    assert abs(min_vertex_norm(2, 1) - 2 * np.cos(np.pi / 5)) < TOL
    for n, k in [(2, 1), (3, 2), (2, 4), (5, 3)]:
        assert min_vertex_norm(n, k) > 0
    values = [min_vertex_norm(n, 2) for n in range(2, 21)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_max_edge_defect():
    # SG_{2,1} is a 5-cycle; every edge has the same defect by symmetry
    config = moment_vectors(2, 1)
    verts = enumerate_stable_sets(2, 5)
    expected = 0.0
    for i, s in enumerate(verts):
        for t in verts[i + 1:]:
            if s & t == 0:
                d = np.linalg.norm(v_of_set(s, config) + v_of_set(t, config))
                expected = max(expected, float(d))
    assert abs(max_edge_defect(2, 1) - expected) < TOL
    assert abs(max_edge_defect(2, 1) - 2 * np.cos(2 * np.pi / 5)) < TOL
    # k = 0: the two vertices map to antipodal points
    assert max_edge_defect(3, 0) < TOL
    # decreasing trend for k = 2
    values = [max_edge_defect(n, 2) for n in range(2, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_max_edge_defect_memory_stays_in_row_blocks():
    max_edge_defect(3, 2)   # warm-up: lazy imports
    tracemalloc.start()
    try:
        max_edge_defect(8, 6)   # 4,719 vertices: a dense Gram matrix is 178 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20, "traced peak %.1f MB" % (peak / 2**20)


def test_signed_sums_and_edge_defect_match_the_loops_bit_for_bit():
    # the orbit scan's maximum lies off the orbits' least rows on (4, 1),
    # (2, 2) and (4, 3), among others: only the rescan gets those exact;
    # m = 64, 66 and 67 in the last three cases, the last two with a second
    # uint64 word per set
    cases = [(n, k) for k in range(7) for n in range(1, (30 - k) // 2 + 1)]
    for n, k in cases + [(31, 2), (32, 2), (33, 1)]:
        config = moment_vectors(n, k)
        verts = enumerate_stable_sets(n, config.m)
        sums = geometry_module._signed_sums(enumerate_stable_sets(n, config.m, members=True),
                                            config)
        loop = alternating_sums_by_set([members(s) for s in verts], config.vectors)
        assert np.array_equal(sums, loop), (n, k)
        assert min_vertex_norm(n, k) == float(np.linalg.norm(loop, axis=1).min())
        assert max_edge_defect(n, k) == max_edge_defect_by_row_blocks(verts, loop), (n, k)


def test_signed_sums_are_dihedral_equivariant():
    # the orbit scan of max_edge_defect rests on sums(gS) = matrix(g) sums(S)
    for m in range(2, 21):
        for n in range(1, m // 2 + 1):
            k = m - 2 * n
            rep = representation(n, k)
            config = moment_vectors(n, k)
            verts = enumerate_stable_sets(n, m)
            sums = geometry_module._signed_sums(np.array([set_bits(s) for s in verts]), config)
            for g in (DihedralElement.sigma(m), DihedralElement.rho(m)):
                images = [set_bits(dihedral_act(s, g)) for s in verts]
                moved = geometry_module._signed_sums(np.array(images), config)
                assert np.abs(moved - sums @ rep.matrix(g).T).max() < 1e-12, (n, k, g)


def test_borsuk_adjacent():
    x = np.array([1.0, 0.0])
    assert borsuk_adjacent(x, -x, 1e-6)
    assert not borsuk_adjacent(x, x, 1.9)
    assert borsuk_adjacent(x, x, 2.1)


def test_borsuk_edges_cover_sg_edges_at_large_n():
    n, k = 20, 2
    config = moment_vectors(n, k)
    verts = enumerate_stable_sets(n, 2 * n + k)
    images = {v: v_of_set(v, config) for v in verts}
    for i, s in enumerate(verts):
        for t in verts[i + 1:]:
            if s & t == 0:
                assert borsuk_adjacent(images[s], images[t], 0.5)


def test_point_to_vertex():
    config = moment_vectors(2, 1)
    x = geometry_module._realize_zero_sets([parse_sign_vector("++++0")], config)[0]
    assert members(point_to_vertex(x, 0, 2, 1)) == (0, 2)
    assert members(point_to_vertex(x, 1, 2, 1)) == (1, 3)
    g = stable_kneser_graph(2, 1)
    idx = g.label_index()
    for x in unit_samples(2, 60, seed=4):
        s = sign_vector_of_point(x, config)
        if 0 in s:
            continue
        a = point_to_vertex(x, 0, 2, 1)
        b = point_to_vertex(-x, 0, 2, 1)
        assert point_to_vertex(x, 1, 2, 1) == b
        assert g.has_edge(idx[a], idx[b])


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.sampled_from((0, 1)), st.data())
def test_point_to_vertex_matches_search_reference(n, k, l, data):
    config = moment_vectors(n, k)
    x = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=k + 1, max_size=k + 1)))
    s = sign_vector_of_point(x, config)
    allowed = [j for j in range(config.m)
               if s[j] != 0 and (-1) ** j * s[j] == (-1) ** l]
    want = first_stable_subset_by_search(allowed, n, config.m)
    if want is None:
        with pytest.raises(ValueError, match="no stable %d-subset" % n):
            point_to_vertex(x, l, n, k)
    else:
        assert members(point_to_vertex(x, l, n, k)) == tuple(want)


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 22), st.data())
def test_point_to_vertex_is_the_first_stable_set_inside_the_side(m, data):
    n = data.draw(st.integers(1, m // 2))
    k = m - 2 * n
    l = data.draw(st.sampled_from((0, 1)))
    config = moment_vectors(n, k)
    x = np.array(data.draw(st.lists(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)) | st.floats(-1, 1),
                                    min_size=k + 1, max_size=k + 1)))
    side = side_masks(sign_vector_of_point(x, config))[l]
    want = next((s for s in enumerate_stable_sets(n, m) if s & ~side == 0), None)
    if want is None:
        with pytest.raises(ValueError, match="no stable %d-subset" % n):
            point_to_vertex(x, l, n, k)
    else:
        assert point_to_vertex(x, l, n, k) == want


def test_geometry_row_keys():
    row = geometry_row(2, 1)
    assert row["n"] == 2 and row["k"] == 1
    assert row["min_vertex_norm"] > 1.6
    assert row["group_relation_dev"] < TOL
    # one shared set of sums gives the same floats as the standalone functions
    for n, k in [(2, 1), (3, 2), (5, 2), (3, 4), (4, 0)]:
        row = geometry_row(n, k)
        assert row["min_vertex_norm"] == min_vertex_norm(n, k), (n, k)
        assert row["max_edge_defect"] == max_edge_defect(n, k), (n, k)
