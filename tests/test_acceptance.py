"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks that criterion FAILED.
"""

import itertools

from stablekneser import cli
from stablekneser.charclasses import (classify, generator, one_plus,
                                      poly_one, restrict, total_sw_class,
                                      vanishing_windows, wbar)
from stablekneser.charclasses import CYCLIC_4
from stablekneser.complexes import (check_equivariance_combinatorial,
                                    covector_to_hom, hom_poset,
                                    neighbourhood_complex, order_complex,
                                    verify_nerve, z2_betti)
from stablekneser.geometry import (eq3_deviations, max_edge_defect,
                                   min_vertex_norm, moment_vectors,
                                   representation)
from stablekneser.graphs import (chromatic_number, k2, stable_kneser_graph,
                                 vertex_criticality_check)
from stablekneser.matroid import (covector_leq, enumerate_cocircuits,
                                  enumerate_covectors, is_covector)
from oracles import polynomial_sign_patterns, total_sw_class_from_blocks

TOL = 1e-9
SPHERE_INSTANCES = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 2)]


def _pass(ident, text):
    print("ACCEPTANCE %-2s %s: PASS" % (ident, text))


def test_criterion_01_matroid_complex_duality():
    covs = enumerate_covectors(3, 1)
    cocs = enumerate_cocircuits(3, 1)
    assert len(covs) == 12
    assert len(cocs) == 6
    target = stable_kneser_graph(1, 1)
    poset = hom_poset(k2(), target)
    images = [covector_to_hom(s, 1, 1, target) for s in covs]
    assert len(set(images)) == 12 == poset.n
    assert set(images) == set(poset.elements)
    for i, s in enumerate(covs):
        for j, t in enumerate(covs):
            contained = images[i] & ~images[j] == 0
            assert covector_leq(s, t) == contained
    _pass(1, "covectors(3,1)=12, cocircuits=6, poset isomorphism onto Hom(K_2,K_3)")


def test_criterion_02_covector_rule_vs_polynomial_oracle():
    for m in range(1, 8):
        for k in range(0, 5):
            realized = polynomial_sign_patterns(m, k)
            for s in itertools.product((-1, 0, 1), repeat=m):
                if not any(s):
                    continue
                assert is_covector(s, k) == (s in realized), (m, k, s)
    _pass(2, "minimal-degree rule == exhaustive polynomial oracle (m<=7, k<=4)")


def test_criterion_03_sphere_homology():
    for n, k in SPHERE_INSTANCES:
        expected = tuple(cli.sphere_betti(k))
        g = stable_kneser_graph(n, k)
        betti = z2_betti(order_complex(hom_poset(k2(), g)))
        assert betti == expected, (n, k, betti)
        assert z2_betti(neighbourhood_complex(g)) == expected, (n, k)
    _pass(3, "Hom(K_2, SG_{n,k}) and N(SG_{n,k}) have sphere Z2-homology")


def test_criterion_04_chromatic_and_criticality():
    for n, k in SPHERE_INSTANCES:
        g = stable_kneser_graph(n, k)
        assert chromatic_number(g) == k + 2, (n, k)
        assert vertex_criticality_check(g), (n, k)
    _pass(4, "chi(SG_{n,k}) = k+2 and vertex criticality")


def test_criterion_05_equivariance():
    for m in range(3, 41):
        for n in range(1, m // 2 + 1):
            k = m - 2 * n
            rep = representation(n, k)
            assert max(rep.relation_deviations().values()) < TOL, (n, k)
            assert max(eq3_deviations(moment_vectors(n, k), rep).values()) < TOL, (n, k)
    for m in range(3, 11):
        for n in range(1, m // 2 + 1):
            k = m - 2 * n
            report = check_equivariance_combinatorial(n, k)
            assert report["violations"] == [], (n, k)
    _pass(5, "eq(3) + group relations < 1e-9 (m<=40); combinatorial equivariance clean (m<=10)")


def test_criterion_06_nerve():
    assert verify_nerve(2, 1)
    assert verify_nerve(2, 2)
    _pass(6, "nerve of the covector cover is N(SG_{n,k}) for (2,1) and (2,2)")


def test_criterion_07_sw_cross_check():
    for k in range(0, 9):
        for n in range(1, 11):
            assert total_sw_class(n, k) == total_sw_class_from_blocks(n, k), (n, k)
    expected = one_plus(CYCLIC_4, 64, "x") * \
        (poly_one(CYCLIC_4, 64) + generator(CYCLIC_4, "u", 64))
    for s in (1, 2, 3):
        assert restrict(total_sw_class(2 * s, 4), "j") == expected, s
    _pass(7, "closed form == block derivation (k<=8, n<=10); j*(w(2s,4)) = (1+x)(1+u)")


def test_criterion_08_vanishing_windows():
    for k in range(1, 21):
        for n in (3, 4):  # one representative of each parity
            windows = vanishing_windows(n, k)
            if not windows:
                continue
            bound = max(hi for _, hi in windows) + 4
            wb = wbar(n, k, max(bound, 16))
            for lo, hi in windows:
                for d in range(lo, hi):
                    assert wb.component(d).is_zero(), (n, k, d)
    wb5 = wbar(3, 5, 16)
    assert wb5.component(2).is_zero() and wb5.component(3).is_zero()
    assert wb5.component(4).terms == frozenset(((4,),))
    wb3 = wbar(2, 3, 16)
    assert wb3.component(1).is_zero()
    assert wb3.component(2).terms == frozenset(((2,),))
    _pass(8, "predicted windows vanish (k<=20); k in {3,5} nonzero right after")


def test_criterion_09_classification_endpoints():
    for n in range(1, 11):
        assert classify(n, 1).verdict == "TEST_GRAPH_CERTIFIED", (n, 1)
        assert classify(n, 2).verdict == "TEST_GRAPH_CERTIFIED", (n, 2)
    for s in range(1, 5):
        report = classify(2 * s, 4)
        assert report.verdict == "TEST_GRAPH_CERTIFIED", (2 * s, 4)
        assert report.certificate == "j"
    non_test_samples = [(2, 3), (4, 3), (3, 5), (2, 5), (3, 6), (4, 6), (2, 7)]
    for n, k in non_test_samples:
        assert classify(n, k).verdict == "NON_TEST_FOR_LARGE_N", (n, k)
    _pass(9, "certified families and refuted samples classified as published")


def test_criterion_10_geometry_sweep():
    norms = [min_vertex_norm(n, 2) for n in range(2, 21)]
    assert all(a < b for a, b in zip(norms, norms[1:]))
    defects = {n: max_edge_defect(n, 2) for n in range(2, 31)}
    threshold_start = None
    for n in range(2, 31):
        if all(defects[j] < 0.75 for j in range(n, 31)):
            threshold_start = n
            break
    assert threshold_start is not None and threshold_start <= 30
    argv = ["geometry", "--k", "2", "--sweep", "--n-range", "2..20"]
    first, status1 = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    second, status2 = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    assert status1 == status2 == 0
    assert first == second
    _pass(10, "min norm strictly increasing (n=2..20, k=2); defect < 0.75 from "
              "n=%d; sweep CSV byte-identical" % threshold_start)
