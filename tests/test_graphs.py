import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from stablekneser import graphs
from stablekneser.graphs import (DihedralElement, Graph,
                                 automorphism_group_order, chromatic_number,
                                 complete_graph, dihedral_act,
                                 enumerate_stable_sets, free_action_check,
                                 generate_subgroup, graph_from_edges,
                                 is_valid_colouring, kneser_graph, set_bits,
                                 stable_kneser_graph, vertex_criticality_check,
                                 vertex_permutation)
from oracles import (brute_force_automorphisms, brute_force_chromatic,
                     critical_by_all_deletions, cycle_graph,
                     dihedral_set_reference, dsatur_reference,
                     induced_subgraph, is_stable, mask_of, members,
                     members_by_range_scan, one_vertex_looped,
                     stable_set_count, stable_set_masks_by_recursion)


def is_cycle(g):
    if g.n < 3 or any(g.degree(v) != 2 for v in range(g.n)):
        return False
    seen = {0}
    v, prev = g.neighbours(0)[0], 0
    while v != 0:
        seen.add(v)
        nxt = [w for w in g.neighbours(v) if w != prev]
        prev, v = v, nxt[0]
    return len(seen) == g.n


def test_stable_sets_small():
    assert [members(s) for s in enumerate_stable_sets(1, 5)] == \
        [(0,), (1,), (2,), (3,), (4,)]
    assert [members(s) for s in enumerate_stable_sets(2, 4)] == [(0, 2), (1, 3)]
    nine = enumerate_stable_sets(2, 6)
    assert len(nine) == 9 == stable_set_count(2, 6)
    assert all(is_stable(6, s) for s in nine)


def test_stable_sets_against_exhaustive():
    for n, m in [(1, 3), (2, 5), (2, 6), (2, 7), (3, 7), (3, 8), (4, 9)]:
        naive = set()
        for comb in itertools.combinations(range(m), n):
            if is_stable(m, mask_of(comb)):
                naive.add(comb)
        got = {members(s) for s in enumerate_stable_sets(n, m)}
        assert got == naive
        assert len(got) == stable_set_count(n, m)


def test_stable_sets_come_out_in_member_order():
    for m in range(2, 21):
        for n in range(1, m // 2 + 1):
            sets = enumerate_stable_sets(n, m)
            scans = [members_by_range_scan(m, s) for s in sets]
            assert scans == sorted(scans), (n, m)
            assert [tuple(set_bits(s)) for s in sets] == scans, (n, m)
    for m in range(1, 11):
        for mask in range(1 << m):
            assert tuple(set_bits(mask)) == members_by_range_scan(m, mask)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 26))
def test_memoised_stable_sets_follow_the_recursive_search(n, m):
    sets = enumerate_stable_sets(n, m)
    assert sets == stable_set_masks_by_recursion(n, m)
    assert all(type(s) is int and s >> m == 0 for s in sets)
    assert len(sets) == stable_set_count(n, m)


def test_stable_sets_edge_cases():
    assert enumerate_stable_sets(3, 5) == []
    assert [members(s) for s in enumerate_stable_sets(2, 4)] == [(0, 2), (1, 3)]
    with pytest.raises(ValueError, match=r"\(n, m\) = \(0, 4\)"):
        enumerate_stable_sets(0, 4)


def test_stable_kneser_graph_families():
    # SG_{1,k} is complete on k+2 vertices
    for k in range(4):
        g = stable_kneser_graph(1, k)
        assert g.n == k + 2
        assert all(g.has_edge(i, j) for i in range(g.n) for j in range(g.n) if i != j)
    # SG_{n,1} is a (2n+1)-cycle
    for n in (2, 3, 4):
        assert is_cycle(stable_kneser_graph(n, 1))
    assert stable_kneser_graph(2, 2).n == 9
    # SG_{n,0} is a single edge on the two parity classes
    g = stable_kneser_graph(3, 0)
    assert g.n == 2 and g.edges() == [(0, 1)]
    with pytest.raises(ValueError):
        stable_kneser_graph(0, 1)
    with pytest.raises(ValueError, match=r"\(n, k\) = \(2, -1\)"):
        stable_kneser_graph(2, -1)


def test_kneser_graph_families():
    assert kneser_graph(1, 1).n == 3
    assert all(kneser_graph(1, 1).has_edge(i, j) for i in range(3) for j in range(3) if i != j)
    petersen = kneser_graph(2, 1)
    assert petersen.n == 10
    assert len(petersen.edges()) == 15
    assert all(petersen.degree(v) == 3 for v in range(10))
    three_edges = kneser_graph(2, 0)
    assert three_edges.n == 6
    assert len(three_edges.edges()) == 3
    assert all(three_edges.degree(v) == 1 for v in range(6))
    for n, k in ((0, 1), (2, -1)):
        with pytest.raises(ValueError, match=r"\(n, k\) = \(%d, %d\)" % (n, k)):
            kneser_graph(n, k)


def test_chromatic_number_basics():
    assert chromatic_number(complete_graph(5)) == 5
    assert chromatic_number(cycle_graph(5)) == 3
    chi, witness = chromatic_number(stable_kneser_graph(2, 2), return_colouring=True)
    assert chi == 4
    assert is_valid_colouring(stable_kneser_graph(2, 2), witness)
    with pytest.raises(ValueError):
        chromatic_number(one_vertex_looped())
    # no colouring of a loop is proper
    assert not is_valid_colouring(one_vertex_looped(), [0])
    assert not is_valid_colouring(graph_from_edges(2, [(0, 1), (1, 1)]), [0, 1])


def test_chromatic_number_against_brute_force():
    rng = random.Random(7)
    for trial in range(20):
        n = rng.randint(1, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        assert chromatic_number(g) == brute_force_chromatic(g.adjacency)


def test_chromatic_stable_kneser_is_k_plus_2():
    # includes the 25/36/30/27/49/50/55-vertex instances; each is sub-second
    for n, k in [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 2), (2, 0),
                 (4, 2), (5, 2), (3, 3), (2, 5), (6, 2), (3, 4), (4, 3)]:
        assert chromatic_number(stable_kneser_graph(n, k)) == k + 2


def test_vertex_criticality():
    assert vertex_criticality_check(stable_kneser_graph(2, 2))
    assert vertex_criticality_check(cycle_graph(5))
    pendant = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    assert chromatic_number(pendant) == 3
    assert not vertex_criticality_check(pendant)
    with pytest.raises(ValueError):
        vertex_criticality_check(Graph(()))


def test_stable_kneser_4_3_is_vertex_critical():
    g = stable_kneser_graph(4, 3)
    rotation = vertex_permutation(g, DihedralElement.sigma(11))
    assert vertex_criticality_check(g, 5, [rotation])


@st.composite
def loopless_graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [p for p, b in zip(pairs, keep) if b])


def assert_agrees_with_reference(g, mask, order, kcol):
    """On the vertices of mask: colourable exactly when `dsatur_reference` says
    so on the induced subgraph, by at most kcol classes that partition mask
    and colour that subgraph properly."""
    got = graphs._k_colouring(g.adjacency, mask, kcol)
    h = induced_subgraph(g.adjacency, mask)
    assert (got is None) == (dsatur_reference(h, order, kcol) is None), kcol
    if got is not None:
        assert len(got) <= kcol
        colour = {}
        for c, cls in enumerate(got):
            for v in set_bits(cls):
                assert v not in colour, "classes overlap"
                colour[v] = c
        assert sorted(colour) == set_bits(mask)
        colouring = [colour[v] for v in sorted(colour)]
        assert is_valid_colouring(Graph(h.adjacency), colouring)
        assert all(c < kcol for c in colouring)
    return got


@settings(deadline=None, max_examples=150)
@given(loopless_graphs(12), st.data())
def test_k_colouring_agrees_with_reference_search(g, data):
    order = data.draw(st.permutations(range(g.n)))
    for kcol in range(6):
        assert_agrees_with_reference(g, (1 << g.n) - 1, order, kcol)


@settings(deadline=None, max_examples=150)
@given(loopless_graphs(12), st.data())
def test_k_colouring_on_a_mask_agrees_with_reference_on_the_induced_subgraph(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    order = data.draw(st.permutations(range(mask.bit_count())))
    for kcol in range(6):
        assert_agrees_with_reference(g, mask, order, kcol)


def test_k_colouring_agrees_with_reference_on_stable_kneser():
    for n, k in [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (2, 4)]:
        g = stable_kneser_graph(n, k)
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        for kcol in (k + 1, k + 2):
            got = assert_agrees_with_reference(g, (1 << g.n) - 1, order, kcol)
            assert (got is not None) == (kcol == k + 2), (n, k, kcol)


def circulant(n, steps):
    return graph_from_edges(n, {tuple(sorted((i, (i + s) % n)))
                                for i in range(n) for s in steps if s % n})


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 11), loopless_graphs(4), st.data())
def test_criticality_by_orbits_matches_all_deletions_on_circulants(n, side, data):
    # C_n(S) beside a graph the automorphism fixes, so orbits are not all equal
    steps = data.draw(st.sets(st.integers(1, n // 2), max_size=3)) if n > 1 else set()
    c = circulant(n, steps)
    g = Graph(tuple(c.adjacency) + tuple(row << n for row in side.adjacency))
    shift = data.draw(st.integers(0, n - 1))
    rotation = [(i + shift) % n for i in range(n)] + list(range(n, g.n))
    chi = data.draw(st.sampled_from([None, chromatic_number(g)]))
    assert vertex_criticality_check(g, chi, [rotation]) == critical_by_all_deletions(g.adjacency)


@settings(deadline=None, max_examples=60)
@given(loopless_graphs(9).filter(lambda g: g.n > 0))
def test_criticality_without_automorphisms_matches_all_deletions(g):
    assert vertex_criticality_check(g) == critical_by_all_deletions(g.adjacency)


def test_criticality_orbit_of_a_non_critical_part():
    # K_4 plus a disjoint C_5: chi = 4, and deleting a C_5 vertex keeps it 4
    g = graph_from_edges(9, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                         + [(4 + i, 4 + (i + 1) % 5) for i in range(5)])
    rotation = [0, 1, 2, 3, 5, 6, 7, 8, 4]
    assert not vertex_criticality_check(g, 4, [rotation])
    assert not critical_by_all_deletions(g.adjacency)
    assert vertex_criticality_check(complete_graph(4), 4, [[1, 2, 3, 0]])


def test_criticality_refuses_bad_automorphisms_before_searching(monkeypatch):
    def no_search(*args):
        raise AssertionError("colouring search ran")

    monkeypatch.setattr(graphs, "_k_colouring", no_search)
    monkeypatch.setattr(graphs, "chromatic_number", no_search)
    g = cycle_graph(5)
    for bad in ([0, 0, 1, 2, 3], [1, 2, 3, 4], [0, 2, 1, 3, 4]):
        with pytest.raises(ValueError):
            vertex_criticality_check(g, None, [[1, 2, 3, 4, 0], bad])
    with pytest.raises(ValueError):
        vertex_criticality_check(g, 0)
    with pytest.raises(ValueError):
        vertex_criticality_check(one_vertex_looped())


@pytest.mark.parametrize("classes", [[0b1010, 0b1100], [0b0010, 0b0100],
                                     [0b0110, 0b1000], [0b0010, 0b0100, 0b1000]])
def test_criticality_refuses_classes_that_do_not_colour_the_rest(monkeypatch, classes):
    # K_3 beside an isolated vertex 3: chi = 3, so the search after deleting
    # vertex 0 must return at most two disjoint independent classes covering
    # 1, 2, 3; these overlap, miss 3, join 1 to 2, or number three.  Later
    # searches find no colouring, so only vertex 0's classes can raise.
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    monkeypatch.setattr(graphs, "_k_colouring",
                        lambda adj, mask, kcol: classes if mask == 0b1110 else None)
    with pytest.raises(RuntimeError, match="improper colouring"):
        vertex_criticality_check(g, 3)


def test_dihedral_act_examples():
    s = mask_of([0, 2])
    assert members(dihedral_act(s, DihedralElement.sigma(5))) == (1, 3)
    assert members(dihedral_act(s, DihedralElement.rho(5))) == (0, 3)
    # a mask carries no modulus: SG_{2,1} lives in Z_5, and rho of D_12
    # sends {0,2} to {0,4}, which is no vertex
    with pytest.raises(ValueError, match=r"does not preserve the vertex set at \{0,2\}"):
        vertex_permutation(stable_kneser_graph(2, 1), DihedralElement.rho(6))
    # SG_{2,2} lives in Z_6; its label {1,5} has bit 5, outside Z_5
    with pytest.raises(ValueError, match="modulus mismatch"):
        vertex_permutation(stable_kneser_graph(2, 2), DihedralElement.rho(5))


def test_dihedral_act_refuses_a_set_outside_z_m():
    with pytest.raises(ValueError, match=r"modulus mismatch: set \{7\} does not lie in Z_5"):
        dihedral_act(1 << 7, DihedralElement.sigma(5))
    with pytest.raises(ValueError, match=r"set \{0,5\} does not lie in Z_5"):
        dihedral_act(mask_of([0, 5]), DihedralElement.rho(5))
    assert dihedral_act(mask_of([0, 4]), DihedralElement.sigma(5)) == mask_of([0, 1])


def test_vertex_permutation_refuses_a_label_outside_z_m():
    labels = [1 << 0, 1 << 7]
    g = graph_from_edges(2, [(0, 1)], labels)
    with pytest.raises(ValueError, match=r"modulus mismatch: set \{7\} does not lie in Z_5"):
        vertex_permutation(g, DihedralElement.sigma(5))


@settings(deadline=None)
@given(st.data())
def test_dihedral_act_matches_member_wise_reference(data):
    m = data.draw(st.integers(1, 12))
    s = data.draw(st.integers(0, (1 << m) - 1))
    g = DihedralElement(m, data.draw(st.integers(-2 * m, 2 * m)), data.draw(st.booleans()))
    assert set(members(dihedral_act(s, g))) == \
        dihedral_set_reference(members(s), m, g.shift, g.flip)


def test_dihedral_right_action_and_relation():
    rng = random.Random(3)
    for m in (5, 6, 8):
        elems = [DihedralElement(m, a, f) for a in range(m) for f in (False, True)]
        sets = [mask_of(c) for c in itertools.combinations(range(m), 2)]
        for _ in range(50):
            s = rng.choice(sets)
            g, h = rng.choice(elems), rng.choice(elems)
            assert dihedral_act(s, g * h) == dihedral_act(dihedral_act(s, g), h)
        sigma, rho = DihedralElement.sigma(m), DihedralElement.rho(m)
        for s in sets:
            lhs = dihedral_act(dihedral_act(s, sigma), rho)
            rhs = dihedral_act(dihedral_act(s, rho), sigma.inverse())
            assert lhs == rhs


def test_dihedral_action_preserves_stable_kneser_adjacency():
    g = stable_kneser_graph(2, 2)
    for elem in generate_subgroup([DihedralElement.sigma(6), DihedralElement.rho(6)]):
        perm = vertex_permutation(g, elem)  # raises if not an automorphism
        assert sorted(perm) == list(range(g.n))


def test_free_action_check_rho_on_sg21():
    g = stable_kneser_graph(2, 1)
    result = free_action_check(g, [DihedralElement.rho(5)])
    assert set(result) == {(0, True)}
    witness = result[(0, True)]
    assert witness is not None
    v, k = witness
    perm = vertex_permutation(g, DihedralElement.rho(5))
    assert g.has_edge(v, perm[v])


def test_free_action_check_half_turn_on_sg2s4():
    # the half-turn witness set {2j} u {2j+2s+3} and full freeness of <sigma>
    for s in (1, 2):
        n = 2 * s
        m = 4 * (s + 1)
        g = stable_kneser_graph(n, 4)
        witness = [2 * j for j in range(s)] + [2 * j + 2 * s + 3 for j in range(s)]
        vertex = mask_of(witness)
        assert is_stable(m, vertex)
        half = DihedralElement.sigma(m, m // 2)
        image = dihedral_act(vertex, half)
        idx = g.label_index()
        assert g.has_edge(idx[vertex], idx[image])
        result = free_action_check(g, [DihedralElement.sigma(m)])
        assert all(w is not None for w in result.values())


def test_free_action_check_identity_excluded():
    g = stable_kneser_graph(2, 1)
    sigma = DihedralElement.sigma(5)
    result = free_action_check(g, [sigma * sigma.inverse()])
    assert result == {}


def test_free_action_check_reports_not_free():
    # C_4 with rotation labels: the half turn sends every vertex to its
    # antipode, which is never adjacent, and its square is the identity
    labels = [1 << j for j in range(4)]
    square = graph_from_edges(4, [(i, (i + 1) % 4) for i in range(4)], labels)
    result = free_action_check(square, [DihedralElement.sigma(4, 2)])
    assert result == {(2, False): None}


def test_automorphism_group_orders():
    assert automorphism_group_order(cycle_graph(5)) == 10
    assert automorphism_group_order(complete_graph(4)) == 24
    assert automorphism_group_order(stable_kneser_graph(2, 2)) == 12
    with pytest.raises(ValueError):
        automorphism_group_order(kneser_graph(2, 3))  # 35 > 16 vertices


def test_automorphisms_against_brute_force():
    rng = random.Random(11)
    for trial in range(10):
        n = rng.randint(1, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        assert automorphism_group_order(g) == brute_force_automorphisms(g.adjacency)


def test_subgroup_generation():
    full = generate_subgroup([DihedralElement.sigma(6), DihedralElement.rho(6)])
    assert len(full) == 12
    rotations = generate_subgroup([DihedralElement.sigma(6)])
    assert len(rotations) == 6
    assert len(generate_subgroup([DihedralElement.sigma(6, 3)])) == 2


def test_labels_must_be_injective():
    lab = mask_of([0])
    with pytest.raises(ValueError):
        Graph((0, 0), (lab, lab))


def test_vertex_permutation_rejects_broken_action():
    # path labelled so that sigma maps a vertex label off the vertex set
    labels = [1 << j for j in (0, 1)]
    g = graph_from_edges(2, [(0, 1)], labels)
    with pytest.raises(ValueError):
        vertex_permutation(g, DihedralElement.sigma(4))
    # full label set, but adjacency is not preserved by rho
    labels = [1 << j for j in (0, 1, 2)]
    path = graph_from_edges(3, [(0, 1), (1, 2)], labels)
    with pytest.raises(ValueError, match="does not preserve the edges"):
        vertex_permutation(path, DihedralElement.rho(3))


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 7) for k in range(0, 13 - 2 * n)])
def test_vertex_permutation_matches_label_reference_and_preserves_edges(n, k):
    # every element of D_{2m} on SG_{n,k}, m <= 12: the permutation is the
    # member-wise image of each label, and every edge goes to an edge
    m = 2 * n + k
    g = stable_kneser_graph(n, k)
    index = {frozenset(members(lab)): i for i, lab in enumerate(g.labels)}
    group = generate_subgroup([DihedralElement.sigma(m), DihedralElement.rho(m)])
    assert len(group) == 2 * m
    for elem in group:
        perm = vertex_permutation(g, elem)
        assert perm == [index[dihedral_set_reference(members(lab), m, elem.shift, elem.flip)]
                        for lab in g.labels]
        assert all(g.has_edge(perm[i], perm[j]) for i, j in g.edges())
