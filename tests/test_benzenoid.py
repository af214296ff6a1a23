from fractions import Fraction

import pytest

from distindex import (
    coronene_tw3,
    gen_coronene,
    horizontal_cut_profile,
    is_partial_cube,
    orientation_groups,
    theta_classes,
    twk,
    twk_cut,
)
from helpers import is_bipartite


def test_benzene_is_hexagon():
    h = gen_coronene(1)
    assert h.graph.n == 6 and h.graph.m == 6
    assert h.graph.degrees() == [2] * 6


def test_vertex_and_degree_counts():
    for k in range(1, 7):
        h = gen_coronene(k)
        assert h.graph.n == 6 * k * k
        assert h.graph.m == 9 * k * k - 3 * k
        degs = h.graph.degrees()
        assert sum(1 for d in degs if d == 2) == 6 * k
        assert sum(1 for d in degs if d == 3) == 6 * k * k - 6 * k
        assert set(degs) <= {2, 3}


def test_bipartite_and_partial_cube():
    for k in range(1, 5):
        h = gen_coronene(k)
        assert is_bipartite(h.graph)
        verdict = is_partial_cube(h.graph)
        assert verdict.accepted, verdict.reason


def test_class_count_and_orientations():
    for k in range(1, 6):
        h = gen_coronene(k)
        part = theta_classes(h.graph)
        assert part.class_count == 3 * (2 * k - 1)
        groups = orientation_groups(h, part)
        assert sorted(groups) == [(0, 2), (1, -1), (1, 1)]
        assert all(len(v) == 2 * k - 1 for v in groups.values())


def coronene_profile(k: int) -> list[tuple[int, int]]:
    h = gen_coronene(k)
    return horizontal_cut_profile(h, theta_classes(h.graph))


def test_profile_frozen():
    assert coronene_profile(1) == [(3, 3)]
    assert coronene_profile(2) == [(5, 4), (12, 6)]
    profile3 = coronene_profile(3)
    assert profile3[0] == (7, 5)
    assert profile3[2] == (27, 9)


def test_profile_matches_closed_forms():
    # horizontal_cut_profile asserts the closed forms internally; a
    # clean return is the check
    for k in range(1, 6):
        profile = coronene_profile(k)
        assert profile == [(i * (2 * k + i), k + 2 * i) for i in range(1, k + 1)]


def test_mirror_cut_symmetry():
    # cut i from the top and cut i from the bottom split the degree-3
    # vertices identically
    for k in (2, 3, 4):
        h = gen_coronene(k)
        part = theta_classes(h.graph)
        groups = orientation_groups(h, part)
        vertical = groups[(0, 2)]

        def band_top(ci):
            return max(max(h.coords[u][1], h.coords[v][1]) for u, v in part.classes[ci])

        cuts = sorted(vertical, key=band_top, reverse=True)
        deg3 = sum(1 << v for v in range(h.graph.n) if h.graph.degree(v) == 3)

        def deg3_product(ci):
            lo = (part.side0[ci] & deg3).bit_count()
            hi = (part.side1[ci] & deg3).bit_count()
            return lo * hi

        for i in range(k):
            assert deg3_product(cuts[i]) == deg3_product(cuts[2 * k - 2 - i])


def test_tw3_formula_frozen():
    assert [coronene_tw3(k) for k in range(1, 6)] == [0, 174, 2838, 16212, 58356]
    with pytest.raises(ValueError):
        coronene_tw3(0)


def test_tw3_three_routes_agree():
    for k in range(1, 5):
        h = gen_coronene(k)
        part = theta_classes(h.graph)
        formula = coronene_tw3(k)
        assert twk_cut(h.graph, 3, part) == formula
        assert twk(h.graph, 3) == formula


def test_tw3_one_third_identity():
    # TW_3 / 3 equals the square of the degree-3 half count plus twice
    # the sum of per-cut side products
    for k in range(1, 7):
        half = 3 * k * k - 3 * k
        acc = Fraction(half) ** 2
        for i in range(1, k):
            above = 2 * k * i + i * i - k - 2 * i
            acc += 2 * above * (6 * k * k - 6 * k - above)
        assert Fraction(coronene_tw3(k), 3) == acc


def test_tw3_quintic_expansion():
    for k in range(1, 9):
        value = (
            Fraction(164, 15) * k ** 5
            - Fraction(82, 3) * k ** 4
            + Fraction(58, 3) * k ** 3
            - Fraction(5, 3) * k ** 2
            - Fraction(19, 15) * k
        )
        assert Fraction(coronene_tw3(k), 3) == value


def test_gen_coronene_validation():
    with pytest.raises(ValueError):
        gen_coronene(0)


def test_coords_cover_graph():
    h = gen_coronene(3)
    assert len(h.coords) == h.graph.n
    assert len(set(h.coords)) == h.graph.n
    # doubled coordinates keep adjacent vertices at lattice unit steps
    for u, v in h.graph.edges():
        dx = abs(h.coords[u][0] - h.coords[v][0])
        dy = abs(h.coords[u][1] - h.coords[v][1])
        assert (dx, dy) in {(0, 2), (1, 1)}
