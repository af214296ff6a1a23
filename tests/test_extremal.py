import itertools
import random
from fractions import Fraction

import pytest

from distindex import (
    InfeasibleSpecError,
    TreeSpec,
    caterpillar_positions,
    caterpillar_twk,
    gen_tree,
    max_degree_count,
    max_tw3,
    max_wk_even,
    max_wk_odd,
    twk,
    wiener,
    wiener_polynomial,
    wk,
)
from helpers import even_group_bound, even_group_peak, is_tree


def test_spec_path_star():
    assert gen_tree(TreeSpec.path(1)).n == 1
    p = gen_tree(TreeSpec.path(5))
    assert p.degrees() == [1, 2, 2, 2, 1]
    s = gen_tree(TreeSpec.star(6))
    assert s.degree(0) == 5


def test_double_broom_shape():
    spec = TreeSpec.double_broom(3, 4, 4)
    assert spec.n == 10
    g = gen_tree(spec)
    assert is_tree(g)
    assert sorted(g.degrees()) == [1] * 8 + [5, 5]
    assert wk(g, 3) == 16


def test_double_broom_distance_k_count():
    rng = random.Random(3)
    for _ in range(15):
        k = rng.randrange(3, 10)
        a1 = rng.randint(1, 6)
        a2 = rng.randint(1, 6)
        g = gen_tree(TreeSpec.double_broom(k, a1, a2))
        assert wk(g, k) == a1 * a2


def test_starlike_broom_shape():
    spec = TreeSpec.starlike_broom(6, (5, 5, 5))
    assert spec.n == 22
    g = gen_tree(spec)
    assert is_tree(g)
    assert g.degree(0) == 3
    assert sorted(g.degrees()) == [1] * 15 + [2] * 3 + [3, 6, 6, 6]


def test_starlike_broom_distance_k_count():
    rng = random.Random(5)
    for _ in range(15):
        k = rng.choice([4, 6, 8])
        parts = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 5)))
        g = gen_tree(TreeSpec.starlike_broom(k, parts))
        q = sum(parts)
        assert wk(g, k) == (q * q - sum(a * a for a in parts)) // 2


def test_caterpillar_shape():
    spec = TreeSpec.caterpillar(20, 4, 5)
    g = gen_tree(spec)
    assert is_tree(g) and g.n == 20
    assert sum(1 for d in g.degrees() if d == 4) == 5


def test_caterpillar_positions_rule():
    assert caterpillar_positions(8, 5) == [1, 2, 4, 7, 8]
    assert caterpillar_positions(5, 2) == [1, 5]
    assert caterpillar_positions(3, 3) == [1, 2, 3]
    assert caterpillar_positions(4, 0) == []
    assert caterpillar_positions(1, 1) == [1]
    with pytest.raises(InfeasibleSpecError):
        caterpillar_positions(3, 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TreeSpec.path(0),
        lambda: TreeSpec.double_broom(2, 1, 1),
        lambda: TreeSpec.double_broom(3, 0, 1),
        lambda: TreeSpec.starlike_broom(5, (1, 1)),
        lambda: TreeSpec.starlike_broom(6, (1,)),
        lambda: TreeSpec.starlike_broom(6, (0, 1)),
        lambda: TreeSpec.caterpillar(10, 2, 1),
        lambda: TreeSpec.caterpillar(10, 4, 4),
        lambda: TreeSpec.caterpillar(5, 3, 2),
    ],
)
def test_infeasible_specs(build):
    with pytest.raises(InfeasibleSpecError):
        build()


def test_generated_specs_have_declared_order():
    specs = [
        TreeSpec.path(9),
        TreeSpec.star(9),
        TreeSpec.double_broom(5, 2, 3),
        TreeSpec.starlike_broom(8, (2, 2, 1)),
        TreeSpec.caterpillar(17, 5, 3),
    ]
    for spec in specs:
        g = gen_tree(spec)
        assert is_tree(g) and g.n == spec.n


def test_max_wk_odd_frozen():
    value, spec = max_wk_odd(10, 3)
    assert value == 16
    assert spec.describe() == {"kind": "double_broom", "n": 10, "k": 3, "a1": 4, "a2": 4}
    assert max_wk_odd(12, 5)[0] == 16
    assert max_wk_odd(4, 3)[0] == 1


def test_max_wk_odd_witness_attains():
    for n in range(4, 26):
        for k in range(3, n, 2):
            value, spec = max_wk_odd(n, k)
            assert wk(gen_tree(spec), k) == value


def test_max_wk_odd_validation():
    with pytest.raises(InfeasibleSpecError):
        max_wk_odd(10, 4)
    with pytest.raises(InfeasibleSpecError):
        max_wk_odd(3, 3)


def test_even_group_bound_frozen():
    assert even_group_bound(22, 6, 2) == Fraction(289, 4)
    assert even_group_bound(22, 6, 3) == Fraction(75)
    assert even_group_bound(22, 6, 4) == Fraction(507, 8)
    with pytest.raises(ValueError):
        even_group_bound(22, 6, 8)
    with pytest.raises(InfeasibleSpecError):
        even_group_bound(22, 5, 2)


def test_even_group_peak():
    assert even_group_peak(22, 6) == pytest.approx(2.5549, abs=1e-4)
    assert even_group_peak(18, 4) == pytest.approx(3.1762, abs=1e-4)
    for k in (4, 6, 8):
        peaks = [even_group_peak(n, k) for n in range(k + 1, 80)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))


def test_max_wk_even_frozen():
    value, spec = max_wk_even(22, 6)
    assert value == 75
    assert spec.describe() == {"kind": "starlike_broom", "n": 22, "k": 6, "parts": [5, 5, 5]}
    value, spec = max_wk_even(10, 4)
    assert value == 12
    assert spec.kind == "double_broom"
    assert max_wk_even(5, 4)[0] == 1


def test_max_wk_even_beats_every_feasible_shape():
    # the search must dominate arbitrary (not just balanced) group sizes
    rng = random.Random(11)
    for _ in range(40):
        k = rng.choice([4, 6])
        n = rng.randint(k + 1, 30)
        best, _ = max_wk_even(n, k)
        arm = k // 2 - 1
        p = rng.randint(2, max(2, (n - 1) // max(arm, 1)))
        q = n - 1 - p * arm
        if q < p:
            continue
        cuts = sorted(rng.sample(range(1, q), p - 1)) if p > 1 else []
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [q]))
        if any(a < 1 for a in parts):
            continue
        shape = TreeSpec.double_broom(k, parts[0], parts[1]) if p == 2 \
            else TreeSpec.starlike_broom(k, parts)
        assert wk(gen_tree(shape), k) <= best


def test_balanced_groups_maximize():
    for q in range(2, 14):
        for p in range(2, min(q, 6) + 1):
            def value(parts):
                return (q * q - sum(a * a for a in parts)) // 2
            base, r = divmod(q, p)
            balanced = (base + 1,) * r + (base,) * (p - r)
            best = max(
                value(parts)
                for parts in itertools.combinations_with_replacement(range(1, q), p)
                if sum(parts) == q
            )
            assert value(balanced) == best


def test_max_wk_even_witness_attains():
    for n in range(5, 26):
        for k in range(4, n, 2):
            value, spec = max_wk_even(n, k)
            assert wk(gen_tree(spec), k) == value


def test_max_degree_count():
    assert max_degree_count(20, 4) == 6
    assert max_degree_count(12, 3) == 5
    assert max_degree_count(5, 2) == 3
    for n in range(2, 30):
        assert max_degree_count(n, 2) == n - 2
    with pytest.raises(InfeasibleSpecError):
        max_degree_count(1, 3)
    with pytest.raises(InfeasibleSpecError):
        max_degree_count(10, 1)


def test_max_degree_count_attained_by_caterpillar():
    for n in range(4, 40):
        for k in range(3, n):
            p = max_degree_count(n, k)
            if p == 0:
                continue
            g = gen_tree(TreeSpec.caterpillar(n, k, p))
            assert sum(1 for d in g.degrees() if d == k) == p


def test_caterpillar_twk_frozen():
    assert caterpillar_twk(20, 4, 5) == 38
    assert caterpillar_twk(8, 3, 3) == 4
    assert caterpillar_twk(8, 3, 2) == 3
    assert caterpillar_twk(9, 3, 1) == 0
    assert caterpillar_twk(6, 4, 0) == 0


def test_caterpillar_twk_matches_oracle_sampled():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 40)
        k = rng.randint(3, max(3, n - 1))
        pmax = (n - 2) // (k - 1)
        p = rng.randint(0, pmax) if pmax >= 0 else 0
        try:
            spec = TreeSpec.caterpillar(n, k, p)
        except InfeasibleSpecError:
            continue
        assert caterpillar_twk(n, k, p) == twk(gen_tree(spec), k)


def test_caterpillar_twk_infeasible():
    with pytest.raises(InfeasibleSpecError):
        caterpillar_twk(10, 4, 4)


def test_max_tw3_frozen():
    value, spec = max_tw3(8)
    assert value == 4
    assert spec.describe() == {"kind": "caterpillar", "n": 8, "k": 3, "p": 3}
    assert max_tw3(5)[0] == 0
    assert max_tw3(12)[0] == 20
    # every order the max-tw3 claim runs at, down to the one-edge path
    for n, p in ((2, 0), (3, 0), (4, 1)):
        assert max_tw3(n) == (0, TreeSpec.caterpillar(n, 3, p))
    for n in (0, 1):
        with pytest.raises(InfeasibleSpecError, match=f"n={n} too small for p=0 groups"):
            max_tw3(n)


def test_max_tw3_difference_pattern():
    # consecutive same-parity caterpillar values differ by
    # (p-1)(n-2p), minus 1 when p is even
    for n in range(8, 60):
        pmax = (n - 2) // 2
        for p in range(3, pmax + 1):
            diff = caterpillar_twk(n, 3, p) - caterpillar_twk(n, 3, p - 2)
            expected = (p - 1) * (n - 2 * p) - (1 if p % 2 == 0 else 0)
            assert diff == expected


def test_max_tw3_peak_dominates_other_p():
    for n in range(5, 40):
        best, _ = max_tw3(n)
        for p in range((n - 2) // 2 + 1):
            assert caterpillar_twk(n, 3, p) <= best


@pytest.mark.parametrize("n", range(1, 13))
def test_predicted_wiener_of_path_and_star(n):
    for spec in (TreeSpec.path(n), TreeSpec.star(n)):
        assert spec.predicted() == {"wiener": wiener(gen_tree(spec))}


@pytest.mark.parametrize(
    "spec",
    [TreeSpec.double_broom(k, a1, a2) for k in range(3, 8) for a1, a2 in ((1, 1), (2, 3), (4, 1))]
    + [
        TreeSpec.starlike_broom(k, parts)
        for k in (4, 6, 8)
        for parts in ((1, 2), (3, 1, 2), (1, 4, 2, 1), (5, 1, 1, 1, 2))
    ],
    ids=lambda spec: str(spec.describe()),
)
def test_predicted_wk_of_brooms(spec):
    assert spec.predicted() == {"wk": wk(gen_tree(spec), spec.k), "k": spec.k}


@pytest.mark.parametrize(
    "n, k, p", [(2, 3, 0), (5, 3, 1), (8, 3, 3), (12, 3, 5), (14, 4, 4), (20, 4, 5), (17, 5, 3)]
)
def test_predicted_twk_of_caterpillars(n, k, p):
    spec = TreeSpec.caterpillar(n, k, p)
    assert spec.predicted() == {"twk": twk(gen_tree(spec), k), "k": k}
