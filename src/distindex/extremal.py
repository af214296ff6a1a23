"""Extremal tree families: generators and closed-form optima.

The families here maximize either the number of vertex pairs at a fixed
distance k (double brooms for odd k, balanced starlike brooms for even
k) or the distance sum over degree-k vertices (caterpillars with the
high-degree vertices packed symmetrically toward the spine ends).
Vertex numbering is deterministic: spine or center first, then arm
vertices, then pendant groups in spine/arm order.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from typing import NamedTuple

from .errors import InfeasibleSpecError
from .graphs import Graph, check_order, from_edge_list


class TreeSpec(NamedTuple):
    """Parametrized description of one tree from the named families."""

    kind: str
    n: int = 0
    k: int = 0
    p: int = 0
    a1: int = 0
    a2: int = 0
    parts: tuple[int, ...] = ()

    @classmethod
    def path(cls, n: int) -> "TreeSpec":
        if n < 1:
            raise InfeasibleSpecError("path needs n >= 1")
        return cls(kind="path", n=n)

    @classmethod
    def star(cls, n: int) -> "TreeSpec":
        if n < 1:
            raise InfeasibleSpecError("star needs n >= 1")
        return cls(kind="star", n=n)

    @classmethod
    def double_broom(cls, k: int, a1: int, a2: int) -> "TreeSpec":
        """Path on k-1 vertices with a1 pendants on one end and a2 on
        the other; pendant pairs across the ends sit at distance k."""
        if k < 3:
            raise InfeasibleSpecError("double broom needs k >= 3")
        if a1 < 1 or a2 < 1:
            raise InfeasibleSpecError("double broom needs both groups nonempty")
        return cls(kind="double_broom", n=k - 1 + a1 + a2, k=k, a1=a1, a2=a2)

    @classmethod
    def starlike_broom(cls, k: int, parts: tuple[int, ...]) -> "TreeSpec":
        """Center with p arms of length k/2 - 1, arm i ending in
        parts[i] pendants; pendants of different arms sit at distance k."""
        if k < 4 or k % 2:
            raise InfeasibleSpecError("starlike broom needs even k >= 4")
        parts = tuple(parts)
        if len(parts) < 2:
            raise InfeasibleSpecError("starlike broom needs at least 2 arms")
        if any(a < 1 for a in parts):
            raise InfeasibleSpecError("every arm needs at least one pendant")
        arm = k // 2 - 1
        return cls(
            kind="starlike_broom", n=1 + len(parts) * arm + sum(parts),
            k=k, p=len(parts), parts=parts,
        )

    @classmethod
    def caterpillar(cls, n: int, k: int, p: int) -> "TreeSpec":
        """Spine path v_0..v_{s+1} with k-2 pendants on each of p
        interior spine vertices chosen symmetrically ends-inward, so
        those p vertices have degree exactly k."""
        if k < 3:
            raise InfeasibleSpecError("caterpillar needs degree k >= 3")
        if p < 0:
            raise InfeasibleSpecError("caterpillar needs p >= 0")
        s = n - p * (k - 2) - 2
        if s < 0:
            raise InfeasibleSpecError(f"n={n} too small for p={p} groups of degree {k}")
        if p > s:
            raise InfeasibleSpecError(f"p={p} exceeds the {s} interior spine slots")
        return cls(kind="caterpillar", n=n, k=k, p=p)

    def predicted(self) -> dict:
        """The closed-form index value of the tree, keyed as gen prints
        it: W of a path or a star, W_k of a double or starlike broom (its
        pendant pairs across groups), TW_k of a caterpillar."""
        if self.kind == "path":
            return {"wiener": (self.n + 1) * self.n * (self.n - 1) // 6}
        if self.kind == "star":
            return {"wiener": (self.n - 1) * (self.n - 1)}
        if self.kind in ("double_broom", "starlike_broom"):
            groups = (self.a1, self.a2) if self.kind == "double_broom" else self.parts
            q = sum(groups)
            return {"wk": (q * q - sum(a * a for a in groups)) // 2, "k": self.k}
        if self.kind == "caterpillar":
            return {"twk": caterpillar_twk(self.n, self.k, self.p), "k": self.k}
        raise InfeasibleSpecError(f"unknown tree kind {self.kind!r}")

    def describe(self) -> dict:
        out = {"kind": self.kind, "n": self.n}
        if self.kind == "double_broom":
            out.update(k=self.k, a1=self.a1, a2=self.a2)
        elif self.kind == "starlike_broom":
            out.update(k=self.k, parts=list(self.parts))
        elif self.kind == "caterpillar":
            out.update(k=self.k, p=self.p)
        return out


def caterpillar_positions(s: int, p: int) -> list[int]:
    """Spine indices (1-based, among v_1..v_s) that carry pendants:
    pairs (t, s+1-t) from the ends inward, plus the middle slot
    ceil(s/2) when p is odd."""
    if not 0 <= p <= s:
        raise InfeasibleSpecError(f"p={p} outside 0..{s}")
    h = p // 2
    pos = sorted(chain(range(1, h + 1), range(s + 1 - h, s + 1), [(s + 1) // 2] * (p % 2)))
    if len(set(pos)) != p:
        raise InfeasibleSpecError(f"pendant positions collide for s={s}, p={p}")
    return pos


def gen_tree(spec: TreeSpec) -> Graph:
    """Materialize a TreeSpec as a concrete graph.  Its edges are built
    from ranges, in the module's vertex numbering: a path's edges join
    neighbouring numbers, and the pendants, numbered on from the last
    path or arm vertex, are zipped with their owners repeated."""
    n = spec.n
    check_order(n)
    if spec.kind == "path":
        return from_edge_list(n, zip(range(n - 1), range(1, n)))
    if spec.kind == "star":
        return from_edge_list(n, zip(repeat(0), range(1, n)))
    if spec.kind == "double_broom":
        spine = spec.k - 1
        owners = chain(repeat(0, spec.a1), repeat(spine - 1, spec.a2))
        return from_edge_list(n, chain(zip(range(spine - 1), range(1, spine)),
                                       zip(owners, count(spine))))
    if spec.kind == "starlike_broom":
        # arm i holds the vertices i*arm + 1 .. (i+1)*arm, its first
        # hanging off the centre 0 and its last, the tip, owning parts[i]
        arm = spec.k // 2 - 1
        body = spec.p * arm
        prev = list(range(body))
        prev[::arm] = repeat(0, spec.p)
        tips = range(arm, body + 1, arm)
        owners = chain.from_iterable(map(repeat, tips, spec.parts))
        return from_edge_list(n, chain(zip(prev, range(1, body + 1)),
                                       zip(owners, count(body + 1))))
    if spec.kind == "caterpillar":
        s = n - spec.p * (spec.k - 2) - 2
        pos = caterpillar_positions(s, spec.p)
        owners = chain.from_iterable(map(repeat, pos, repeat(spec.k - 2)))
        return from_edge_list(n, chain(zip(range(s + 1), range(1, s + 2)),
                                       zip(owners, count(s + 2))))
    raise InfeasibleSpecError(f"unknown tree kind {spec.kind!r}")


def max_wk_odd(n: int, k: int) -> tuple[int, TreeSpec]:
    """Largest distance-k pair count over trees on n vertices, odd k:
    floor((n-k+1)/2) * ceil((n-k+1)/2), attained by the balanced double
    broom."""
    if k < 3 or k % 2 == 0:
        raise InfeasibleSpecError("odd-case formula needs odd k >= 3")
    if n < k + 1:
        raise InfeasibleSpecError(f"need n >= k+1 to realize distance {k}")
    q = n - k + 1
    spec = TreeSpec.double_broom(k, q // 2, q - q // 2)
    return spec.predicted()["wk"], spec


def _balanced_parts(q: int, p: int) -> tuple[int, ...]:
    base, r = divmod(q, p)
    return (base + 1,) * r + (base,) * (p - r)


def max_wk_even(n: int, k: int) -> tuple[int, TreeSpec]:
    """Largest distance-k pair count over trees on n vertices, even k.

    Searches every feasible arm count p with balanced pendant groups;
    the integer optimum can sit off the real-valued peak, so the search
    is exhaustive.  Ties resolve to the smallest p.
    """
    if k < 4 or k % 2:
        raise InfeasibleSpecError("even-case search needs even k >= 4")
    if n < k + 1:
        raise InfeasibleSpecError(f"need n >= k+1 to realize distance {k}")
    arm = k // 2 - 1
    specs = []
    # p arms take p * arm vertices besides the centre and need a pendant each
    for p in range(2, (n - 1) // (arm + 1) + 1):
        parts = _balanced_parts(n - 1 - p * arm, p)
        specs.append(
            TreeSpec.double_broom(k, *parts) if p == 2 else TreeSpec.starlike_broom(k, parts)
        )
    best = max(specs, key=lambda spec: spec.predicted()["wk"])  # the first of a tie
    return best.predicted()["wk"], best


def max_degree_count(n: int, k: int) -> int:
    """Largest possible number of degree-k vertices in a tree on n
    vertices: floor((n-2)/(k-1))."""
    if n < 2:
        raise InfeasibleSpecError("needs n >= 2")
    if k < 2:
        raise InfeasibleSpecError("needs k >= 2")
    return (n - 2) // (k - 1)


def caterpillar_twk(n: int, k: int, p: int) -> int:
    """Distance sum over the p degree-k spine vertices of the symmetric
    caterpillar, in closed form.

    Both parity branches are evaluated in two algebraic arrangements
    (spine-length form and order form) and cross-checked before
    returning.
    """
    TreeSpec.caterpillar(n, k, p)
    s = n - p * (k - 2) - 2
    if p % 2 == 0:
        v1 = p * (3 * p * s - p * p - 2)
        v2 = p * (3 * n * p + 5 * p * p - 3 * k * p * p - 2 - 6 * p)
    else:
        v1 = (p + 1) * (p - 1) * (3 * s - p)
        v2 = (p + 1) * (p - 1) * (3 * n + 5 * p - 3 * k * p - 6)
    if v1 != v2:
        raise RuntimeError(f"formula arrangements disagree: {v1} vs {v2}")
    value, rem = divmod(v1, 12)
    if rem:
        raise RuntimeError(f"formula value {v1} not divisible by 12")
    return value


def max_tw3(n: int) -> tuple[int, TreeSpec]:
    """Largest distance sum over degree-3 vertex pairs of a tree on n
    vertices, attained by the caterpillar with p = max(floor(n/2) - 1, 0).
    n <= 1 leaves no room for the spine's two ends and raises
    InfeasibleSpecError.

    Up to n = 5 the value is 0: no tree that small has two vertices of
    degree 3, so every tree of the order attains it, and at n = 4 and 5
    the caterpillar is not the unique maximizer (see
    verify.verify_max_tw3)."""
    spec = TreeSpec.caterpillar(n, 3, max(n // 2 - 1, 0))
    return spec.predicted()["twk"], spec
