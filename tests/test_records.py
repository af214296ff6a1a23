"""The package's records are NamedTuples: immutable, hashable by value,
with the field repr they have always printed, and cheap to import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from distindex import (
    RootedTree,
    TreeSpec,
    from_edge_list,
    gen_coronene,
    index_report,
    is_partial_cube,
    wiener_polynomial,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_dataclasses_or_fractions():
    """import distindex.cli in a clean interpreter (no site) leaves
    dataclasses, fractions and decimal unimported."""
    code = (
        "import sys, distindex.cli; "
        "print(sorted({'dataclasses', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def _path3():
    return from_edge_list(3, [(0, 1), (1, 2)])


#: One instance of each record, as a builder called twice, with its repr.
RECORDS = {
    "Graph": (_path3, "Graph(n=3, adj=((1,), (0, 2), (1,)), m=2)"),
    "WienerPolynomial": (
        lambda: wiener_polynomial(_path3()), "WienerPolynomial(coeffs=(0, 2, 1))"
    ),
    "IndexReport": (
        lambda: index_report(_path3(), star_k=1),
        "IndexReport(n=3, m=2, wiener=4, poly=(0, 2, 1), twk_by_degree=((1, 2), (2, 0)), "
        "m1=6, m2=4, star_k=1, wk_star=2, twk_star=2)",
    ),
    "ThetaPartition": (
        lambda: is_partial_cube(_path3()).partition,
        "ThetaPartition(n=3, classes=(((0, 1),), ((1, 2),)), side0=(1, 3), side1=(6, 4))",
    ),
    "CubeCoordinates": (
        lambda: is_partial_cube(_path3()).coordinates,
        "CubeCoordinates(length=2, masks=(0, 1, 3))",
    ),
    "CubeVerdict": (
        lambda: is_partial_cube(_path3()),
        "CubeVerdict(accepted=True, reason=None, detail=None, "
        "coordinates=CubeCoordinates(length=2, masks=(0, 1, 3)), "
        "partition=ThetaPartition(n=3, classes=(((0, 1),), ((1, 2),)), side0=(1, 3), side1=(6, 4)))",
    ),
    "RootedTree": (
        lambda: RootedTree(parent=(1, 1), order=(0, 1), leaves=1),
        "RootedTree(parent=(1, 1), order=(0, 1), leaves=1)",
    ),
    "TreeSpec": (
        lambda: TreeSpec.path(3), "TreeSpec(kind='path', n=3, k=0, p=0, a1=0, a2=0, parts=())"
    ),
    "HexSystem": (
        lambda: gen_coronene(1),
        "HexSystem(k=1, graph=Graph(n=6, adj=((1, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 4)), "
        "m=6), coords=((-1, -1), (-1, 1), (0, -2), (0, 2), (1, -1), (1, 1)))",
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_repr_immutability_and_hash(name):
    make, text = RECORDS[name]
    rec, twin = make(), make()
    assert type(rec).__name__ == name
    assert repr(rec) == text
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert rec == twin and rec is not twin
    assert hash(rec) == hash(twin)


def test_rejected_verdict_is_falsy():
    verdict = is_partial_cube(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))
    assert verdict.reason == "not_bipartite"
    assert not verdict
    assert is_partial_cube(_path3())
