"""The package's record types compare, hash and print by their fields, and
refuse assignment."""

import math

import pytest

from totalcolour import (
    CertificationStatus,
    CertificationVerdict,
    CrownTotalColouring,
    DomainError,
    Graph,
    OracleResult,
    OracleStatus,
    ProductVertexMap,
    SearchBudget,
    TotalColouring,
    VerificationReport,
)


def _colouring(c: int) -> TotalColouring:
    return TotalColouring([0, 1], ((0, 1),), [c])


def _result(nodes: int) -> OracleResult:
    return OracleResult(OracleStatus.EXACT, 3, 3, 3, nodes)


# (build from one int, two ints giving different fields, a field's name,
#  hashable, the repr of build(first int))
RECORDS = {
    "Graph": (
        lambda k: Graph(2, ((0, 1),) * k), (1, 0), "n", True,
        "Graph(n=2, edges=((0, 1),), labels=None)",
    ),
    "TotalColouring": (
        _colouring, (2, 3), "edges", False,
        "TotalColouring(vertex_colours=[0, 1], edges=((0, 1),), edge_colours=[2])",
    ),
    "VerificationReport": (
        lambda k: VerificationReport(False, [(("v", 0), ("v", 1), k)], 1), (0, 1), "valid",
        False,
        "VerificationReport(valid=False, violations=[(('v', 0), ('v', 1), 0)], colours_used=1)",
    ),
    "ProductVertexMap": (
        lambda k: ProductVertexMap(2, k), (3, 4), "h_size", True,
        "ProductVertexMap(g_size=2, h_size=3)",
    ),
    "CrownTotalColouring": (
        lambda k: CrownTotalColouring(_colouring(k)), (2, 3), "colouring", False,
        "CrownTotalColouring(colouring=TotalColouring(vertex_colours=[0, 1], "
        "edges=((0, 1),), edge_colours=[2]))",
    ),
    "SearchBudget": (
        lambda k: SearchBudget(max_nodes=k), (7, 8), "max_nodes", True,
        "SearchBudget(max_nodes=7, max_seconds=None)",
    ),
    "OracleResult": (
        _result, (0, 5), "nodes", True,
        "OracleResult(status=<OracleStatus.EXACT: 'exact'>, chi_total=3, lower=3, "
        "upper=3, nodes=0)",
    ),
    "CertificationVerdict": (
        lambda k: CertificationVerdict(CertificationStatus.OPTIMAL, 3, _result(k)), (0, 5),
        "oracle", True,
        "CertificationVerdict(status=<CertificationStatus.OPTIMAL: 'optimal'>, "
        "colours_used=3, oracle=OracleResult(status=<OracleStatus.EXACT: 'exact'>, "
        "chi_total=3, lower=3, upper=3, nodes=0))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_value_semantics(name):
    build, (a, b), field, hashable, text = RECORDS[name]
    x, same, other = build(a), build(a), build(b)
    assert x == same and not x != same
    assert x != other and not x == other
    if hashable:
        assert hash(x) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(x)
    assert repr(x) == text
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert x == same


@pytest.mark.parametrize(
    "build",
    [
        lambda: SearchBudget(),
        lambda: SearchBudget(max_nodes=-1),
        lambda: SearchBudget(max_seconds=-1.0),
        lambda: SearchBudget(max_seconds=math.inf),
        lambda: TotalColouring([0, 1], ((0, 1),), []),
        lambda: TotalColouring([0, -1], ((0, 1),), [2]),
        lambda: TotalColouring([True, 0.5], ((0, 1),), [2]),
        lambda: TotalColouring([0, 1], ((0, 1),), [2.0]),
    ],
    ids=["no-limit", "negative-nodes", "negative-seconds", "infinite-seconds",
         "lengths-differ", "negative-colour", "bool-vertex-colour", "float-edge-colour"],
)
def test_records_validate(build):
    with pytest.raises(DomainError):
        build()
