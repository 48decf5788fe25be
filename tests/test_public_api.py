"""The package's exported names."""

import pytest

import tgmenger
from tgmenger import disjoint_paths
from tgmenger.errors import BudgetExceeded

FOLDED_RESULT_CLASSES = [
    "EdgeDisjointResult",
    "InjectiveResult",
    "MinCutResult",
    "MultiedgeCutResult",
    "MinMultiedgeCutResult",
]


def test_every_exported_name_resolves():
    missing = [name for name in tgmenger.__all__ if not hasattr(tgmenger, name)]
    assert missing == []
    namespace: dict = {}
    exec("from tgmenger import *", namespace)
    assert set(tgmenger.__all__) <= set(namespace)


def test_folded_result_classes_are_gone():
    for name in FOLDED_RESULT_CLASSES:
        assert name not in tgmenger.__all__
        assert not hasattr(tgmenger, name)
    assert "CutResult" in tgmenger.__all__
    assert "FlowResult" in tgmenger.__all__


def test_each_packing_call_builds_one_product(demo, monkeypatch):
    # perfbench/tracing.py reads the product build of every
    # max_snapshot_disjoint call from ProductDigraph.__init__, so that
    # method must run exactly once per call, whatever the answer.
    builds = []
    init = disjoint_paths.ProductDigraph.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(disjoint_paths.ProductDigraph, "__init__", counting)
    g = demo.graph
    assert tgmenger.max_snapshot_disjoint(g, "s", "z", 2).found
    assert len(builds) == 1
    assert not tgmenger.max_snapshot_disjoint(g, "s", "z", 3).found
    assert len(builds) == 2
    with pytest.raises(BudgetExceeded):
        tgmenger.max_snapshot_disjoint(g, "s", "z", 3, budget=2)
    assert len(builds) == 3
