"""The package's exported names."""

import tgmenger

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
