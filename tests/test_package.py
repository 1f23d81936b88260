"""The public namespace: every exported name resolves, listed once, in order."""

import nask


def test_all_names_resolve():
    missing = [name for name in nask.__all__ if not hasattr(nask, name)]
    assert missing == []


def test_all_is_sorted_and_unique():
    assert list(nask.__all__) == sorted(set(nask.__all__))
