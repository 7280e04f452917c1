"""The public API: ngcost.__all__ is the contract the README documents."""

import ngcost


def test_all_is_sorted_unique_and_resolves():
    names = ngcost.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(ngcost, name)]
    assert missing == []
