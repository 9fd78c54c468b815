"""The package's public names."""

from collections import Counter

import matchdist


def test_all_names_resolve_once():
    twice = [name for name, n in Counter(matchdist.__all__).items() if n > 1]
    assert twice == []
    missing = [name for name in matchdist.__all__ if not hasattr(matchdist, name)]
    assert missing == []
