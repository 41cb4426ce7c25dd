"""The reporting rule: a percentile needs ten samples beyond it."""

import pytest

from common import Dist, percentile, supported, tail_percentile


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    tail = tail_percentile([float(i) for i in range(n)])
    assert (tail and tail[0]) == expected
    if tail is not None:
        beyond = sum(1 for i in range(n) if i > tail[1])
        assert beyond >= 10


def test_an_unsupported_percentile_is_not_reported():
    assert supported(1000, 99) and not supported(999, 99)
    assert Dist(range(999)).at(99) is None
    assert Dist(range(1000)).at(99) == 989
    assert Dist(range(1000)).n == 1000
