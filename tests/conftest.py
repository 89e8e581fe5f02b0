import pytest

from lagtp import digraphs


# the cached functions themselves, which a planting test may have wrapped
_COUNT_CACHES = (digraphs._stat_table, digraphs._projected)


@pytest.fixture(autouse=True)
def _no_limit_from_the_shell(monkeypatch):
    """Every test starts at the default digraph cap, whatever LAGTP_LIMIT
    the shell exports; a test that needs a value sets it itself."""
    monkeypatch.delenv("LAGTP_LIMIT", raising=False)


def _clear_count_tables():
    for cached in _COUNT_CACHES:
        cached.cache_clear()


@pytest.fixture
def fresh_count_tables():
    """Clear the digraph oracle's cached count tables before and after the
    test: a table planted below the caches is then projected afresh, and
    no corrupted table leaks into later tests."""
    _clear_count_tables()
    yield
    _clear_count_tables()


@pytest.fixture
def plant_count(monkeypatch, fresh_count_tables):
    """plant_count(n, k, stat, less=None, loops=True): the first tuple of
    the (n, k) statistics table, cycle-free unless ``loops``, counts one
    more ``stat`` and, given ``less``, one fewer ``less`` (names in
    ``digraphs._STATS``)."""
    def plant(n, k, stat, less=None, loops=True):
        real = digraphs._stat_table
        delta = [0] * len(digraphs._STATS)
        delta[digraphs._STATS.index(stat)] += 1
        if less is not None:
            delta[digraphs._STATS.index(less)] -= 1

        def planted(m, j, cycles=True):
            table = real(m, j, cycles)
            if (m, j, cycles) != (n, k, loops):
                return table
            (stats, count), *rest = table
            return (tuple(map(sum, zip(stats, delta))), count), *rest

        monkeypatch.setattr(digraphs, "_stat_table", planted)

    return plant
