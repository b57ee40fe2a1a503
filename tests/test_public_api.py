import modens


def test_every_export_resolves_once():
    assert len(modens.__all__) == len(set(modens.__all__))
    missing = [name for name in modens.__all__ if not hasattr(modens, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from modens import *", namespace)
    assert set(modens.__all__) <= set(namespace)
