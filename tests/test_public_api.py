import re
from pathlib import Path

import modens


def test_every_export_resolves_once():
    assert len(modens.__all__) == len(set(modens.__all__))
    missing = [name for name in modens.__all__ if not hasattr(modens, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from modens import *", namespace)
    assert set(modens.__all__) <= set(namespace)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    iv = namespace["iv"]
    assert iv.lo < iv.hi
