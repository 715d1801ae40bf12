"""The package's public surface: ``centlat.__all__`` and the README tour."""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import centlat

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves_once():
    assert [n for n, k in Counter(centlat.__all__).items() if k > 1] == []
    namespace: dict = {}
    exec("from centlat import *", namespace)
    assert set(centlat.__all__) <= namespace.keys()


def test_readme_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
