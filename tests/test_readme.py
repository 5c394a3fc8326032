"""The README's "Library use" example runs against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README 'Library use' section has no python block"
    return match.group(1)


def test_library_use_example_runs():
    namespace: dict = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert namespace["summary"].n_trials == 10**6
    assert namespace["cert"].certified_plus and namespace["cert"].certified_minus
    assert len(namespace["bits"]) > 0
    assert len(namespace["results"]) == 5
