"""Every accepted equivalent mutant in ``tools/equivalent_mutants.txt`` is
still a mutant of its module's current source, so a refactor that removes
or rewrites a comparison cannot leave a stale entry behind."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("entry", sorted(mutants.accepted()))
def test_entry_is_a_current_mutant(entry):
    module, _, text = entry.partition(".py: ")
    source = (ROOT / "src" / "ksqrng" / f"{module}.py").read_bytes()
    assert text in {m.text for m in mutants.mutants(source)}
