"""Every accepted equivalent mutant in ``tools/equivalent_mutants.txt`` names
exactly one flip of its module's current source, so a refactor that removes
or rewrites a comparison cannot leave a stale entry behind, and no entry
accepts a second flip with the same text."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _label(entry):
    """The entry without its function: the module and the mutated comparison."""
    module, function, text = entry.split(": ", 2)
    return f"{module}: {text}"


@pytest.mark.parametrize("entry", sorted(mutants.accepted()), ids=_label)
def test_entry_is_a_current_mutant(entry):
    module = entry.partition(".py: ")[0]
    assert mutants.module_keys(module).count(entry) == 1


def test_keys_hold_the_enclosing_function():
    source = b"A = 1 < 2\n\n\ndef f(p):\n    def g(q):\n        return q >= 0\n\n    return p >= 0, p >= 0\n"
    keys = [m.key("m") for m in mutants.mutants(source)]
    assert keys == ["m.py: <module>: 1 <= 2", "m.py: g: q > 0", "m.py: f: p > 0", "m.py: f: p > 0"]


def test_entry_naming_two_flips_fails_before_any_run(tmp_path, monkeypatch):
    (tmp_path / "src" / "ksqrng").mkdir(parents=True)
    (tmp_path / "src" / "ksqrng" / "m.py").write_text("def f(p):\n    return p >= 0, p >= 0\n")
    listed = tmp_path / "equivalent.txt"
    listed.write_text("m.py: f: p > 0 -- listed once, matches both flips\n")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "EQUIVALENT", listed)
    monkeypatch.setattr(mutants, "survey", lambda *a: pytest.fail("surveyed an ambiguous module"))
    assert mutants.main(["m"]) == 1
