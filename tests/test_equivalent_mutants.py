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


def toy_checkout(root, fail_on_run):
    """A checkout whose module ``toy`` has one flip, ``x >= 0``, that its one
    test misses, and whose test also fails on run ``fail_on_run`` alone,
    counting its runs in a file outside the harness's copy."""
    (root / "src" / "ksqrng").mkdir(parents=True)
    (root / "src" / "ksqrng" / "__init__.py").write_text("")
    (root / "src" / "ksqrng" / "toy.py").write_text("def positive(x):\n    return x > 0\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_toy.py").write_text(
        "from pathlib import Path\n\nfrom ksqrng.toy import positive\n\n"
        f"COUNT = Path({str(root / 'runs')!r})\n\n\n"
        "def test_positive():\n"
        "    runs = int(COUNT.read_text()) + 1 if COUNT.exists() else 1\n"
        "    COUNT.write_text(str(runs))\n"
        "    assert positive(1) and not positive(-1)\n"
        f"    assert runs != {fail_on_run}, 'the flaky failure'\n"
    )
    (root / "pyproject.toml").write_text("[tool.pytest.ini_options]\n")
    (root / "README.md").write_text("")
    return root / "runs"


def test_flaky_unmutated_tests_refuse_the_survey(tmp_path, monkeypatch):
    # the second unmutated run fails, so no mutant runs
    runs = toy_checkout(tmp_path, fail_on_run=2)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")  # the toy needs no plugin
    with pytest.raises(SystemExit, match="unmutated run 2"):
        mutants.survey("toy", ["test_toy.py"])
    assert runs.read_text() == "2"


def test_kill_counts_only_when_the_failing_node_fails_again(tmp_path, monkeypatch):
    # the mutant's run fails once, flakily, and its node passes alone, so
    # the mutant survives instead of counting as killed
    runs = toy_checkout(tmp_path, fail_on_run=3)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    assert mutants.survey("toy", ["test_toy.py"]) == (1, ["toy.py: positive: x >= 0"])
    assert runs.read_text() == "4"
