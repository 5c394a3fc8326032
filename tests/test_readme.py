"""The README's "Library use" example runs against the public API, and its
"Configuration file" block parses to the default noise model."""

import re
from pathlib import Path

from ksqrng.config import parse_config
from ksqrng.readout import NoiseParams

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


def test_configuration_file_block_parses_to_defaults():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Configuration file", 1)[1]
    match = re.search(r"```\n(.*?)```", section, re.DOTALL)
    assert match, "README 'Configuration file' section has no code block"
    config = parse_config(match.group(1))
    assert config.noise == NoiseParams()
    assert config.ideal is False
