"""The README's library section matches the package namespace and runs."""

import re
from pathlib import Path

import varalloc
from varalloc.harness import _CONFIG_KEYS, BOUND_NAMES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python code block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_readme_names_every_export():
    text = README.read_text(encoding="utf-8")
    assert [name for name in varalloc.__all__ if f"`{name}`" not in text] == []


def test_readme_lists_every_bound():
    text = README.read_text(encoding="utf-8")
    assert [name for name in BOUND_NAMES if f"`{name}`" not in text] == []


def test_readme_lists_the_config_keys():
    # one bullet per section: `[section]`: then its keys, comma-separated
    text = README.read_text(encoding="utf-8")
    bullets = re.findall(r"^- `\[(\w+)\]`: (`\w+`(?:,\s+`\w+`)*)", text, re.M)
    listed = {section: set(re.findall(r"`(\w+)`", keys)) for section, keys in bullets}
    assert listed == {section: set(keys) for section, keys in _CONFIG_KEYS.items()}
