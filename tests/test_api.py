import re
from pathlib import Path

import pibench
from pibench import fixedpoint

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_readme_library_list():
    # The bullet list of README's Library section names every export.
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = [ln for ln in section.splitlines() if ln.startswith("- ")]
    listed = {name for ln in bullets for name in re.findall(r"`(\w+)`", ln)}
    assert listed and set(pibench.__all__) == listed
    assert len(pibench.__all__) == len(set(pibench.__all__))
    for name in pibench.__all__:
        assert hasattr(pibench, name), name


def test_readme_names_only_existing_fx_functions():
    # A deleted fixedpoint function must not stay documented.
    names = set(re.findall(r"\bfx_\w+", README.read_text()))
    assert names
    missing = sorted(name for name in names if not hasattr(fixedpoint, name))
    assert not missing, missing
