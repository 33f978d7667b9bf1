import copy
import dataclasses
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pibench
from pibench import BigFixed, PrecisionCtx, ReferencePi, fixedpoint

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


_CTX_REPR = "PrecisionCtx(working_dp=15, guard_dp=10)"


@pytest.mark.parametrize("make, text, field", [
    (lambda: BigFixed(314, 2), "BigFixed(3.14)", "scale"),
    (lambda: PrecisionCtx(15), _CTX_REPR, "guard_dp"),
    (lambda: ReferencePi(BigFixed(314, 2), PrecisionCtx(15)),
     f"ReferencePi(value=BigFixed(3.14), ctx={_CTX_REPR})", "ctx"),
], ids=["BigFixed", "PrecisionCtx", "ReferencePi"])
def test_frozen_values_copy_pickle_and_compare(make, text, field):
    # The value classes behave as frozen dataclasses: equal and hashed by
    # their fields, a field-by-field repr, copied and pickled whole, and
    # no field can be assigned or deleted.
    x = make()
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        y = clone(x)
        assert type(y) is type(x)
        assert y == make() and hash(y) == hash(make())
        assert repr(y) == text
    assert x.__eq__(object()) is NotImplemented
    before = getattr(x, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(x, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, field, before)
    assert getattr(x, field) == before


def test_start_up_loads_no_heavy_stdlib_module():
    # What the CLI imports before its first row: none of these modules is
    # needed, and together they were about half of the import time.
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "importlib.resources"}
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import pibench.cli, pibench.goldens\n"
        "pibench.goldens.load()\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "pibench.cli" in loaded
    assert not heavy & loaded, sorted(heavy & loaded)


def test_selftest_loads_no_fractions():
    # The selftest checks the continued fraction against the series by
    # cross-multiplying integers, so a full selftest loads neither
    # fractions nor decimal.
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from pibench.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['selftest'])\n"
        "print(code, out.getvalue().splitlines()[-1])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report, modules = proc.stdout.splitlines()
    assert report == "0 selftest: 111 expected-divergent cells, 0 failures"
    loaded = set(modules.split())
    assert "pibench.goldens" in loaded
    assert not {"fractions", "decimal"} & loaded, sorted({"fractions", "decimal"} & loaded)
