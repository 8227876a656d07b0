import doctest
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# What a demo writes next to itself, under out/.
WRITES = {
    "04_svg_gallery.py": ["after_injection.svg", "before_injection.svg", "dyck_markers.svg", "motzkin_steps.svg"],
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from a copy, so a demo's output lands in tmp_path and not in the checkout
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    written = sorted(p.name for p in (tmp_path / "out").glob("*"))
    assert written == WRITES.get(demo.name, [])


def test_readme_examples_run():
    # the library tour's >>> examples pin the public reprs
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False,
                              optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted >= 5
    assert result.failed == 0
