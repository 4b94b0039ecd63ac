"""Every narrative script under demos/ runs to completion on the package as
it stands; the demos import from the package root and assert their own
results, so a rename or a wrong number fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinerkit

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SLOW = {"03_training_small.py", "04_active_search.py"}  # ~10 s of training each


def _param(path: Path):
    marks = [pytest.mark.slow] if path.name in SLOW else []
    return pytest.param(path, id=path.stem, marks=marks)


@pytest.mark.parametrize("demo", [_param(p) for p in sorted(DEMOS.glob("*.py"))])
def test_demo_runs(demo, tmp_path):
    src = str(Path(steinerkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
