"""Smoke test: every numbered demo runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import emogen

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, EMOGEN_LOG="WARNING")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(emogen.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert not any(tmp_path.iterdir())
