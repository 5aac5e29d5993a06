"""Each demo's stdout against the output recorded in tests/demo_outputs/;
the demos are deterministic, so any difference is a change of behaviour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_outputs").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS]
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert run.returncode == 0, run.stderr
    want = (ROOT / "tests" / "demo_outputs" / (demo.stem + ".txt")).read_text()
    assert run.stdout == want
