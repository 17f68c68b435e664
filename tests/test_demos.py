"""Every demo script runs to completion and prints, byte for byte, what it
printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  A change that alters what a demo prints
# must update its digest in the same change.
STDOUT_SHA256 = {
    "01_fill_model.py": "0e8e9893775bb7c1c0cc19d2d0bf25b48b0f8531d50ed01eb9645e9aab3a4ad2",
    "02_codec_walkthrough.py": "ca6cf5ff52ba2e61e035175798c71b216a4cfa478da32ee245ec17b97fd42818",
    "03_entropy_tables.py": "7d531a33387bdd6fbffab1caae6bc1ceecc80aedf04f54170c770f7c4b521534",
    "04_simulation.py": "4a33453b3e19dc0835d5019aab197f37a6c08dc5170c10481ff7b2ade7f47dba",
    "05_generic_coders.py": "3fccbe3cb03672205cc140f4187f305f53a5c2477b0cd2234f428f26333fa6dc",
}


def test_every_demo_has_a_digest():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
