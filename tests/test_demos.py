"""The demos' standard output, pinned byte for byte.

Each digest is the sha256 of one demo's stdout. A change to how
languages, candidates or reports print shows up here even when every
transcript digest stays the same.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_detection_games.py": "08f6386604b29b40aeedc79d5841dfc264b6aad26dadf37a8c94e39607b3a64f",
    "02_identification_and_failure.py": "3ab14461d04189d255151d9bc98449ccd4a88c6e82dc6cb28c719408f9b9ca5e",
    "03_roundtrip_reduction.py": "eda4c8172a516660136918f0db47964bd811c1f8c79869cb8cc05ec044eefe01",
    "04_telltale_checker.py": "6ac095ca7628a1d1c47d871c1a7c8be2c334066dac8445b5345559d46f670005",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_STDOUT_SHA256[name], out.decode()
