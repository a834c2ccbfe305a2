"""Smoke tests: the example scripts run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sections(text: str) -> dict[str, str]:
    """Split a script's stdout into its ``== title ==`` sections."""
    parts = re.split(r"^== (.+?) ==$", text, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def test_fleet_serving_gateway_matches_batch():
    """The live-session section reports, patient by patient, the beats
    and flags the batch section classified."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "fleet_serving.py"),
         "--gateway", "--patients", "3", "--minutes", "0.5"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    sections = _sections(proc.stdout)
    pattern = re.compile(r"^  (patient-\d+): (\d+ beats, \d+ flagged abnormal)$", re.MULTILINE)
    batch = pattern.findall(sections["Streaming classification"])
    live = pattern.findall(sections[next(t for t in sections if t.startswith("Session gateway"))])
    assert [name for name, _ in batch] == ["patient-0", "patient-1", "patient-2"]
    assert live == batch
