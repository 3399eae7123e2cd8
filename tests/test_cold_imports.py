"""Cold-path guard: the pipeline runs without scipy or networkx.

Both packages stay installed as test oracles, so nothing but this test
notices when one creeps back onto an import path — and scipy alone
costs more to import than an inert campaign takes to run.  A fresh
interpreter imports the user-facing packages, builds the default World
and reports what got loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import repro.experiments, repro.webservices, repro.diagnosis
from repro.experiments import World, WorldConfig
World(WorldConfig())
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "networkx")
)))
"""


def test_pipeline_imports_neither_scipy_nor_networkx():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
