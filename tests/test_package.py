"""What ``import slocceq`` loads: the package and its seven pipeline modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import slocceq

SRC = Path(slocceq.__file__).resolve().parents[1]

PROBE = """
import json, sys
import slocceq
slocceq.equivalence.check_fourpartite_equiv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "slocceq")))
"""


def test_import_loads_exactly_the_pipeline_modules():
    # A fresh interpreter, so that no other test's imports are counted.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    modules = ("catalog", "decomposition", "equivalence", "invariants", "solver", "states", "tensorops")
    assert json.loads(out) == ["slocceq"] + [f"slocceq.{name}" for name in modules]
