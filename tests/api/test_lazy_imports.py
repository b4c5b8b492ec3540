"""SciPy and networkx load only where they are used.

The IR-drop solve, the transient solver and the graph workload import
them when called.  An ideal run on each engine the benchmark drives
needs neither, so a fresh interpreter that imports the facade and runs
one must not have loaded them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from repro.api import ScenarioSpec, run

specs = [
    ScenarioSpec(engine="mvp_batched", workload="database",
                 size=128, items=2, batch=4, seed=1),
    ScenarioSpec(engine="rram_ap", workload="networking",
                 size=256, items=8, batch=4, seed=1),
    ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                 size=16, items=4, batch=2, seed=1),
]
print(json.dumps({
    "ok": [run(spec).ok for spec in specs],
    "loaded": sorted(name for name in ("scipy", "networkx")
                     if name in sys.modules),
}))
"""


def test_ideal_runs_load_neither_scipy_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["ok"] == [True, True, True]
    assert report["loaded"] == []
