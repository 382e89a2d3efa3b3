"""marlkit imports nothing outside the standard library.

numpy and other third-party packages may be installed next to marlkit; this
test keeps a fast path from quietly starting to depend on one. It runs in a
fresh interpreter, so modules pytest or other tests loaded do not count.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import marlkit
result = marlkit.run_match(marlkit.MatchSpec(
    env_name="bomber", env_params={"mode": "ffa", "step_limit": 60},
    env_interfaces=({"name": "bomber.board_map"}, {"name": "bomber.rotate"}),
    agents=(marlkit.AgentSpec("bomber.simple"),) * 4,
))
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"length": result.outcomes[0].length, "loaded": sorted(loaded)}))
"""


def test_marlkit_loads_only_stdlib_modules():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["length"] > 0
    assert "marlkit" in report["loaded"]
    foreign = [m for m in report["loaded"]
               if m != "marlkit" and m not in sys.stdlib_module_names]
    assert foreign == []
