import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUN_ALL = """
import runpy, sys
for path in sys.argv[1:]:
    runpy.run_path(path, run_name="__main__")
"""


def test_demos_run():
    # the demos call the public API end to end (far ball, competitor,
    # extinction); they run in one interpreter, which imports the package once
    demos = sorted(str(path) for path in (ROOT / "demos").glob("*.py"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", RUN_ALL, *demos], env=env,
                            capture_output=True, text=True, timeout=300)
    assert len(demos) == 6
    assert result.returncode == 0, result.stderr
    # demo 05's far regime: rho rounds to 1, rho - 1 in deficit space is < 0
    assert "rho = 1.0, and in deficit space rho - 1 = -" in result.stdout
