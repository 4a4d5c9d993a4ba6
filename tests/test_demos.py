import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each demo and the files it says it writes under output/
DEMOS = {
    "01_geodesics_through_an_impulse.py": {"flat_linear_path.csv",
                                           "hyperbolic_bump_path.svg"},
    "02_existence_certificates.py": set(),
    "03_sharp_limit_convergence.py": {"hyperbolic_sweep.csv",
                                      "hyperbolic_sweep.svg"},
    "04_delta_net_zoo.py": set(),
    "05_growth_classification.py": set(),
}


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")),
    ids=lambda name: name[:2])
def test_demo_runs(tmp_path, demo):
    # a copy in tmp_path writes its output/ there, not into the repository
    script = tmp_path / demo
    script.write_bytes((ROOT / "demos" / demo).read_bytes())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = tmp_path / "output"
    found = {p.name for p in out.iterdir()} if out.exists() else set()
    assert found == DEMOS[demo]  # a new demo needs an entry in DEMOS
    assert all((out / name).stat().st_size > 0 for name in found)
