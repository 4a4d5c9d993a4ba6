import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _readme_quick_start():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_what_its_comments_claim(capsys):
    scope = {}
    exec(compile(_readme_quick_start(), "README.md", "exec"), scope)
    assert capsys.readouterr().out
    tol = dict(rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(scope["path"].xdot_at(0.01), [1.5, 0.0], **tol)
    lg, cert = scope["lg"], scope["cert"]
    np.testing.assert_allclose([lg.jump_coeff, lg.kink_coeff], [-0.5, -0.625],
                               **tol)
    np.testing.assert_allclose(lg.state_at(1.0).v, -1.125, **tol)
    np.testing.assert_allclose([cert.alpha, cert.eps0], [2 / 3, 1 / 3], **tol)
    assert len(scope["paths"]) == 3
    for path in scope["paths"]:
        np.testing.assert_allclose(path.xdot_at(1.0), [1.5, 0.0], **tol)
