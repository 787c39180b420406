"""The five demo scripts run to completion and write their CSVs where they run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SWEEPS = ([f"sweep_p0_mu{v}.csv" for v in ("0.3", "1", "8")]
          + [f"sweep_pK_mu{v}.csv" for v in ("4", "8", "12")]
          + [f"sweep_p_problematic_mu{v}.csv" for v in ("6", "8", "10")]
          + [f"sweep_mean_bikes_mu{v}.csv" for v in ("2", "5", "8")]
          + [f"sweep_pK_gamma{v}.csv" for v in ("0.05", "0.5", "3")])


@pytest.mark.parametrize("demo, csvs", [
    ("design_search.py", ["design_grid.csv"]),
    ("fixed_point_tour.py", []),
    ("relaxation_to_equilibrium.py", ["relaxation.csv"]),
    ("simulation_vs_meanfield.py", []),
    ("steady_state_sweeps.py", SWEEPS),
])
def test_demo_runs(demo, csvs, tmp_path):
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(csvs)
