"""Smoke runs of the scripts under scripts/ on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import stfe2d

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    src = Path(stfe2d.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_run_demo(tmp_path):
    proc = run_script("run_demo.py", "--n", 8, "--steps", 3, "--out", tmp_path / "demo",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "demo" / "demo_diag.csv").read_text().splitlines()
    assert lines[0].startswith("t,mass,") and len(lines) >= 2
    assert (tmp_path / "demo" / "demo_final.bin").exists()


def test_ensemble_study(tmp_path):
    out = tmp_path / "ens" / "summary.csv"
    proc = run_script("ensemble_study.py", "--n", 8, "--replicas", 3, "--steps", 2,
                      "--workers", 1, "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, row = out.read_text().splitlines()
    assert header.startswith("n_replicas,n_aborted,")
    assert row.startswith("3,0,")


def test_convergence_study(tmp_path):
    proc = run_script("convergence_study.py", "--study", "laplacian_eig", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "== laplacian_eig ==" in proc.stdout
    assert "eig_err" in proc.stdout and "slope[eig_err] = 1.99" in proc.stdout
    assert list(tmp_path.iterdir()) == []  # it prints its tables and writes no file
