"""The example scripts run end to end on small inputs."""

import csv
import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    monkeypatch.setattr(sys, "argv", [name, *argv])
    main()


def test_factor_gallery(monkeypatch, capsys, tmp_path):
    out = tmp_path / "gallery.json"
    run_script(monkeypatch, "factor_gallery", "--n", "32", "--grid", "256",
               "--json", str(out))
    reports = json.loads(out.read_text())
    assert f"wrote {len(reports)} reports" in capsys.readouterr().out
    assert all(r["reconstruction_residual"] < 1e-10 for r in reports.values())


def test_factor_gallery_truncation_too_small(monkeypatch, capsys):
    # the catalog's bg(3.0) state needs more than 24 levels
    with pytest.raises(SystemExit) as stop:
        run_script(monkeypatch, "factor_gallery", "--n", "24")
    message = stop.value.code
    assert message.startswith("factor_gallery: truncation 24 too small")
    assert "\n" not in message


def test_interference_sweep(monkeypatch, tmp_path):
    out = tmp_path / "sweep.csv"
    run_script(monkeypatch, "interference_sweep", "--n", "32", "--steps", "3",
               "--csv", str(out))
    rows = list(csv.DictReader(out.read_text().splitlines()))
    # |cot(tau/2)| falls below |z0| = 0.8 only at the last step
    assert [r["regime"] for r in rows] == ["outer", "outer", "inner-factor"]


def test_wigner_scan(monkeypatch, capsys, tmp_path):
    out = tmp_path / "lattice.csv"
    run_script(monkeypatch, "wigner_scan", "--json", '{"kind":"su11_cs","z":[0.5,0]}',
               "--n", "16", "--n-max", "8", "--csv", str(out))
    assert "9 levels x 64 angles" in capsys.readouterr().out
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 9 * 64
