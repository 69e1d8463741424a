import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jetinv.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_group_matrix_symbolic_2x2(capsys):
    code, out = run_cli(["group-matrix", "--p", "1", "--k", "2", "--symbolic", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["a1", "a2"], ["0", "a1^2"]]


def test_group_matrix_closed_form_verdict(capsys):
    code, out = run_cli(
        ["group-matrix", "--p", "2", "--k", "2", "--symbolic", "--closed-form", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["closed_form_matches_oracle"] is True


def test_group_matrix_identity_params(capsys):
    code, out = run_cli(["group-matrix", "--p", "1", "--k", "3", "--params", "1,0,0", "--json"], capsys)
    assert code == 0
    m = json.loads(out)["matrix"]
    assert m == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_group_matrix_bad_params(capsys):
    code, _ = run_cli(["group-matrix", "--p", "1", "--k", "2", "--params", "0,1"], capsys)
    assert code == 2
    code, _ = run_cli(["group-matrix", "--p", "1", "--k", "2", "--params", "x"], capsys)
    assert code == 2


def test_generators_cli(capsys):
    code, out = run_cli(
        ["generators", "--n", "2", "--k", "2", "--verify", "--trials", "10", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["verification"]["ok"]


def test_generators_resource_limit(capsys):
    code, _ = run_cli(["generators", "--n", "4", "--k", "4"], capsys)
    assert code == 3


def test_orbit_limit_and_closed_form(capsys):
    code, out = run_cli(
        ["orbit", "limit", "--k", "4", "--sigma", "2", "--kind", "lambda", "--json"],
        capsys,
    )
    assert code == 0
    w = json.loads(out)
    assert w["r"] == 4 and len(w["terms"]) == 4
    code, out = run_cli(
        ["orbit", "closed-form", "--k", "4", "--sigma", "2", "--kind", "lambda", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["matches_limit"] is True


def test_orbit_limit_numeric_eps(capsys):
    code, out = run_cli(
        ["orbit", "limit", "--k", "3", "--sigma", "2", "--kind", "mu", "--eps", "1/7", "--json"],
        capsys,
    )
    assert code == 0
    code2, out2 = run_cli(
        ["orbit", "limit", "--k", "3", "--sigma", "2", "--kind", "mu", "--json"], capsys
    )
    assert out == out2


@pytest.mark.parametrize("eps", ["abc", "", "1/0", "0", "-1/8", "1", "5"])
def test_orbit_limit_bad_eps_exits_2(capsys, eps):
    code = main(["orbit", "limit", "--k", "3", "--sigma", "2", "--kind", "lambda", f"--eps={eps}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--eps" in captured.err and len(captured.err.strip().splitlines()) == 1


def test_orbit_stabilizer(capsys):
    code, out = run_cli(["orbit", "stabilizer", "--k", "2", "--M", "1", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1 and payload["expected"] == 1


def test_orbit_codim_report(capsys):
    code, out = run_cli(["orbit", "codim-report", "--k", "4", "--M", "1", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_bounds_ok"] is True


def test_orbit_probe_gate(capsys):
    code, _ = run_cli(["orbit", "probe-p", "--p", "2", "--k", "3"], capsys)
    assert code == 3
    code, out = run_cli(["orbit", "probe-p", "--p", "2", "--k", "2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["match"] is True


def test_orbit_bad_sigma(capsys):
    code, _ = run_cli(["orbit", "limit", "--k", "3", "--sigma", "9", "--kind", "lambda"], capsys)
    assert code == 2


def test_test_curve_cli(capsys):
    code, out = run_cli(
        ["test-curve", "--k", "3", "--n", "3", "--N", "1", "--seed", "5", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert payload["solution_space_equals_perp"] is True


def test_determinism_same_seed(capsys):
    args = ["test-curve", "--k", "2", "--n", "2", "--seed", "9", "--json"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_phi_cli(capsys):
    code, out = run_cli(["phi", "--p", "2", "--k", "2", "--n", "2", "--symbolic", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "[1,1]" in payload["columns"]


def test_fixtures_roundtrip(tmp_path, capsys):
    code, _ = run_cli(["fixtures", "regenerate", "--dir", str(tmp_path)], capsys)
    assert code == 0
    code, _ = run_cli(["fixtures", "check", "--dir", str(tmp_path)], capsys)
    assert code == 0
    bad = tmp_path / "example_2_1.json"
    payload = json.loads(bad.read_text())
    payload["matrix"][0][0] = "tampered"
    bad.write_text(json.dumps(payload, indent=2, sort_keys=True))
    code, _ = run_cli(["fixtures", "check", "--dir", str(tmp_path)], capsys)
    assert code == 1


def test_stored_fixtures_match_current():
    fixture_dir = ROOT / "tests" / "fixtures"
    code = main(["fixtures", "check", "--dir", str(fixture_dir)])
    assert code == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(
        ["orbit", "stabilizer", "--k", "2", "--out", str(target), "--json"], capsys
    )
    assert code == 0
    assert json.loads(target.read_text())["dimension"] == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jetinv.cli", "orbit", "stabilizer", "--k", "2", "--json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 1
