import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetinv import cli
from jetinv.cli import BATCH, _shown, canonical_json, main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_group_matrix_symbolic_2x2(capsys):
    code, out = run_cli(["group-matrix", "--p", "1", "--k", "2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["a1", "a2"], ["0", "a1^2"]]


def test_group_matrix_closed_form_verdict(capsys):
    code, out = run_cli(
        ["group-matrix", "--p", "2", "--k", "2", "--closed-form", "--json"],
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


def test_generators_follows_the_minor_count_ceiling(capsys, monkeypatch):
    import jetinv.invariants

    monkeypatch.setattr(jetinv.invariants, "MINOR_COUNT_CEILING", 3)
    code, _ = run_cli(["generators", "--n", "2", "--k", "2"], capsys)
    assert code == 3
    code, _ = run_cli(["generators", "--n", "2", "--k", "2", "--force"], capsys)
    assert code == 0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["generators", "--n", "0", "--k", "2"],
        ["test-curve", "--k", "0", "--n", "2"],
        ["orbit", "probe-p", "--p", "0", "--k", "2"],
        ["generators", "--n", "2", "--k", "2", "--verify", "--trials", "-5"],
        ["group-matrix", "--k", "0"],
        ["group-matrix", "--k", "2", "--params", "1"],
        ["group-matrix", "--p", "1", "--k", "2", "--params", "1,2", "--closed-form"],
        ["phi", "--k", "0", "--n", "2"],
        ["test-curve", "--k", "2", "--n", "2", "--N", "0"],
        ["test-curve", "--k", "2", "--n", "2", "--N", "-1"],
        ["phi", "--k", "2", "--n", "2", "--coeff-bound", "0"],
        ["test-curve", "--k", "2", "--n", "2", "--coeff-bound", "0"],
        ["generators", "--n", "2", "--k", "2", "--p", "0"],
        ["orbit", "stabilizer", "--k", "3", "--out", "/nonexistent/x.json"],
        ["orbit", "stabilizer", "--k", "3", "--M", "0"],
        ["orbit", "codim-report", "--k", "40", "--M", "0"],  # bad input before the size gate
        ["orbit", "probe-p", "--p", "1", "--k", "2", "--M", "0"],
        ["fixtures", "check", "--dir", "/nonexistent"],
        ["fixtures", "regenerate", "--dir", str(ROOT / "README.md")],
        ["fixtures", "regenerate", "--dir", str(ROOT / "README.md" / "fixtures")],
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    for flag in ("--N", "--coeff-bound"):
        if flag in argv:
            assert flag in captured.err
    if "--params" in argv and "--closed-form" in argv:
        assert "--params" in captured.err and "--closed-form" in captured.err


# Each command takes only the flags it reads: any other flag is an argparse error.
_VALUED = {"--out": "/nonexistent/x.json", "--seed": "3", "--coeff-bound": "5"}
_ORBIT_ARGV = {
    "limit": ["--k", "3", "--sigma", "2", "--kind", "lambda"],
    "closed-form": ["--k", "3", "--sigma", "2", "--kind", "lambda"],
    "stabilizer": ["--k", "3"],
    "codim-report": ["--k", "3"],
    "probe-p": ["--p", "1", "--k", "3"],
}
REMOVED_FLAGS = (
    [(["fixtures", cmd, "--dir", "tests/fixtures"], flag)
     for cmd in ("regenerate", "check") for flag in ("--json", "--out", "--seed", "--coeff-bound", "--force")]
    + [(["orbit", cmd] + argv, flag) for cmd, argv in _ORBIT_ARGV.items()
       for flag in ("--seed", "--coeff-bound")]
    + [(["group-matrix", "--k", "2"], flag) for flag in ("--symbolic", "--seed", "--coeff-bound")]
    + [(["generators", "--n", "2", "--k", "2", "--verify", "--trials", "1"], "--coeff-bound")]
)


@pytest.mark.parametrize("argv, flag", REMOVED_FLAGS,
                         ids=[" ".join([w for w in argv[:2] if not w.startswith("-")] + [flag])
                              for argv, flag in REMOVED_FLAGS])
def test_removed_flags_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag] + ([_VALUED[flag]] if flag in _VALUED else []))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["group-matrix", "--p", "3", "--k", "40"],
        ["phi", "--p", "1", "--k", "30", "--n", "30"],
        ["test-curve", "--k", "20", "--n", "20"],
    ],
)
def test_output_size_gate_exits_3_fast(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and elapsed < 1.0
    assert captured.out == "" and "exceeds ceiling" in captured.err


def test_output_size_gate_yields_to_force(capsys, monkeypatch):
    import jetinv.cli

    monkeypatch.setattr(jetinv.cli, "OUTPUT_CELL_CEILING", 3)
    for argv in (["group-matrix", "--k", "2"], ["phi", "--k", "2", "--n", "2"],
                 ["test-curve", "--k", "2", "--n", "2"]):
        code, _ = run_cli(argv, capsys)
        assert code == 3
        code, _ = run_cli(argv + ["--force"], capsys)
        assert code == 0


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
    code, _ = run_cli(["orbit", "probe-p", "--p", "2", "--k", "7"], capsys)
    assert code == 3
    for k in ("2", "3"):
        code, out = run_cli(["orbit", "probe-p", "--p", "2", "--k", k, "--json"], capsys)
        assert code == 0
        assert json.loads(out)["match"] is True


@pytest.mark.parametrize("cmd", ["stabilizer", "codim-report"])
def test_orbit_span_cost_gate_exits_3_fast(capsys, cmd):
    start = time.perf_counter()
    code = main(["orbit", cmd, "--k", "40"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and elapsed < 1.0
    assert captured.out == "" and "exceeds ceiling" in captured.err


@pytest.mark.parametrize("n,k", [(5, 5), (40, 40)])
def test_generators_gate_exits_3_before_enumerating(capsys, n, k):
    start = time.perf_counter()
    code = main(["generators", "--n", str(n), "--k", str(k)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and elapsed < 1.0
    assert captured.out == "" and "exceed the ceiling" in captured.err


def test_generators_with_more_columns_than_rows_prints_none_fast(capsys):
    # 125,969 columns against 90 rows: no maximal minor, decided before any basis
    start = time.perf_counter()
    code, out = run_cli(["generators", "--n", "2", "--k", "12", "--p", "8", "--json"], capsys)
    assert code == 0 and time.perf_counter() - start < 1.0
    assert json.loads(out)["count"] == 0


def test_generators_reject_zero_trials_before_expanding(capsys, monkeypatch):
    """--trials < 1 is bad input, refused before any candidate minor is
    expanded: a generator_set that runs would exit 4."""
    def expand(*args, **kwargs):
        raise AssertionError("generator_set ran")
    monkeypatch.setattr("jetinv.cli.generator_set", expand)
    code = main(["generators", "--n", "3", "--k", "5", "--force", "--verify", "--trials", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "--trials" in captured.err


def test_verifying_an_empty_generator_set_exits_2(capsys):
    # a check that ran no trial never reports ok
    code = main(["generators", "--n", "2", "--k", "12", "--p", "8", "--verify", "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "generator" in captured.err


def test_orbit_limit_k8_lambda_runs_without_force(capsys):
    # the wedge has 1,152 terms: the exact term count admits it
    code, out = run_cli(["orbit", "limit", "--k", "8", "--sigma", "3", "--kind", "lambda", "--json"],
                        capsys)
    assert code == 0 and len(json.loads(out)["terms"]) == 1152


@pytest.mark.parametrize("argv", [
    ["orbit", "closed-form", "--k", "8", "--sigma", "8", "--kind", "lambda"],  # 34,650 terms
    ["orbit", "limit", "--k", "10", "--sigma", "5", "--kind", "mu"],  # 389,025,000 terms
    ["orbit", "limit", "--k", "20", "--sigma", "2", "--kind", "lambda"],
    ["orbit", "closed-form", "--k", "20", "--sigma", "2", "--kind", "lambda"],
    ["orbit", "limit", "--k", "60", "--sigma", "7", "--kind", "mu", "--eps", "1/8"],
])
def test_orbit_wedge_gate_exits_3_fast(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and elapsed < 1.0
    assert captured.out == "" and "exceeds ceiling" in captured.err


def test_internal_error_exits_4(capsys, monkeypatch):
    import jetinv.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(jetinv.cli, "cmd_group_matrix", broken)
    code = main(["group-matrix", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and captured.err == "internal error: RuntimeError: boom\n"


def test_orbit_k8_runs_without_force(capsys):
    code, out = run_cli(["orbit", "stabilizer", "--k", "8", "--json"], capsys)
    assert code == 0 and json.loads(out)["dimension"] == 7
    code, out = run_cli(["orbit", "codim-report", "--k", "8", "--json"], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["base_stabilizer_dim"] == 7 and rep["all_bounds_ok"]


def test_orbit_bad_sigma(capsys):
    code, _ = run_cli(["orbit", "limit", "--k", "3", "--sigma", "9", "--kind", "lambda"], capsys)
    assert code == 2


@pytest.mark.parametrize("k", ["0", "-2"])
def test_orbit_stabilizer_refuses_k_below_1(capsys, k):
    """Bad input, with a message that names k and no n the user never passed."""
    code = main(["orbit", "stabilizer", "--k", k])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "need p >= 1 and k >= 1\n"


def test_test_curve_cli(capsys):
    code, out = run_cli(
        ["test-curve", "--k", "3", "--n", "3", "--N", "1", "--seed", "5", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert payload["solution_space_equals_perp"] is True


def test_test_curve_builds_its_system_once(capsys, monkeypatch):
    import jetinv.cli
    import jetinv.invariants

    built = []
    original = jetinv.invariants.test_curve_system

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(jetinv.invariants, "test_curve_system", counting)
    monkeypatch.setattr(jetinv.cli, "test_curve_system", counting)
    code, out = run_cli(["test-curve", "--k", "3", "--n", "3", "--N", "2", "--seed", "7", "--json"],
                        capsys)
    assert code == 0 and json.loads(out)["solution_space_equals_perp"] is True
    assert len(built) == 1


def test_test_curve_ranks_its_system_once(capsys, monkeypatch):
    import jetinv.cli
    import jetinv.embedding
    import jetinv.exact
    import jetinv.invariants

    systems, ranked = [], []
    build, rank = jetinv.invariants.test_curve_system, jetinv.exact.rank

    def building(*args, **kwargs):
        systems.append(build(*args, **kwargs))
        return systems[-1]

    def ranking(rows):
        ranked.append([list(row) for row in rows])
        return rank(rows)

    monkeypatch.setattr(jetinv.cli, "test_curve_system", building)
    for module in (jetinv.exact, jetinv.embedding, jetinv.invariants):
        monkeypatch.setattr(module, "rank", ranking, raising=False)
    code, out = run_cli(["test-curve", "--k", "3", "--n", "3", "--N", "2", "--seed", "7", "--json"],
                        capsys)
    assert code == 0 and json.loads(out)["solution_space_equals_perp"] is True
    (sysm,) = systems
    # the perp check compares entries and ranks nothing; the reported rank is
    # the only matrix of the system's width that is ranked
    assert sum(len(rows[0]) == len(sysm.col_index) for rows in ranked) == 1


def test_test_curve_calls_no_phi(capsys, monkeypatch):
    """The op checks the integer system against phi_integral alone: phi is
    refused in every jetinv module that binds it."""

    def refused(*args, **kwargs):
        raise AssertionError("phi called")

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "jetinv" and hasattr(m, "phi")]
    assert sys.modules["jetinv.embedding"] in bound
    for module in bound:
        monkeypatch.setattr(module, "phi", refused)
    code, out = run_cli(["test-curve", "--k", "4", "--n", "4", "--N", "2", "--json"], capsys)
    assert code == 0 and json.loads(out)["solution_space_equals_perp"] is True


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
    bad.unlink()  # a directory that lacks a fixture is a refuted check, not bad input
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


def _run_module(args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "jetinv.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
        timeout=timeout,
    )


def test_console_entry_point():
    proc = _run_module(["orbit", "stabilizer", "--k", "2", "--json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 1


@pytest.mark.parametrize("cmd", ["phi", "test-curve"])
def test_regular_jet_with_n_below_p_exits_2(cmd):
    # a 2 x 3 linear block never reaches rank 3, so no random draw can succeed;
    # run in a subprocess so that a retry loop fails the test instead of hanging it
    proc = _run_module([cmd, "--p", "3", "--k", "2", "--n", "2"], timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1 and "n >= p" in proc.stderr


# SHA-256 of the --json stdout of fixed invocations: identical invocations
# print byte-identical JSON, and a change to any of these outputs must be
# deliberate (update the digest in the same change).
GOLDEN_STDOUT = {
    "orbit codim-report --k 4": "d6f045f89bb761e35b2aae0c4b3f8ce22fe664b65de62823b780fb4e486cae12",
    "orbit stabilizer --k 4 --M 1": "d2b6d251c7cad8a3d02c73f8df08475b1487295c279d0868ac8f7ebf0be161da",
    "orbit stabilizer --k 4 --M 2": "b59dd4d7be98108020a922df0e9e8abc4f940729001e347cb49e4e380f8298e9",
    "orbit closed-form --k 5 --sigma 2 --kind lambda": "b139cfd33511bba356431743b0aee429deb9b1e47c7d2b0d2c78caf8a73f5350",
    "phi --p 2 --k 2 --n 2 --symbolic": "40e7a9746baada24345d0ea7fdbd0c2fbe99950afe1bccd030dbf7c4a6aab42a",
    "phi --p 2 --k 3 --n 3 --seed 3": "22aceb90e4654ee18384ddf418fda84620a15ea39943a1603262bcb58c6038fb",
    "group-matrix --p 2 --k 3": "b8f5155c49e0e10636fe26dc06b93f08de09fc223cb66c9ab54ed6e4fd6d2e02",
    "test-curve --k 3 --n 3 --N 2 --seed 7": "7150103ce5ee0ca1013b6fe569741daef83a6ea72b13d1833ea08966b1cfe629",
    "generators --n 2 --k 2 --verify --trials 5 --seed 1": "af8c6b6286f96d4d6b0f935e70d161fe9eaa0a1609414b784bc7e48bd6397177",
    "orbit probe-p --p 2 --k 2": "ab41a1b1f4eb067da80f133aab2063720a7abf1b7d40730a95dc14df17e25094",
    "orbit probe-p --p 1 --k 4 --M 2": "c78283f4398a51f0721ffde26128252abed317600b3dbf1411a7aeca98c6dfb8",
    "orbit limit --k 6 --sigma 4 --kind mu": "d9323ff8135ae49c156a09a216777d39bb65db80a730515e41e1254fc8926a0d",
    "orbit limit --k 6 --sigma 3 --kind lambda --eps 1/8": "ff39591b310b2e387536a5946e4e90bc0659f3400404bbc7ece096bf1ab7d70a",
    "orbit closed-form --k 6 --sigma 5 --kind mu": "41fad4679aeac32d72c21b3cca42850f5302db91c3ee3364c06f80a462054835",
    "generators --p 2 --n 3 --k 2": "75f65be8701880cf06b8710dd82192f4d0d5987aa788cf240e76138734dd0530",
    "generators --p 2 --n 2 --k 3": "564758ec102906ad7a3997298e506c5239e1917a67c70e2ab003ef3767ff5cba",
    "group-matrix --p 1 --k 4 --closed-form": "38e0ad38c7b0377433d56dd9e557b9a633c4e842440388c2847e0531216d9936",
    "generators --n 3 --k 3 --verify --trials 10 --seed 5": "4ddd96b25373990fc941fd457c605957d4d16ea5c3436f6e65aa317bd224f117",
    "generators --n 2 --k 4 --verify --trials 10 --seed 5": "3f9ff7a3d0c3a8770f5e07ab888bc3b118e234e7341fb907ad1f2512ccdf6d4a",
    "test-curve --k 5 --n 5 --seed 11": "7c6d3851d66e53248d2460c6ab53478029aa9a9c82cffec200a47f75a0fe1168",
    "test-curve --p 2 --k 3 --n 4 --seed 11": "65734596586f76583d688c4871e3d7c6193abb9124651f0dd1c5b5646542cd15",
    "test-curve --k 4 --n 4 --N 2 --seed 11": "d5016cc20c4df1a9c749303aa52ec0098a3172d2116ee4341ccafb9e24db5905",
    "orbit codim-report --k 5": "2e9e3ff8d604dd45a09c17138e095e7f524484c49ba1f62b944823c8e6a96c22",
    "generators --n 3 --k 4 --verify --trials 2 --seed 5": "a881de2b2eb38c2118347b77167b033afddc683f90cf2ae1f4c779419ed46871",
    "test-curve --p 1 --k 3 --n 2 --symbolic": "a585897fc2c4c416cd52a91a52292571403134b995ec4523ec2693507de5d59f",
    "test-curve --p 2 --k 2 --n 2 --symbolic": "a2ee1569374d86fa9391b2da00b205c6988d3805695dfbce9c60ef4291413fed",
    "generators --n 4 --k 3 --verify --trials 3 --seed 5": "622f91d095b6fc39f5f5ac9357630423045ca922a6247a5580e1db6a4b130526",
    "generators --p 2 --n 4 --k 2": "691e08a0781db70893a03cfa8fb9b754433ed58161346bab8e955c2119759f81",
    "generators --n 2 --k 5": "afc9b6e93dc7896e10d3748f797d613970c54d797b77c388555efb9921342c44",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT))
def test_golden_stdout(capsys, argv):
    code = main(argv.split() + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_consecutive_calls_share_no_options(capsys, tmp_path):
    """main parses every call with one parser: no option of a call reaches
    the next one."""
    mu = "orbit limit --k 6 --sigma 4 --kind mu"
    eps = "orbit limit --k 6 --sigma 3 --kind lambda --eps 1/8"
    out_file = tmp_path / "out.json"
    code = main(mu.split() + ["--eps", "1/8", "--force", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0 and out_file.exists()
    out_file.unlink()
    for argv in (mu, eps, mu):
        code = main(argv.split() + ["--json"])
        out = capsys.readouterr().out
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]
    assert not out_file.exists()
    for M in ("2", "1", "2"):
        argv = f"orbit stabilizer --k 4 --M {M}"
        code = main(argv.split() + ["--json"])
        out = capsys.readouterr().out
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


# One small run of each subcommand and of each failing exit path, with its
# exit code.  main pauses the cyclic collector, so anything cyclic a command
# leaves behind stays in memory until some later collection.
NO_CYCLES = [
    ("group-matrix --p 1 --k 3 --closed-form --json", 0),
    ("group-matrix --p 1 --k 3 --params 1,2,3 --json", 0),
    ("phi --p 2 --k 2 --n 2 --symbolic --json", 0),
    ("generators --n 2 --k 3 --verify --trials 2 --seed 1 --json", 0),
    ("generators --p 2 --n 3 --k 2 --json", 0),
    ("test-curve --k 3 --n 3 --seed 1 --json", 0),
    ("test-curve --k 3 --n 2 --symbolic --json", 0),
    ("orbit limit --k 4 --sigma 2 --kind lambda --eps 1/8 --json", 0),
    ("orbit closed-form --k 5 --sigma 3 --kind mu --json", 0),
    ("orbit stabilizer --k 4 --M 2 --json", 0),
    ("orbit codim-report --k 5 --json", 0),
    ("orbit probe-p --p 2 --k 4 --json", 0),
    ("fixtures check --dir tests/fixtures", 0),
    ("group-matrix --p 1 --k 2 --params x", 2),
    ("generators --n 40 --k 40", 3),
]


@pytest.mark.parametrize("argv, expected", NO_CYCLES, ids=[a for a, _ in NO_CYCLES])
def test_commands_leave_no_cyclic_garbage(capsys, monkeypatch, argv, expected):
    """Refcounting alone frees all that a command allocates: the cyclic
    collector finds nothing afterwards.  The collector stays off during the
    call, so an automatic collection cannot hide a cycle."""
    monkeypatch.chdir(ROOT)
    main(["group-matrix", "--k", "1"])  # the first call builds the parser, whose help formatters are cyclic
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        code = main(argv.split())
    finally:
        gc.enable()
    capsys.readouterr()
    assert code == expected
    assert gc.collect() == 0


@pytest.mark.parametrize("collecting", [True, False])
def test_main_pauses_the_collector_and_restores_it(capsys, monkeypatch, collecting):
    seen = []

    def record(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "cmd_group_matrix", record)
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["group-matrix", "--k", "1"]) == 0
        assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "cmd_group_matrix", lambda args: 1 / 0)
        assert main(["group-matrix", "--k", "1"]) == 4
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert seen == [False]
    capsys.readouterr()


_TRICKY_TEXT = st.text(alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\n\té€\u2028\U0001f600'))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(max_value=-(10**30)), st.floats(),
    st.text(), _TRICKY_TEXT,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.lists(st.integers()) | st.lists(st.one_of(st.integers(), st.booleans()))
    | st.lists(_TRICKY_TEXT),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.one_of(st.text(), _TRICKY_TEXT), inner),
    max_leaves=25,
)
_property = settings(derandomize=True, max_examples=200, deadline=None, database=None)


_ONE = (1, 2)  # one tuple object, met again at other depths and beside look-alikes
_STR = ("x",)
_LIST = [1, 2]  # one list object, likewise


def _records(count):
    """count wedge-term records sharing a few factor tuples."""
    return [{"factors": [_ONE, (i % 3, 2)], "coeff": str(i - 5)} for i in range(count)]


@st.composite
def _shared_tuple_values(draw):
    """JSON values whose leaves are drawn from one pool of tuple objects, so
    the same object recurs at several depths; the pool also holds equal
    tuples that are other objects, equal lists, look-alikes with bools and
    floats, and empty arrays.  Arrays that lead with an int go on with a
    bool, a float, a str or a pool tuple, and arrays that lead with a str go
    on with an int.  Dicts reuse one key set in every insertion order, one
    value recurs twice at one depth and then once a depth higher, and one is
    both a dict value and an item of a mixed array."""
    pool = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2))
                         | st.lists(st.sampled_from("ab"), max_size=2).map(tuple)
                         | st.just(()), min_size=1, max_size=3))
    pool += [tuple(list(t)) for t in pool] + [list(t) for t in pool] + [(True, 2), (1.0, 2), (), []]
    leaf = st.sampled_from(pool)
    led = (st.tuples(st.integers(-2, 2), st.sampled_from([True, 1.0, "a"]) | leaf)
           | st.tuples(st.sampled_from("ab"), st.integers(-2, 2)))
    return draw(st.recursive(
        leaf | st.integers(-2, 2) | led | led.map(list),
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.sampled_from("abc"), inner, max_size=3)
        | st.permutations("abc").flatmap(
            lambda keys: st.lists(inner, min_size=3, max_size=3).map(lambda v: dict(zip(keys, v))))
        | inner.map(lambda v: [[v, v], v])
        | inner.map(lambda v: {"a": v, "b": [v, 1]}),
        max_leaves=20,
    ))


@_property
@given(_JSON_VALUES | _shared_tuple_values())
# equal int arrays at several depths; ints beside the bools, floats and strs
# equal to them as keys; equal tuple and list values; an unhashable array
@example({"a": [1, 2], "b": {"c": [1, 2], "d": [[1, 2], [[1, 2]]]}})
@example([[1], [True], [1.0], ["1"], [1], [True], [1.0], ["1"]])
@example([(1, 2), [1, 2], ("x",), ["x"], (), []])
@example([[1, [2]], [1, [2]]])
# one tuple object at several depths and inside mixed arrays; beside equal
# lists and equal tuples that are other objects; beside (True, 2) and
# (1.0, 2), which equal it as keys
@example([_ONE, [_ONE, (_ONE, [_ONE])], {"a": _ONE, "b": [_ONE, 1, _STR]}, [[_ONE]]])
@example([_ONE, [1, 2], (_ONE, [1, 2]), tuple([1, 2]), [tuple([1, 2]), _ONE]])
@example([(True, 2), _ONE, (1.0, 2), [_ONE, (True, 2), _ONE, (1.0, 2)], {"t": (True, 2)}])
@example([[_STR, 1], [["x"], _STR], _STR, ("x", 1), [_STR, _ONE, (), ()]])
# one key set at several indents and in several insertion orders
@example([{"b": 1, "a": "x"}, {"a": "y", "b": [1]}, [{"b": {"a": 2, "b": "z"}, "a": ()}],
          {"a": {"b": 1, "a": "x"}, "b": {"a": _ONE, "b": "x"}}, {"a": {}, "b": {}}])
# empty arrays and empty tuples beside shared tuples
@example([(), _ONE, [], _ONE, [(), [], _ONE, _STR, _ONE], ((), _ONE, []), {"a": (), "b": _ONE}])
# an int or a str first, items of other types after it
@example([[1, True], [1, 1.0], [1, "x"], [1, _ONE], (1, 2, True), ["x", 1], ("x", "y", 1),
          [1, (1, 2), _ONE, 1], [True, 1], [1.0, 1]])
# one tuple filed at one indent, met again deeper and shallower
@example([[[_ONE, _ONE]], _ONE, [_ONE, [_ONE]], [[_ONE, 1]], _ONE, {"a": [[_ONE]]}])
# one list object at two indents, and twice at one indent
@example([_LIST, [_LIST, _LIST], _LIST, [[_LIST]], {"a": _LIST, "b": [_LIST]}])
# equal-valued distinct tuples and lists at one indent: a degree-1 row
# monomial and a domain exponent
@example({"rows": [tuple([1]), tuple([2])], "cols": [tuple([1]), [1]], "x": [tuple([1]), [1]]})
# an array that is both a dict value and an item of a mixed array
@example([{"a": _LIST, "b": _ONE}, [_LIST, 1, _ONE, "x"], {"c": [_ONE, _LIST]}])
# written item by item, also beside an equal all-int array met first
@example([[1, 1], [1, True], [1, 1.0], ["a", 1], [1, True], [1, 1.0], ["a", 1]])
# 0, 1, BATCH and BATCH + 1 records: the last is written in two batches
@example({"n": 2, "terms": _records(0)})
@example({"n": 2, "terms": _records(1)})
@example({"n": 2, "terms": _records(BATCH)})
@example({"n": 2, "terms": _records(BATCH + 1)})
# one record with another key set, in a short run and in a batched one
@example([{"coeff": "1", "factors": [_ONE]}, {"coeff": "2", "other": [_ONE]}, {"coeff": "3", "factors": []}])
@example({"terms": _records(BATCH + 2) + [{"coeff": "2", "other": [_ONE]}] + _records(3)})
# a pair array holding one 3-tuple, short and batched
@example([((1, 2), "1"), ((2, 1), "-1"), ((0, 3), "2", "x"), ((1, 2), "1/2")])
@example({"poly": [((i, 1), str(i)) for i in range(BATCH)] + [((0, 3), "2", "x")]})
# a filed tuple beside equal lists inside records
@example([{"e": _ONE, "f": [1, 2]}, {"e": [1, 2], "f": _ONE}, {"e": tuple([1, 2]), "f": [_ONE, [1, 2]]}])
# a dict array of at most BATCH records, one of which holds a batched array
@example({"generators": [{"poly": _records(2)}, {"poly": _records(BATCH + 1), "vars": _STR}, {"poly": []}]})
def test_canonical_json_is_json_dumps(value):
    assert "".join(canonical_json(value)) == json.dumps(value, indent=2, sort_keys=True)


@_property
@given(_JSON_VALUES, st.sampled_from([Fraction(1, 2), {1, 2}, b"x", object(), {1: "a"}]))
def test_canonical_json_rejects_what_it_does_not_take(value, bad):
    """A value JSON cannot hold, or a dict key that is not a str, raises
    TypeError wherever it sits."""
    for payload in (bad, [value, bad], {"k": (bad,), "v": value}):
        with pytest.raises(TypeError):
            "".join(canonical_json(payload))


@pytest.mark.parametrize("argv", [
    "orbit closed-form --k 6 --sigma 5 --kind mu",
    "generators --n 2 --k 4",
    "orbit limit --k 6 --sigma 4 --kind lambda --eps 1/8",
    "generators --n 2 --k 3 --verify --trials 2 --seed 1",
])
def test_canonical_json_on_real_payloads(capsys, argv):
    """Printed from the payload's shared tuples, the output equals json.dumps
    of its parsed copy, and so does the writer run on that copy."""
    code = main(argv.split() + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert out == "".join(canonical_json(parsed)) + "\n" == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


def test_long_payloads_go_out_batch_by_batch(capsys, monkeypatch, tmp_path):
    """A wedge of 1,800 terms leaves the writer in one chunk per BATCH terms,
    the same chunks to stdout and to --out; a payload with no array longer
    than BATCH is one chunk."""
    import jetinv.cli

    chunks = []

    def recorded(obj):
        for chunk in canonical_json(obj):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(jetinv.cli, "canonical_json", recorded)
    argv = "orbit closed-form --k 6 --sigma 5 --kind mu"
    target = tmp_path / "mu.json"
    code = main(argv.split() + ["--json", "--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0 and len(json.loads(out)["terms"]) == 1800
    assert len(chunks) == -(-1800 // BATCH) + 1  # the last chunk closes the array and the dict
    assert out == target.read_text() == "".join(chunks) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]
    chunks.clear()
    assert main(["orbit", "codim-report", "--k", "4", "--json"]) == 0
    assert len(chunks) == 1 and capsys.readouterr().out == chunks[0] + "\n"


def test_error_inside_a_streamed_array_exits_4(capsys, monkeypatch):
    """A value JSON cannot hold, deep in the second batch of terms, ends the
    run with exit 4 and one internal-error line; stdout holds the text
    written before it, a prefix of the payload."""
    import jetinv.embedding

    argv = "orbit closed-form --k 6 --sigma 5 --kind mu --json".split()
    assert main(argv) == 0
    whole = capsys.readouterr().out
    to_json = jetinv.embedding.WedgeVector.to_json

    def broken(self):
        obj = to_json(self)
        obj["terms"][BATCH + 5]["factors"][2] = Fraction(1, 2)
        return obj

    monkeypatch.setattr(jetinv.embedding.WedgeVector, "to_json", broken)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "internal error: TypeError: Object of type Fraction is not JSON serializable\n"
    assert captured.out and whole.startswith(captured.out) and len(captured.out) < len(whole)


# SHA-256 of the human-readable stdout (no --json). The payloads hold tuples;
# the table shows every array as a list, as it did when they held lists.
HUMAN_STDOUT = {
    "orbit limit --k 4 --sigma 2 --kind lambda": "87dc24b7f0f5e800398e400517e5db7b61ac092d50473c795ab5c59074d09f59",
    "orbit closed-form --k 5 --sigma 3 --kind mu": "f8903de3c487f9b89df5f0df74ca0606669e5cb8a5724890d18a7636fb7dfd98",
    "generators --n 2 --k 2": "765ccc70ac196cf9b715fd6dfc22a4b751a493f252ed9549e2bfd67c4f4bc466",
    "generators --n 3 --k 4": "7405f1ca26d9776f0240ad4cfc526e15c418ee61dab0a57e2d89f8de6997c7a4",
    "generators --p 2 --n 3 --k 2": "553fe994f30a869378aaba67461f8d41f45089623bb81b13d97fe8c564c1b788",
}


@pytest.mark.parametrize("argv", list(HUMAN_STDOUT))
def test_human_stdout(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == HUMAN_STDOUT[argv]


def _listed(value):
    """The table's former rendering: every tuple copied into a list, then str."""
    return [_listed(x) for x in value] if isinstance(value, (list, tuple)) else value


_leaves = st.one_of(st.integers(-3, 300), st.booleans(), st.none(),
                    st.sampled_from(["1/2", "-7", "(", ")", "a(b)", ",)", "()", "it's", 'say "x"', "\\(", ""]))
_shared = (4, 0, 1)  # one exponent tuple that many terms hold
_arrays = st.recursive(st.one_of(_leaves, st.just(_shared)),
                       lambda inner: st.one_of(st.lists(inner, max_size=4),
                                               st.lists(inner, max_size=4).map(tuple)), max_leaves=12)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(st.lists(_arrays, max_size=4), st.lists(_arrays, max_size=4).map(tuple)))
@example([((1,), "2"), ((), "(x,)"), (_shared, "-1"), (_shared, ")"), [[(3,)]]])
def test_table_arrays_read_as_their_lists(value):
    """1-tuples, empty arrays, shared tuples and strings holding parentheses
    or quotes show as they did when every tuple was copied into a list."""
    memo = {}
    assert _shown(value, memo) == str(_listed(value))
    assert _shown(value, memo) == str(_listed(value))  # again, off the memo


def test_stabilizer_commands_build_no_kernel_basis(capsys, monkeypatch):
    """stabilizer, codim-report and probe-p read only the dimension: no back
    substitution and no reshaped basis matrix."""
    import jetinv.exact
    import jetinv.orbits

    def refused(*args, **kwargs):
        raise AssertionError("kernel basis built")

    monkeypatch.setattr(jetinv.exact, "_back_substitute", refused)
    monkeypatch.setattr(jetinv.orbits, "_reshape", refused)
    for argv in (["orbit", "stabilizer", "--k", "5"], ["orbit", "codim-report", "--k", "5"],
                 ["orbit", "probe-p", "--p", "2", "--k", "3"]):
        code, out = run_cli(argv + ["--json"], capsys)
        assert code == 0 and json.loads(out), argv


@pytest.mark.parametrize("json_flag", [["--json"], []])
def test_closed_pipe_exits_141_quietly(json_flag):
    """A reader that takes one line and closes the pipe ends the run with
    128 + SIGPIPE and nothing on stderr.  The payload (636 KB as JSON) is
    larger than a pipe holds, so the writer is still writing when it closes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "jetinv.cli", "orbit", "closed-form", "--k", "6", "--sigma", "5",
         "--kind", "mu", *json_flag],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
    assert err == b""
