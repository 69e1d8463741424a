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

from jetinv.cli import canonical_json, main

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
        ["phi", "--k", "0", "--n", "2"],
        ["test-curve", "--k", "2", "--n", "2", "--N", "0"],
        ["test-curve", "--k", "2", "--n", "2", "--N", "-1"],
        ["phi", "--k", "2", "--n", "2", "--coeff-bound", "0"],
        ["test-curve", "--k", "2", "--n", "2", "--coeff-bound", "0"],
        ["generators", "--n", "2", "--k", "2", "--p", "0"],
        ["orbit", "stabilizer", "--k", "3", "--out", "/nonexistent/x.json"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["group-matrix", "--p", "3", "--k", "40", "--symbolic"],
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
    for argv in (["group-matrix", "--k", "2", "--symbolic"], ["phi", "--k", "2", "--n", "2"],
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
    code, _ = run_cli(["orbit", "probe-p", "--p", "2", "--k", "6"], capsys)
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
    "group-matrix --p 2 --k 3 --symbolic": "b8f5155c49e0e10636fe26dc06b93f08de09fc223cb66c9ab54ed6e4fd6d2e02",
    "test-curve --k 3 --n 3 --N 2 --seed 7": "7150103ce5ee0ca1013b6fe569741daef83a6ea72b13d1833ea08966b1cfe629",
    "generators --n 2 --k 2 --verify --trials 5 --seed 1": "af8c6b6286f96d4d6b0f935e70d161fe9eaa0a1609414b784bc7e48bd6397177",
    "orbit probe-p --p 2 --k 2": "ab41a1b1f4eb067da80f133aab2063720a7abf1b7d40730a95dc14df17e25094",
    "orbit probe-p --p 1 --k 4 --M 2": "c78283f4398a51f0721ffde26128252abed317600b3dbf1411a7aeca98c6dfb8",
    "orbit limit --k 6 --sigma 4 --kind mu": "d9323ff8135ae49c156a09a216777d39bb65db80a730515e41e1254fc8926a0d",
    "orbit limit --k 6 --sigma 3 --kind lambda --eps 1/8": "ff39591b310b2e387536a5946e4e90bc0659f3400404bbc7ece096bf1ab7d70a",
    "orbit closed-form --k 6 --sigma 5 --kind mu": "41fad4679aeac32d72c21b3cca42850f5302db91c3ee3364c06f80a462054835",
    "generators --p 2 --n 3 --k 2": "75f65be8701880cf06b8710dd82192f4d0d5987aa788cf240e76138734dd0530",
    "generators --p 2 --n 2 --k 3": "564758ec102906ad7a3997298e506c5239e1917a67c70e2ab003ef3767ff5cba",
    "group-matrix --p 1 --k 4 --symbolic --closed-form": "38e0ad38c7b0377433d56dd9e557b9a633c4e842440388c2847e0531216d9936",
    "generators --n 3 --k 3 --verify --trials 10 --seed 5": "4ddd96b25373990fc941fd457c605957d4d16ea5c3436f6e65aa317bd224f117",
    "generators --n 2 --k 4 --verify --trials 10 --seed 5": "3f9ff7a3d0c3a8770f5e07ab888bc3b118e234e7341fb907ad1f2512ccdf6d4a",
    "test-curve --k 5 --n 5 --seed 11": "7c6d3851d66e53248d2460c6ab53478029aa9a9c82cffec200a47f75a0fe1168",
    "test-curve --p 2 --k 3 --n 4 --seed 11": "65734596586f76583d688c4871e3d7c6193abb9124651f0dd1c5b5646542cd15",
    "test-curve --k 4 --n 4 --N 2 --seed 11": "d5016cc20c4df1a9c749303aa52ec0098a3172d2116ee4341ccafb9e24db5905",
    "orbit codim-report --k 5": "2e9e3ff8d604dd45a09c17138e095e7f524484c49ba1f62b944823c8e6a96c22",
    "generators --n 3 --k 4 --verify --trials 2 --seed 5": "a881de2b2eb38c2118347b77167b033afddc683f90cf2ae1f4c779419ed46871",
    "test-curve --p 1 --k 3 --n 2 --symbolic": "a585897fc2c4c416cd52a91a52292571403134b995ec4523ec2693507de5d59f",
    "test-curve --p 2 --k 2 --n 2 --symbolic": "a2ee1569374d86fa9391b2da00b205c6988d3805695dfbce9c60ef4291413fed",
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


@_property
@given(_JSON_VALUES)
# equal int arrays at several depths; ints beside the bools, floats and strs
# equal to them as keys; equal tuple and list values; an unhashable array
@example({"a": [1, 2], "b": {"c": [1, 2], "d": [[1, 2], [[1, 2]]]}})
@example([[1], [True], [1.0], ["1"], [1], [True], [1.0], ["1"]])
@example([(1, 2), [1, 2], ("x",), ["x"], (), []])
@example([[1, [2]], [1, [2]]])
def test_canonical_json_is_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, indent=2, sort_keys=True)


@_property
@given(_JSON_VALUES, st.sampled_from([Fraction(1, 2), {1, 2}, b"x", object(), {1: "a"}]))
def test_canonical_json_rejects_what_it_does_not_take(value, bad):
    """A value JSON cannot hold, or a dict key that is not a str, raises
    TypeError wherever it sits."""
    for payload in (bad, [value, bad], {"k": (bad,), "v": value}):
        with pytest.raises(TypeError):
            canonical_json(payload)


@pytest.mark.parametrize("argv", [
    "orbit closed-form --k 6 --sigma 5 --kind mu",
    "generators --n 2 --k 4",
])
def test_canonical_json_on_real_payloads(capsys, argv):
    """Printed from the payload's shared tuples, the output equals json.dumps
    of its parsed copy, and so does the writer run on that copy."""
    code = main(argv.split() + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert out == canonical_json(parsed) + "\n" == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


# SHA-256 of the human-readable stdout (no --json). The payloads hold tuples;
# the table shows every array as a list, as it did when they held lists.
HUMAN_STDOUT = {
    "orbit limit --k 4 --sigma 2 --kind lambda": "87dc24b7f0f5e800398e400517e5db7b61ac092d50473c795ab5c59074d09f59",
    "orbit closed-form --k 5 --sigma 3 --kind mu": "f8903de3c487f9b89df5f0df74ca0606669e5cb8a5724890d18a7636fb7dfd98",
    "generators --n 2 --k 2": "765ccc70ac196cf9b715fd6dfc22a4b751a493f252ed9549e2bfd67c4f4bc466",
}


@pytest.mark.parametrize("argv", list(HUMAN_STDOUT))
def test_human_stdout(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == HUMAN_STDOUT[argv]


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
