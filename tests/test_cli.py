import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import todalab
from todalab.blowup_poly import closed_form_p
from todalab.cli import main
from todalab.rootdata import LieType


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestPq:
    def test_b3_document(self, capsys):
        doc = run_json(capsys, "pq", "--type", "B3")
        assert doc["schema_version"] == 1
        assert doc["p"] == "(q-1)(q^2-1)(q^3-1)"
        assert doc["coeffs"] == [-1, 1, 1, 0, -1, -1, 1]
        assert doc["matches_closed_form"] is True

    def test_mixed_sign(self, capsys):
        doc = run_json(capsys, "pq", "--type", "A2", "--sign", "-+")
        assert doc["coeffs"] == []
        assert "matches_closed_form" not in doc

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "pq", "--type", "A2", "--format", "text")
        assert code == 0
        assert out.strip() == "A2 --: q^2 - 1"

    def test_e7_refused_as_before(self, capsys):
        code, out, err = run(capsys, "pq", "--type", "E7")
        assert (code, out) == (2, "")
        assert err == "error [cap-exceeded]: E7: group of order 2903040 exceeds cap=1000000\n"

    @pytest.mark.parametrize("name, cap", [("E7", "3000000"), ("E8", "700000000"),
                                           ("A14", "10000000000000")])
    def test_raised_cap_answers_without_enumerating(self, capsys, name, cap):
        start = time.perf_counter()
        doc = run_json(capsys, "pq", "--type", name, "--cap", cap)
        assert time.perf_counter() - start < 1.0
        closed = closed_form_p(LieType.parse(name))
        assert doc["p"] == str(closed)
        assert doc["closed_form_exponents"] == list(closed.exponents)
        assert doc["matches_closed_form"] is True

    def test_contract_grid_bytes_unchanged(self):
        """Every type and sign of the contract test below: exit code, JSON
        stdout and stderr hash to what enumeration-based pq gave."""
        digest = hashlib.sha256()
        for t in TYPES:
            for sign in [None] + SIGNS:
                argv = ["pq", "--type", t, "--format", "json"]
                argv += [] if sign is None else ["--sign", sign]
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
                digest.update(record.encode() + b"\n")
        assert digest.hexdigest() == PQ_GRID_SHA256


class TestEta:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "eta", "--type", "A2", "--sign", "--",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "word,length,eta,sign"
        assert len(lines) == 7

    def test_json_max(self, capsys):
        doc = run_json(capsys, "eta", "--type", "G2")
        assert doc["max_eta"] == 4
        assert len(doc["table"]) == 12


class TestGraph:
    def test_dot_header(self, capsys):
        code, out, _ = run(capsys, "graph", "--type", "A3", "--sign", "---",
                           "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 24
        assert "components=10" in out

    def test_json_betti(self, capsys):
        doc = run_json(capsys, "graph", "--type", "A2")
        assert doc["matching"] is True
        assert doc["betti"] == [1, 0, 0, 1]
        doc3 = run_json(capsys, "graph", "--type", "A3")
        assert doc3["matching"] is False
        assert "betti" not in doc3


class TestSchur:
    def test_experiment(self, capsys):
        doc = run_json(capsys, "schur", "--type", "G2", "--experiment",
                       "real-roots", "--samples", "20", "--seed", "7")
        assert doc["modal_count"] == 4
        assert doc["matches_expected"] is True

    @pytest.mark.parametrize("argv, flag", [
        (("--hirota", "--experiment", "real-roots"), "--hirota"),
        (("--samples", "5"), "--samples"),
        (("--seed", "3"), "--seed"),
        (("--seed", "0", "--hirota"), "--seed"),
    ])
    def test_flag_without_effect_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, "schur", "--type", "A2", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error [validation]: ") and flag in err

    def test_tau_document(self, capsys):
        doc = run_json(capsys, "schur", "--type", "B2", "--hirota")
        assert doc["minimal_degrees"] == [2, 1]
        assert doc["nu_degrees"] == [4, 3]
        assert doc["hirota"] == [
            {"a0": "-1", "k": 1, "residual_zero": True},
            {"a0": "-1/2", "k": 2, "residual_zero": True},
        ]


class TestAffine:
    def test_guess(self, capsys):
        doc = run_json(capsys, "affine", "--rank", "1", "--lmax", "12", "--guess")
        assert doc["coeffs"][:5] == [1, -2, 2, -2, 2]
        assert doc["rational_guess"] == "(-q + 1) / (q + 1)"
        assert doc["counts_per_length"][:3] == [1, 2, 2]

    def test_insufficient_data_reported(self, capsys):
        doc = run_json(capsys, "affine", "--rank", "1", "--lmax", "6", "--guess")
        assert doc["rational_guess"] is None
        assert doc["rational_guess_error"] == "insufficient-data"

    def test_bad_sign_length(self, capsys):
        code, _, err = run(capsys, "affine", "--rank", "2", "--sign", "--", "--lmax", "4")
        assert code == 1
        assert "validation" in err


class TestOde:
    def test_csv_trajectory(self, capsys):
        code, out, _ = run(capsys, "ode", "--type", "A1", "--a", "1", "--b", "0",
                           "--t1", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,a1,b1,tau1"
        assert len(lines) > 100

    def test_negative_initial_data(self, capsys):
        doc = run_json(capsys, "ode", "--type", "A2", "--a", "-1,-1",
                       "--b", "1,-1", "--t1", "10")
        assert doc["status"] == "blow-up"
        assert len(doc["events"]) == 1

    def test_json_summary(self, capsys):
        doc = run_json(capsys, "ode", "--type", "A1", "--a", "1", "--b", "0",
                       "--t1", "2")
        assert doc["status"] == "complete"
        assert doc["invariant_drift"] < 1e-8


class TestChevalley:
    def test_brute_match(self, capsys):
        doc = run_json(capsys, "chevalley", "--type", "A2", "--q", "5", "--brute")
        assert doc["order"] == doc["brute_force_order"] == 120
        assert doc["matches"] is True

    def test_invalid_q_is_computational_error(self, capsys):
        code, _, err = run(capsys, "chevalley", "--type", "A2", "--q", "4")
        assert code == 2
        assert "invalid-q" in err


class TestErrorsAndPlumbing:
    def test_unknown_type_exit_1(self, capsys):
        code, _, err = run(capsys, "pq", "--type", "Q9")
        assert code == 1

    def test_bad_sign_length_exit_1(self, capsys):
        code, _, err = run(capsys, "pq", "--type", "A2", "--sign", "---")
        assert code == 1

    def test_unsupported_tau_type_exit_2(self, capsys):
        code, _, err = run(capsys, "schur", "--type", "E6")
        assert code == 2
        assert "unsupported-type" in err

    def test_cap_exceeded_exit_2(self, capsys):
        code, _, err = run(capsys, "pq", "--type", "E7")
        assert code == 2
        assert "cap-exceeded" in err

    @pytest.mark.parametrize("argv", [
        ("pq", "--type", "E8"),
        ("pq", "--type", "A2000"),
        ("ode", "--type", "A1", "--a", "1", "--b", "0", "--t1", "1e12"),
        ("affine", "--rank", "40", "--lmax", "5"),
        ("affine", "--rank", "2000", "--lmax", "1"),
        ("schur", "--type", "A11"),
        ("schur", "--type", "D5", "--experiment", "real-roots"),
        ("schur", "--type", "G2", "--experiment", "real-roots", "--samples", "100000"),
        ("chevalley", "--type", "A2000", "--q", "3"),
        ("chevalley", "--type", "A1", "--q", "1000000000000000003"),
        ("pq", "--type", "A1000000"),
        ("eta", "--type", "A14", "--cap", "10000000000000"),
        ("graph", "--type", "D9", "--cap", "100000000000"),
        ("ode", "--type", "A15", "--a", ",".join(["1"] * 15), "--b", ",".join(["0"] * 15)),
        ("ode", "--type", "A2000", "--a", ",".join(["1"] * 2000),
         "--b", ",".join(["0"] * 2000)),
    ])
    def test_oversize_input_refused_exit_2(self, capsys, argv):
        importlib.import_module("todalab.numtoda")  # time the refusal, not scipy's import
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error [cap-exceeded]: ")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("pq", "--type", "B2(1)"),
        ("eta", "--type", "B2(1)"),
        ("graph", "--type", "B2(1)"),
        ("schur", "--type", "B2(1)"),
        ("chevalley", "--type", "B2(1)", "--q", "5"),
        ("ode", "--type", "B2(1)", "--a", "1,1", "--b", "0,0"),
        ("ode", "--type", "A2(1)", "--a", "1,1,1", "--b", "0,0,0"),
        ("ode", "--type", "A2(1)", "--a", "1,1", "--b", "0,0"),
    ])
    def test_affine_type_outside_affine_is_unsupported(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error [unsupported-type]: ")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("q", ["25", "9", "49", "81"])
    def test_brute_force_refuses_prime_powers(self, capsys, q):
        # the enumeration works in Z/q, which is the field F_q only for prime q
        code, out, err = run(capsys, "chevalley", "--type", "A1", "--q", q, "--brute")
        assert code == 2
        assert err.startswith("error [invalid-q]: ")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("cache", "list"),
        ("schur", "--type", "A2", "--cap", "5"),
        ("affine", "--rank", "1", "--cache-dir", "x"),
        ("chevalley", "--type", "A2", "--format", "text"),
        ("verify", "--include-e7"),
    ])
    def test_removed_flags_are_validation_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "error [validation]: " in err
        assert out == ""

    def test_integrator_failure_is_one_stderr_line(self, capsys):
        code, out, err = run(capsys, "ode", "--type", "A1", "--a", "1e308", "--b", "1e308")
        assert code == 2
        assert err.startswith("error [step-collapse-without-divergence]: ")
        assert err.count("\n") == 1
        assert out == ""

    def test_missing_subcommand_exit_1(self, capsys):
        assert run(capsys, )[0] == 1

    @pytest.mark.parametrize("argv, quoted", [
        (("ode", "--type", "A1", "--a", "nan", "--b", "0"), None),
        (("ode", "--type", "A1", "--a", "inf", "--b", "0"), None),
        (("ode", "--type", "A1", "--a", "abc", "--b", "0"), "'abc'"),
        (("ode", "--type", "A1", "--a", "1", "--b", "0", "--t1", "0"), None),
        (("ode", "--type", "A1", "--a", "1", "--b", "0", "--t1", "nan"), None),
        (("affine", "--rank", "1", "--lmax", "-1"), None),
        (("pq", "--type", "A2", "--sign", "+-+"), "sign vector '+-+'"),
    ])
    def test_bad_input_is_validation_error(self, capsys, argv, quoted):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error [validation]: ")
        assert "Traceback" not in err
        assert out == ""
        if quoted is not None:
            assert quoted in err

    @pytest.mark.parametrize("argv, target", [
        (("graph", "--type", "A3"), "missing/x.dot"),
        (("eta", "--type", "A3"), ""),  # the directory itself
        (("verify",), "missing/x.json"),
        (("conventions",), "missing/x"),
    ])
    def test_unwritable_out_is_validation_error(self, tmp_path, capsys, argv, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, *argv, "--out", path)
        assert code == 1
        assert err.startswith(f"error [validation]: cannot write --out {path!r}: ")
        assert "Traceback" not in err
        assert out == ""

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "graph", "--type", "B2", "--format", "dot")
        _, out2, _ = run(capsys, "graph", "--type", "B2", "--format", "dot")
        assert out1 == out2

    def test_csv_uses_crlf(self, tmp_path, capsys):
        target = tmp_path / "eta.csv"
        code, _, _ = run(capsys, "eta", "--type", "A1", "--sign", "-",
                         "--format", "csv", "--out", str(target))
        assert code == 0
        raw = target.read_bytes()
        assert raw == b"word,length,eta,sign\r\ne,0,0,-\r\n1,1,1,-\r\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "pq.json"
        code, out, _ = run(capsys, "pq", "--type", "A2", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["p"] == "(q^2-1)"

    def test_conventions(self, capsys):
        doc = run_json(capsys, "conventions")
        assert doc["types"]["G2"]["cartan"] == [[2, -1], [-3, 2]]


# Exact commands, successful and refused; none may load numpy or scipy.
EXACT_COMMANDS = [
    ["pq", "--type", "A2"],
    ["pq", "--type", "E7"],
    ["eta", "--type", "G2", "--format", "csv"],
    ["graph", "--type", "A3", "--format", "dot"],
    ["schur", "--type", "B2", "--hirota"],
    ["schur", "--type", "G2", "--experiment", "real-roots", "--samples", "3"],
    ["affine", "--rank", "1", "--lmax", "6", "--guess"],
    ["chevalley", "--type", "A2", "--q", "5"],
    ["chevalley", "--type", "A2", "--q", "5", "--brute"],
    ["conventions"],
]

IMPORT_BOUNDARY = """
import contextlib, io, json, sys
import todalab, todalab.cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return todalab.cli.main(argv)

def heavy():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
print(json.dumps(heavy()))
print(run(["ode", "--type", "A1", "--a", "nan", "--b", "0"]), "scipy" in sys.modules)
print(callable(todalab.numtoda.ode_integrate))
print(run(["ode", "--type", "A1", "--a", "1", "--b", "0"]), bool(heavy()))
"""


def test_numpy_and_scipy_load_only_for_numerical_commands():
    src = str(Path(todalab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, json.dumps(EXACT_COMMANDS)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    codes, loaded, rejected, resolves, numeric = proc.stdout.splitlines()
    assert json.loads(codes) == [0, 2, 0, 0, 0, 0, 0, 0, 0, 0]
    assert json.loads(loaded) == []
    assert rejected == "1 False"  # bad ode input is refused before scipy loads
    assert resolves == "True"
    assert numeric == "0 True"


def test_package_getattr_rejects_unknown_names():
    with pytest.raises(AttributeError, match="no_such_module"):
        todalab.no_such_module


def test_verify_rejects_bad_scope(capsys):
    code, _, err = run(capsys, "verify", "--scope", "")
    assert code == 1


def test_verify_fast_scope(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "fast")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 13
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_verify_out_file_is_json_only(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--scope", "fast", "--out", str(target))
    assert code == 0
    assert out == ""  # stdout is used only when --out is absent
    doc = json.loads(target.read_text())
    assert doc["failed"] == 0 and doc["passed"] == 13


# -- CLI contract: every argv gives a result or a stable error, quickly --------

TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D5", "G2", "F4", "E6", "E7",
         "E8", "A12", "A40", "A2000", "A2(1)", "B2(1)", "G2(1)", "Q9", "A0", ""]
SIGNS = ["-", "+", "--", "-+", "+-+", "---", "----", "-++-+-", "", "+x"]
NUMBERS = ["1", "0", "-1", "1,1", "-1,-1", "1e308", "nan", "abc", ""]
JUNK = ["--bogus", "junk", "--", "-x", "--cap=abc"]
PQ_GRID_SHA256 = "7bf2ebcec419d99facc07b25669b6d73df35d95b33cfe1d8a58c4023c5efac4a"


def _tokens(spec):
    """Each option absent or present with a drawn value (a switch has none)."""
    parts = []
    for flag, values in spec.items():
        present = (st.just([flag]) if values is None
                   else st.sampled_from(values).map(lambda v, f=flag: [f, v]))
        parts.append(st.one_of(st.just([]), present))
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


def _group_command(name, formats):
    return st.tuples(
        st.just([name, "--type"]), st.sampled_from(TYPES).map(lambda t: [t]),
        st.integers(-5, 2000).map(lambda c: ["--cap", str(c)]),
        _tokens({"--sign": SIGNS, "--format": formats}),
    )


COMMANDS = st.one_of(
    _group_command("pq", ["json", "text", "csv"]),
    _group_command("eta", ["json", "csv", "text", "dot"]),
    _group_command("graph", ["json", "dot", "text"]),
    st.tuples(st.just(["schur", "--type"]), st.sampled_from(TYPES).map(lambda t: [t]),
              _tokens({"--experiment": ["real-roots", "x"],
                       "--samples": ["-1", "0", "1", "3", "100000", "x"],
                       "--seed": ["0", "7", "-2"], "--hirota": None})),
    st.tuples(st.just(["affine", "--rank"]),
              st.sampled_from(["-1", "0", "1", "2", "3", "12", "40", "2000", "x"]).map(
                  lambda r: [r]),
              _tokens({"--lmax": ["-1", "0", "3", "8", "41", "x"],
                       "--sign": SIGNS, "--guess": None})),
    st.tuples(st.just(["ode", "--type"]), st.sampled_from(TYPES).map(lambda t: [t]),
              st.tuples(st.sampled_from(NUMBERS), st.sampled_from(NUMBERS)).map(
                  lambda ab: ["--a", ab[0], "--b", ab[1]]),
              _tokens({"--t0": ["0", "-3", "nan"], "--t1": ["5", "-3", "0", "1e12", "x"],
                       "--format": ["json", "csv", "dot"]})),
    st.tuples(st.just(["chevalley", "--type"]), st.sampled_from(TYPES).map(lambda t: [t]),
              _tokens({"--q": ["-3", "0", "1", "2", "3", "5", "9", "25",
                               "1000000000000000003", "x"],
                       "--brute": None})),
    st.tuples(st.just(["verify"]), _tokens({"--scope": ["fast", "x"]})),
    st.tuples(st.just(["conventions"]), _tokens({"--bogus": None})),
).map(lambda parts: [tok for p in parts for tok in p])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(argv=COMMANDS, junk=st.lists(st.sampled_from(JUNK), max_size=1))
def test_cli_contract(argv, junk):
    argv = argv + junk
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # only argparse's own exits may escape
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert time.perf_counter() - start < 5, argv
