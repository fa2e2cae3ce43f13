import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import todalab
from conftest import word_str
from todalab.blowup_poly import closed_form_p
from todalab.cli import IndentEncoder, main
from todalab.rootdata import LieType
from todalab.signflow import all_minus, eta_table
from todalab.weyl import WeylGroup


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

    def test_text(self, capsys):
        code, out, _ = run(capsys, "eta", "--type", "A2", "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "           e  l=0  eta=0  --",
            "           2  l=1  eta=1  +-",
            "           1  l=1  eta=1  -+",
            "          12  l=2  eta=1  -+",
            "          21  l=2  eta=1  +-",
            "         121  l=3  eta=2  --",
        ]


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

    def test_zero_series_guess(self, capsys):
        doc = run_json(capsys, "affine", "--rank", "1", "--sign", "+-", "--lmax", "15",
                       "--guess")
        assert doc["rational_guess"] == "(0) / (1)"

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

    def test_brute_needs_q(self, capsys):
        code, out, err = run(capsys, "chevalley", "--type", "A2", "--brute")
        assert (code, out) == (1, "")
        assert err == "error [validation]: --brute needs --q\n"

    def test_brute_e8_as_so16(self, capsys):
        doc = run_json(capsys, "chevalley", "--type", "E8", "--q", "13", "--brute")
        assert doc["dual_compact"] == "SO(16)"
        assert doc["matches"] is True

    def test_brute_non_split_refused(self, capsys):
        code, out, err = run(capsys, "chevalley", "--type", "A5", "--q", "3", "--brute")
        assert (code, out) == (2, "")
        assert err.startswith("error [assumption-violated]: ")

    def test_refused_q_does_not_format_p(self, capsys):
        # the digits cap refuses before p, a product of a million factors, is
        # formatted; formatting it first peaked at about 111 MB
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "chevalley", "--type", "A1000000", "--q", "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("error [cap-exceeded]: |K(F_3)| of A1000000 may have ")
        assert peak < 60_000_000

    def test_brute_refuses_non_so_dual(self, capsys):
        code, out, err = run(capsys, "chevalley", "--type", "B3", "--q", "5", "--brute")
        assert (code, out) == (1, "")
        assert err.startswith("error [validation]: B3: the compact dual U(3) ")


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
        ("schur", "--type", "A10", "--experiment", "real-roots"),
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
        importlib.import_module("todalab.numtoda")  # time the refusal, not numpy's import
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error [cap-exceeded]: ")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv, rank", [
        (("pq", "--type", "A1000001"), 1000001),
        (("eta", "--type", "A1000001"), 1000001),
        (("schur", "--type", "A1000001"), 1000001),
        (("chevalley", "--type", "A1000001", "--q", "3"), 1000001),
        (("affine", "--rank", "1000001", "--lmax", "1"), 1000001),
        (("affine", "--rank", "1000000000", "--lmax", "1"), 1000000000),
    ])
    def test_rank_above_ceiling_is_validation_error(self, capsys, argv, rank):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error [validation]: rank {rank} out of range [1,1000000] for series A\n"

    def test_affine_lmax_cap_message(self, capsys):
        code, out, err = run(capsys, "affine", "--rank", "2", "--lmax", "41")
        assert (code, out) == (2, "")
        assert err == "error [cap-exceeded]: affine enumeration capped at Lmax<=40\n"

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

    @pytest.mark.parametrize("command", ["pq", "eta", "graph"])
    @pytest.mark.parametrize("sign", ["+++", "-", "+x"])
    def test_type_is_checked_before_the_sign(self, capsys, command, sign):
        # with or without --sign, an affine type gets the same refusal
        for extra in ((), ("--sign", sign)):
            code, out, err = run(capsys, command, "--type", "A2(1)", *extra)
            assert (code, out) == (2, "")
            assert err == ("error [unsupported-type]: A2(1) is affine; "
                           "use extended_cartan / the affine module\n")

    def test_caret_affine_spelling_is_not_a_type(self, capsys):
        # "A2(1)" is the affine spelling; "A2^(1)" never parsed
        code, out, err = run(capsys, "pq", "--type", "A2^(1)")
        assert (code, out) == (1, "")
        assert err == "error [validation]: cannot parse rank in Lie type 'A2^(1)'\n"

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

    def test_csv_slices_match_one_pass(self, tmp_path, capsys):
        # D6 has 23,040 rows, so the CSV is written in six slices; stdout and
        # --out carry the bytes of one csv.writer pass over all rows
        g = WeylGroup.generate(LieType.parse("D6"))
        table = eta_table(g, all_minus(6))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(("word", "length", "eta", "sign"))
        writer.writerows(zip(map(word_str, map(g.word, range(len(g)))), g.lengths,
                             table.values, table.sign_labels()))
        code, out, _ = run(capsys, "eta", "--type", "D6", "--format", "csv")
        assert code == 0 and out == buf.getvalue()
        target = tmp_path / "eta.csv"
        code, out, _ = run(capsys, "eta", "--type", "D6", "--format", "csv",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == buf.getvalue().encode()

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "pq.json"
        code, out, _ = run(capsys, "pq", "--type", "A2", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["p"] == "(q^2-1)"

    def test_conventions(self, capsys):
        doc = run_json(capsys, "conventions")
        assert doc["types"]["G2"]["cartan"] == [[2, -1], [-3, 2]]


# Exact commands, successful and refused; none may load numpy or scipy.  The
# numerical commands load numpy, and scipy never.
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

def heavy(*names):
    return sorted(m for m in sys.modules if m.partition(".")[0] in names)

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
print(json.dumps(heavy("numpy", "scipy")), json.dumps(heavy("dataclasses", "inspect")))
print(run(["ode", "--type", "A1", "--a", "nan", "--b", "0"]),
      run(["ode", "--type", "A1", "--a", "1", "--b", "0", "--t1", "0"]), json.dumps(heavy("numpy")))
print(callable(todalab.numtoda.ode_integrate))
print(run(["ode", "--type", "A1", "--a", "1", "--b", "0"]),
      run(["ode", "--type", "A2", "--a", "-1,-1", "--b", "1,-1", "--format", "csv"]),
      bool(heavy("numpy")), json.dumps(heavy("scipy")), json.dumps(heavy("dataclasses")))
import todalab.verify
print(all(r.passed for r in todalab.verify.run("fast")), json.dumps(heavy("scipy")))
"""


def test_numpy_and_scipy_load_only_for_numerical_commands():
    src = str(Path(todalab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, json.dumps(EXACT_COMMANDS)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    codes, loaded, rejected, resolves, numeric, verified = proc.stdout.splitlines()
    assert json.loads(codes) == [0, 2, 0, 0, 0, 0, 0, 0, 0, 0]
    assert loaded == "[] []"  # records are NamedTuples: no dataclasses, no inspect
    assert rejected == "1 1 []"  # bad ode input is refused before numpy loads
    assert resolves == "True"
    # the eigen path and a blow-up load no scipy and no dataclasses (numpy
    # itself imports inspect)
    assert numeric == "0 0 True [] []"
    assert verified == "True []"


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


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_small_reference_outputs_byte_identical():
    """Every pinned benchmark stdout under 2 MB (E6 eta CSV included), replayed in-process."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    small = {key: ref for key, ref in reference.items() if ref["bytes"] < 2_000_000}
    assert small
    for key, ref in small.items():
        with redirect_stdout(io.StringIO()) as out:
            assert main(key.split()) == 0, key
        data = out.getvalue().encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == \
            (ref["bytes"], ref["sha256"]), key


# -- JSON encoding: IndentEncoder writes what json.dumps(indent=2) writes ------


class Text(str):
    pass


class Whole(int):
    pass


class Real(float):
    pass


SCALARS = st.one_of(
    st.text(), st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u2028", "é", "\U0001F600"]),
    st.integers(), st.integers(min_value=-(10 ** 40), max_value=10 ** 40), st.booleans(),
    st.none(), st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.builds(Text, st.text()), st.builds(Whole, st.integers()), st.builds(Real, st.floats()),
    st.floats().map(np.float64),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids), st.lists(kids).map(tuple),
        st.dictionaries(st.text() | st.builds(Text, st.text()), kids),
        st.lists(st.integers() | st.booleans()),  # plain ints, with and without bools
        st.lists(st.tuples(st.integers(), st.integers())),  # edge-shaped rows
        st.lists(st.tuples(st.integers(), st.integers() | st.booleans() | st.none())),
        st.lists(st.lists(st.integers(), max_size=2).map(tuple), min_size=1)),
    max_leaves=40)


def encode(doc):
    return json.dumps(doc, sort_keys=True, indent=2, cls=IndentEncoder)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=DOCUMENTS)
def test_encoder_matches_stdlib(doc):
    assert encode(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 3 * 4096 + 7])
def test_encoder_matches_stdlib_past_one_slice_of_rows(count):
    # int rows are filled one template per slice of 4096; DOCUMENTS never
    # builds a list that long
    rng = random.Random(count)
    edges = [(rng.randrange(10 ** 6), rng.randrange(-10 ** 40, 10 ** 40)) for _ in range(count)]
    doc = {"edges": edges, "nested": [{"rows": tuple(edges)}, edges[:5]]}
    assert encode(doc) == json.dumps(doc, sort_keys=True, indent=2)


RECORD_LISTS = {
    "vertices": [{"word": "e", "length": 0, "eta": 0, "sign": "--"},
                 {"word": "12", "length": 2, "eta": 1, "sign": "+-"}],
    "bools": [{"a": True, "b": 1}, {"a": False, "b": 2}],
    "bool_among_ints": [{"a": 1}, {"a": True}],
    "escaped": [{"s": 'é"\\\n\x00\x1f\u2028\U0001F600', "k%d": 1, "%%": "%s"},
                {"s": "%d %s %%", "k%d": -2, "%%": ""}],
    "mixed": [{"a": "1"}, {"a": 1}],
    "missing": [{"a": 1, "b": 2}, {"a": 1}],
    "extra": [{"a": 1}, {"a": 1, "b": 2}],
    "other_keys": [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    "nested_list": [{"a": [1, 2]}, {"a": [3]}],
    "nested_dict": [{"a": {"b": 1}}, {"a": {"b": 2}}],
    "empty": [{}, {}],
    "floats": [{"a": 1.5}, {"a": 2}],
    "none": [{"a": None}, {"a": 1}],
    "subclass_values": [{"a": Text("x"), "b": Whole(3)}, {"a": "y", "b": 4}],
    "subclass_key": [{Text("a"): 1}, {"a": 2}],
    "big_ints": [{"n": 10 ** 40}, {"n": -(10 ** 40)}],
    "dict_then_tuple": [{"a": 1}, (1, 2)],
    "tuple_then_dict": [(1, 2), {"a": 1}],
}


@pytest.mark.parametrize("name", sorted(RECORD_LISTS))
def test_encoder_matches_stdlib_on_record_lists(name):
    # lists of dicts with one key set and only str or only plain int values
    # under each key render from one template; every other list falls back
    records = RECORD_LISTS[name]
    doc = {"rows": records, "nested": [records, {"deeper": records}]}
    assert encode(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097])
def test_encoder_matches_stdlib_past_one_slice_of_records(count):
    rng = random.Random(count)
    texts = ["e", "121", "-+-", "é", '"', "\\", "%s", "\u2028", "9.10"]
    records = [{"word": rng.choice(texts), "length": rng.randrange(10 ** 6),
                "eta": rng.randrange(-(10 ** 30), 10 ** 30), "sign": rng.choice(texts)}
               for _ in range(count)]
    doc = {"table": records, "nested": [{"rows": records}]}
    assert encode(doc) == json.dumps(doc, sort_keys=True, indent=2)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(doc=DOCUMENTS, key=st.sampled_from([1, -2, 1.5, True, None, Whole(3)]))
def test_encoder_refuses_keys_that_are_not_str(doc, key):
    json.dumps({key: doc})  # the stdlib would write the key as a string
    with pytest.raises(TypeError):
        encode({"a": [{key: doc}]})


def test_encoder_refuses_unknown_objects_as_the_stdlib_does():
    for doc in ({"a": object()}, [np.int64(1)], {1, 2}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode(doc)


@pytest.mark.parametrize("settings_", [
    {}, {"sort_keys": True}, {"indent": 2}, {"sort_keys": True, "indent": 4},
    {"sort_keys": True, "indent": "  "}, {"sort_keys": True, "indent": 2, "ensure_ascii": False},
    {"sort_keys": True, "indent": 2, "separators": (",", ": ")},
    {"sort_keys": True, "indent": 2, "default": str},
    {"sort_keys": True, "indent": 2, "allow_nan": False},
    {"sort_keys": True, "indent": 2, "check_circular": False},
    {"sort_keys": True, "indent": 2, "skipkeys": True},
])
def test_encoder_refuses_other_settings(settings_):
    with pytest.raises(ValueError, match="IndentEncoder"):
        json.dumps({"a": [1]}, cls=IndentEncoder, **settings_)


JSON_COMMANDS = [argv for argv in EXACT_COMMANDS
                 if "--format" not in argv and argv != ["pq", "--type", "E7"]] + [
    ["graph", "--type", "D5", "--sign", "-+-+-", "--format", "json"],
    ["eta", "--type", "D4", "--format", "json"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_json_output_round_trips_through_the_stdlib(argv):
    with redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0
    out = out.getvalue()
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


# -- CLI contract: every argv gives a result or a stable error, quickly --------

TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D5", "G2", "F4", "E6", "E7",
         "E8", "A12", "A40", "A2000", "A2(1)", "B2(1)", "G2(1)", "Q9", "A0", ""]
SIGNS = ["-", "+", "--", "-+", "+-+", "---", "----", "-++-+-", "", "+x"]
NUMBERS = ["1", "0", "-1", "1,1", "-1,-1", "1e308", "nan", "abc", ""]
JUNK = ["--bogus", "junk", "--", "-x", "--cap=abc"]
PQ_GRID_SHA256 = "5053f4cea8fba88eab03d5f0f6ea7c4d8a886e607f6572b27bb15cb2ed9951d5"


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
