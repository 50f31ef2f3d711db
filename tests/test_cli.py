import hashlib
import os
import subprocess
import sys

import pytest

import regcc
from regcc.automata import builtin_language, builtin_language_names, serialize_dfa
from regcc.cli import main


@pytest.fixture()
def l5_file(tmp_path):
    path = tmp_path / "l5.dfa"
    path.write_text(serialize_dfa(builtin_language("L5")))
    return str(path)


@pytest.fixture()
def z3_file(tmp_path):
    path = tmp_path / "z3.dfa"
    path.write_text(serialize_dfa(builtin_language("Z3_LANG")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dfa_show_round_trip(capsys, l5_file):
    code, out, _ = run(capsys, "dfa", "show", l5_file)
    assert code == 0
    assert out == serialize_dfa(builtin_language("L5"))


def test_dfa_minimize(capsys, l5_file):
    code, out, _ = run(capsys, "dfa", "minimize", l5_file)
    assert code == 0
    assert "states: 5" in out


def test_monoid_compute(capsys, z3_file):
    code, out, _ = run(capsys, "monoid", "compute", z3_file)
    assert code == 0
    assert out.startswith("size: 3\n")
    assert "order:" not in out


def test_monoid_compute_ordered(capsys, z3_file):
    code, out, _ = run(capsys, "monoid", "compute", z3_file, "--ordered")
    assert code == 0
    assert "order:" in out and "ideal:" in out


def test_monoid_compute_ordered_pinned(capsys, tmp_path):
    # every built-in language, byte for byte as printed when the table was
    # built by composing state maps and the order compared state by state
    digest = hashlib.sha256()
    for name in builtin_language_names():
        path = tmp_path / (name + ".dfa")
        path.write_text(serialize_dfa(builtin_language(name)))
        code, out, _ = run(capsys, "monoid", "compute", str(path), "--ordered")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == \
        "2b52a0287db8413e75560235d543ffda63104a9da646640088c8d8be274d2bbe"


def test_classify_pinned(capsys, tmp_path):
    # every built-in language, byte for byte as printed when the maximal
    # subgroups came from a pairwise inverse search and division candidates
    # from walking the powers of each (element, generator) pair
    digest = hashlib.sha256()
    for name in builtin_language_names():
        path = tmp_path / (name + ".dfa")
        path.write_text(serialize_dfa(builtin_language(name)))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == \
        "3c24bc774fabe463d8e547a18740169b32608501acf2f8ea7aadc76de6b28960"


def test_classify_l5(capsys, l5_file):
    code, out, _ = run(capsys, "classify", l5_file)
    assert code == 0
    assert out.startswith("tier: UNRESOLVED_GAP\n")
    assert "certificate: polcom_exclusion u=abab v=bbaa replay=ok" in out


def test_classify_z3(capsys, z3_file):
    code, out, _ = run(capsys, "classify", z3_file)
    assert code == 0
    assert out.startswith("tier: CONSTANT\n")


def test_cc_exact_eq(capsys):
    code, out, _ = run(capsys, "cc", "exact", "EQ", "--n", "2")
    assert code == 0
    assert "bits: 3" in out


def test_cc_cover(capsys):
    code, out, _ = run(capsys, "cc", "cover", "EQ", "--n", "2", "--color", "1")
    assert code == 0
    assert "count: 4" in out


def test_cc_disjoint(capsys):
    code, out, _ = run(capsys, "cc", "disjoint", "EQ", "--n", "1")
    assert code == 0
    assert "count: 4" in out


def test_cc_fooling(capsys):
    code, out, _ = run(capsys, "cc", "fooling", "LT", "--n", "2")
    assert code == 0
    assert "size: 4" in out


def test_cc_ip_requires_q(capsys):
    code, _, err = run(capsys, "cc", "exact", "IP", "--n", "2")
    assert code == 1
    assert "requires --q" in err
    code, out, _ = run(capsys, "cc", "exact", "IP", "--n", "2", "--q", "2")
    assert code == 0


def test_cc_language(capsys, z3_file):
    code, out, _ = run(capsys, "cc", "language", z3_file, "--n", "1")
    assert code == 0
    assert "matrix:" in out and "10\n00" in out


def test_reduce_verify(capsys):
    code, out, _ = run(capsys, "reduce", "verify", "pdisj_to_ipq", "--n-max", "5")
    assert code == 0
    assert "status: PASS" in out


def test_reduce_verify_zero_sided_fails_with_counterexample(capsys):
    code, out, _ = run(capsys, "reduce", "verify", "pip2_to_L5",
                       "--variant", "ZERO_SIDED", "--n-max", "3")
    assert code == 0
    assert "status: FAIL" in out and "counterexample:" in out


@pytest.mark.parametrize("argv", [
    ("reduce", "verify", "lt_to_noncommutative", "--n-max", "0"),
    ("classify", "BA2_LANG", "--max-witness-len", "-2"),
    # commutative: classified CONSTANT before any witness search runs
    ("classify", "Z3_LANG", "--max-witness-len", "-2"),
    ("classify", "Z3_LANG", "--max-witness-len", "99"),
    ("reduce", "verify", "pdisj_to_ipq", "--q", "0"),
    ("reduce", "verify", "pdisj_to_ipq", "--q", "1"),
    ("reduce", "verify", "pdisj_to_ipq", "--q", "-1"),
    ("reduce", "verify", "ipq_to_tq", "--q", "0"),
])
def test_vacuous_bounds_are_domain_errors(capsys, tmp_path, argv):
    for name in ("BA2_LANG", "Z3_LANG"):
        (tmp_path / (name + ".dfa")).write_text(serialize_dfa(builtin_language(name)))
    argv = tuple(str(tmp_path / (a + ".dfa")) if a.endswith("_LANG") else a
                 for a in argv)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")


def test_importing_regcc_leaves_scipy_unloaded():
    # a fresh interpreter: this process may already hold scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(regcc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, regcc, regcc.cli, regcc.reductions; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_reduce_search_nonexistence(capsys):
    code, out, _ = run(capsys, "reduce", "search-nonexistence", "--s-max", "1")
    assert code == 0
    assert "status: NONE_FOUND" in out


def test_builtin_list(capsys):
    code, out, _ = run(capsys, "builtin", "list")
    assert code == 0
    assert "languages: BA2_LANG,L5,U_MINUS_LANG,U_PLUS_LANG,Z3_LANG" in out
    assert "reductions:" in out and "functions:" in out and "monoids:" in out


def test_domain_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.dfa"
    bad.write_text("alphabet: a\nstates: 1\ninitial: 0\naccepting: 0\n")
    code, out, err = run(capsys, "dfa", "show", str(bad))
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "dfa", "show", "/nonexistent.dfa")
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cc", "exact", "EQ"])  # missing --n
    assert info.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["builtin", "list", "--frobnicate"])
    assert info.value.code == 2


def test_output_deterministic(capsys, l5_file):
    _, first, _ = run(capsys, "classify", l5_file)
    _, second, _ = run(capsys, "classify", l5_file)
    assert first == second
    _, one, _ = run(capsys, "cc", "disjoint", "PDISJ", "--n", "2")
    _, two, _ = run(capsys, "cc", "disjoint", "PDISJ", "--n", "2")
    assert one == two


def test_verbose_goes_to_stderr(capsys, z3_file):
    code, out, err = run(capsys, "--verbose", "classify", z3_file)
    assert code == 0
    assert "classifying" in err
    assert "classifying" not in out
