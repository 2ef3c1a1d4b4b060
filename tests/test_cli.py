import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import closed_forms
from caches import clear_littleq_caches
import littleq
from littleq import Family, IndexSet, verify
from littleq import cli
from littleq.cli import (
    COMMANDS,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    OPTIONS,
    build_parser,
    cmd_construct,
    cmd_table,
    cmd_verify,
    cmd_zeros,
    config_from_args,
    main,
    parse_direct,
    parse_indices,
    parse_rational,
)
from littleq.exact import InvalidParamsError
from littleq.virtual import degree_drop


def make_cfg(argv):
    return config_from_args(build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_rational_exact():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-3/7") == F(-3, 7)
    assert parse_rational("5") == F(5)
    assert parse_rational("1e-24") == F(1, 10 ** 24)
    with pytest.raises(InvalidParamsError):
        parse_rational("x/y")


def test_parse_indices():
    assert parse_indices("") == ()
    assert parse_indices("2") == (2,)
    assert parse_indices("1,3,5") == (1, 3, 5)
    with pytest.raises(InvalidParamsError):
        parse_indices("1,two")


def test_config_round_trip():
    cfg = make_cfg(
        ["verify", "--q", "2/5", "--a", "1/7", "--b", "1/100",
         "--indices", "1,2", "--nmax", "3", "--eps", "1e-20",
         "--xmax", "40", "--prec-bits", "192", "--seed", "9"]
    )
    d = cfg.to_dict()
    assert d["q"] == "2/5" and d["a"] == "1/7" and d["b"] == "1/100"
    assert d["eps"] == "1/100000000000000000000"
    assert d["indices"] == [1, 2] and d["seed"] == 9
    # defaults
    cfg2 = make_cfg(["construct"])
    d2 = cfg2.to_dict()
    assert (d2["q"], d2["a"], d2["b"]) == ("1/2", "1/3", "1/16")
    assert d2["nmax"] == 4 and d2["xmax"] == 60 and d2["prec_bits"] == 256
    assert d2["eps"] == "1/1000000000000000000000000"


def test_run_config_is_an_immutable_value():
    argv = ["verify", "--indices", "1,3", "--b", "1/64"]
    cfg = make_cfg(argv)
    with pytest.raises(AttributeError):
        cfg.nmax = 5
    assert cfg == make_cfg(argv) and hash(cfg) == hash(make_cfg(argv))
    assert cfg.index_set() == IndexSet.of(1, 3) and cfg.params().dmax == 3


def test_abbreviated_option_parses():
    assert make_cfg(["verify", "--fam", "lqLaguerre"]).family == Family.LQ_LAGUERRE


def _option_value(flag):
    keywords = dict(OPTIONS)[flag]
    if "choices" in keywords:
        return st.sampled_from([str(c) for c in keywords["choices"]])
    if keywords.get("type") is int:
        return st.integers(-10 ** 6, 10 ** 6).map(str)
    return st.one_of(st.sampled_from(("", "1/2", "-1/4", "1,3", "1e-24", "a=b")), st.text())


@st.composite
def direct_argv(draw):
    """A command, then options of OPTIONS in random order, repeats allowed,
    each as '--opt value' or '--opt=value', with a valid value."""
    argv, separate_dash = [draw(st.sampled_from(list(COMMANDS)))], False
    for flag in draw(st.lists(st.sampled_from([flag for flag, _ in OPTIONS]), max_size=16)):
        value = draw(_option_value(flag))
        if draw(st.booleans()):
            argv.append("%s=%s" % (flag, value))
        else:
            argv += [flag, value]
            separate_dash |= value.startswith("-")
    return argv, separate_dash


@given(direct_argv())
@example((["verify", "--indices=", "--b=-1/4", "--nmax=-1"], False))
@example((["construct", "--q", "1/3", "--q=2/5", "--type", "1", "--type=2"], False))
@example((["table", "--prec-bits", "64", "--suite=shifts", "--out", "csv"], False))
@example((["zeros", "--indices", "", "--eps", "1e-150"], False))
@settings(max_examples=400, deadline=None)
def test_direct_parse_agrees_with_argparse(drawn):
    argv, separate_dash = drawn
    args = parse_direct(argv)
    # argparse reads a separate value starting with '-' as an option or a
    # negative number; the direct parse leaves every such argv to it
    assert (args is None) == separate_dash
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,code,err", [
    ([], EXIT_INVALID, "error: the following arguments are required: command"),
    (["construct", "-h"], EXIT_OK, ""),
    (["verify", "--help"], EXIT_OK, ""),
    (["frobnicate"], EXIT_INVALID, "argument command: invalid choice: 'frobnicate'"),
    (["construct", "--fam", "lqLaguerre", "--nmax", "1"], EXIT_OK, ""),
    (["construct", "--fam=lqLaguerre", "--nmax", "1"], EXIT_OK, ""),
    (["construct", "--bogus", "1"], EXIT_INVALID, "unrecognized arguments: --bogus 1"),
    (["construct", "stray"], EXIT_INVALID, "unrecognized arguments: stray"),
    (["construct", "--q", "1/2", "stray", "--nmax", "1"], EXIT_INVALID,
     "unrecognized arguments: stray"),
    (["construct", "--q"], EXIT_INVALID, "argument --q: expected one argument"),
    (["construct", "--q", "--nmax", "1"], EXIT_INVALID, "argument --q: expected one argument"),
    (["construct", "--nmax", "-1"], EXIT_INVALID, "invalid input: nmax must be >= 0"),
    (["construct", "--b", "-1/4"], EXIT_INVALID, "argument --b: expected one argument"),
    (["construct", "--nmax", "two"], EXIT_INVALID, "argument --nmax: invalid int value: 'two'"),
    (["construct", "--type=3"], EXIT_INVALID, "argument --type: invalid choice: 3"),
    (["construct", "--family", "lqHahn"], EXIT_INVALID,
     "argument --family: invalid choice: 'lqHahn'"),
    (["construct", "--", "--nmax", "1"], EXIT_INVALID, "unrecognized arguments"),
])
def test_declined_argv_is_decided_by_argparse(monkeypatch, argv, code, err):
    assert parse_direct(argv) is None
    got = _run_main(argv)
    assert got[0] == code and err in got[2]
    # main before the direct parse: argparse decides every argv
    monkeypatch.setattr(cli, "parse_direct", lambda argv: None)
    assert _run_main(argv) == got


TYPE1_POINT = ["--family", "lqJacobi", "--type", "1", "--q", "1/2", "--a", "1/64", "--b", "1/3",
               "--indices", "2,3,4", "--nmax", "8"]


def test_cold_command_builds_no_parser():
    # argparse's parser build costs a cold command about 5 ms, its gettext
    # calls included, which import locale
    src = os.path.dirname(os.path.dirname(littleq.__file__))
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import argparse, contextlib, io\n"
            "def init(self, *args, **kwargs): raise AssertionError('parser built')\n"
            "argparse.ArgumentParser.__init__ = init\n"
            "from littleq.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(%r)\n"
            "print(code, 'locale' in sys.modules)" % (src, ["construct", *TYPE1_POINT]))
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "0 False\n", "")


@pytest.mark.parametrize("argv,code", [
    (["table", "--indices", "1,2", "--nmax", "2"], EXIT_OK),
    (["--help"], EXIT_OK),
])
def test_main_reads_sys_argv(capsys, monkeypatch, argv, code):
    # the console script calls main() with no argument
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["littleq", *argv])
    assert main() == code
    assert capsys.readouterr() == expected


# help and usage text, recorded before the commands shared one parent parser;
# the layout is that of Python 3.11's argparse at 80 columns
argparse_layout = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                     reason="argparse lays out help per Python version")


@argparse_layout
@pytest.mark.parametrize("argv,digest", [
    (["--help"], "92faa41ce4b9d9302bb55d55b3e5265a2da0c5d6d154ad2ee7387111a138627b"),
    (["verify", "--help"], "668e05e893a3a79c0bcbc6b3f42c3b6f91aa787f5c4b9ca10819f0d9bdc39179"),
])
def test_help_text_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and hashlib.sha256(out.encode()).hexdigest() == digest


@argparse_layout
def test_usage_error_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["construct", "--type", "3"]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "usage: littleq construct [-h] [--family {lqJacobi,lqLaguerre}] [--type {1,2}]\n"
        "                         [--q Q] [--a A] [--b B] [--indices INDICES]\n"
        "                         [--nmax NMAX] [--eps EPS] [--xmax XMAX]\n"
        "                         [--prec-bits PREC_BITS] [--out {json,csv}]\n"
        "                         [--seed SEED]\n"
        "                         [--suite {all,base,virtual,deformed,shifts,structural,"
        "reflection,ortho,zeros,positivity}]\n"
        "littleq construct: error: argument --type: invalid choice: 3 (choose from 1, 2)\n")


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_empty_set_level_zero():
    text, code = cmd_construct(make_cfg(["construct", "--indices", "", "--nmax", "0"]))
    assert code == EXIT_OK
    obj = json.loads(text)
    assert obj["polynomials"][0]["coeffs"] == [["1", "1"]]
    assert obj["D"] == []


def test_construct_golden_d2():
    text, code = cmd_construct(make_cfg(["construct", "--indices", "2", "--nmax", "1"]))
    assert code == EXIT_OK
    obj = json.loads(text)
    q, a, b = F(1, 2), F(1, 3), F(1, 16)
    p0 = obj["polynomials"][0]
    assert p0["n"] == 0 and p0["basis"] == "eta" and p0["ell_D"] == 2
    assert len(p0["coeffs"]) == 3
    coeffs = [F(int(n), int(d)) for n, d in p0["coeffs"]]
    # evaluate the emitted eta-polynomial against the closed form
    for x in range(0, 6):
        eta = 1 - q ** x
        val = sum(c * eta ** k for k, c in enumerate(coeffs))
        assert val == closed_forms.type2_d2_n0(q, a, b, x)
    assert all(entry["value_at_0"] == "1/1" for entry in obj["polynomials"])
    assert obj["denominator"]["value_at_minus1"] == "1/1"


def test_construct_byte_identical_reruns():
    argv = ["construct", "--indices", "1,2", "--nmax", "3", "--seed", "5"]
    t1, _ = cmd_construct(make_cfg(argv))
    t2, _ = cmd_construct(make_cfg(argv))
    assert t1 == t2


def test_construct_type_i_unnormalized():
    text, code = cmd_construct(
        make_cfg(["construct", "--type", "1", "--a", "1/10", "--indices", "2",
                  "--nmax", "1"])
    )
    assert code == EXIT_OK
    obj = json.loads(text)
    assert obj["normalized"] is False
    assert "denominator" not in obj


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_pass_and_exit_code():
    text, code = cmd_verify(make_cfg(["verify", "--indices", "2", "--nmax", "2"]))
    assert code == EXIT_OK
    obj = json.loads(text)
    assert obj["overall"] == "pass"
    assert obj["config"]["command"] == "verify"


def test_verify_reflection_suite():
    text, code = cmd_verify(
        make_cfg(["verify", "--indices", "2", "--suite", "reflection"])
    )
    assert code == EXIT_OK
    obj = json.loads(text)
    statuses = {c["name"]: c["status"] for c in obj["checks"]}
    assert statuses["reflection_n0_matches"] == "pass"
    assert statuses["reflection_n1_matches"] == "pass"
    assert statuses["reflection_n2_differs"] == "pass"


def test_verify_type_ii_a_equals_q(capsys):
    # the tilde-shifted point of the type I/II relation sits on a pole there
    argv = ["verify", "--family", "lqLaguerre", "--type", "2", "--q", "1/2",
            "--a", "1/2", "--indices", "1,2"]
    assert main(argv) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["overall"] == "pass"
    statuses = {c["name"]: c["status"] for c in obj["checks"]}
    assert statuses["structural_type_i_ii_single_index"] == "warn"


def test_main_exit_codes(capsys):
    assert main(["verify", "--indices", "2", "--suite", "positivity"]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--indices", "2", "--b", "1/4"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "invalid input" in err
    assert main(["construct", "--q", "0/1"]) == EXIT_INVALID
    capsys.readouterr()
    assert main(["construct", "--q", "nonsense"]) == EXIT_INVALID
    capsys.readouterr()
    assert main(["zeros", "--indices", "2", "--nmax", "2"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,needs",
    [
        # dmax = 0 tests the undeformed bound 1, dmax >= 1 the bound q^(1+dmax)
        (["construct", "--type", "1", "--a", "3/2", "--indices="], "needs 0 < a < 1"),
        (["construct", "--type", "2", "--b", "3/2", "--indices="], "needs b < 1 "),
        (["construct", "--type", "1", "--a", "3/2", "--indices=1"],
         "needs 0 < a < q^(1+dmax)"),
        (["construct", "--type", "2", "--b", "3/2", "--indices=1"], "needs b < q^(1+dmax) "),
    ],
)
def test_range_messages_state_the_tested_bound(capsys, argv, needs):
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and needs in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--eps", "0"],
        ["verify", "--xmax", "5"],
        ["verify", "--prec-bits", "64"],
        ["table", "--eps", "0"],
        ["construct", "--nmax", "-1"],
        ["verify", "--nmax", "-1"],
        ["table", "--nmax", "-1"],
        ["zeros", "--nmax", "-1"],
        ["zeros", "--prec-bits", "64"],
    ],
)
def test_main_rejects_invalid_numeric_options(capsys, argv):
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and "invalid input" in err


@pytest.mark.parametrize("command", ["construct", "table", "zeros"])
@pytest.mark.parametrize(
    "point",
    [
        # b = a q^5: two type II virtual states become linearly dependent
        ["--type", "2", "--q", "5/7", "--a", "7/10", "--b=625/4802", "--indices", "1,3"],
        # b = a q^-4, type I
        ["--type", "1", "--q", "2/3", "--a", "16/135", "--b=3/5", "--indices", "1,2"],
    ],
    ids=["type2-b=aq^5", "type1-b=aq^-4"],
)
def test_parameter_coincidence_is_invalid_input(capsys, command, point):
    argv = [command, "--family", "lqJacobi", *point, "--nmax", "2"]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: parameter coincidence: ")
    assert "Casoratian is identically zero" in err


@pytest.mark.parametrize("ctype", ["1", "2"])
def test_table_at_ab_equals_q_passes(capsys, ctype):
    # at a b = q the closed-form norm ratio of level 0 reads 0/0
    argv = ["table", "--type", ctype, "--q", "1/4", "--a", "1/2", "--b", "1/2",
            "--indices=", "--nmax", "2"]
    assert main(argv) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["status"] for r in rows] == ["pass"] * 3


def test_verify_blimit_at_the_empty_index_set_is_decided_at_b_zero(capsys):
    # D = {} and nmax = 0: level_op is the identity at both points
    assert main(["verify", "--indices=", "--nmax", "0"]) == EXIT_OK
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    blimit = checks["structural_blimit_linear"]
    assert blimit == {"name": "structural_blimit_linear", "status": "pass", "witness":
                      "every n: the level at b = 0 is the little q-Laguerre level,"
                      " no b-divisor 0 there"}


def test_verify_at_b_equals_a_q2_reports_the_deformed_suite(capsys):
    # b = a q^2 makes xi_leading(1), a divisor of the denominator's leading
    # coefficient, vanish
    argv = ["verify", "--indices", "1,2", "--a", "1/8", "--b", "1/32", "--nmax", "1"]
    assert main(argv) == EXIT_VERIFY_FAIL
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["deformed_suite_error"]["witness"] == (
        "InvalidParamsError: degenerate leading-coefficient product")


COINCIDENCE_SETS = [d for r in range(4) for d in itertools.combinations((1, 2, 3), r)]


@st.composite
def coincidence_argv(draw):
    """A command at a small point on a coincidence grid: b = a q^m, a b = q
    or b = q^j, with D a subset of {1, 2, 3} and nmax <= 2."""
    q = F(1, draw(st.integers(2, 4)))
    a = draw(st.sampled_from((q, q * q, F(1, 2), F(1, 3), F(3, 4), F(1, 8), F(1, 64))))
    k = draw(st.integers(-3, 4))
    b = draw(st.sampled_from((a * q ** k, q / a, q ** k)))
    d = draw(st.sampled_from(COINCIDENCE_SETS))
    return [draw(st.sampled_from(("construct", "verify", "table", "zeros"))),
            "--family", draw(st.sampled_from(("lqJacobi", "lqLaguerre"))),
            "--type", draw(st.sampled_from(("1", "2"))), "--q", str(q), "--a", str(a),
            "--b=%s" % b, "--indices=%s" % ",".join(map(str, d)),
            "--nmax", str(draw(st.integers(0, 2)))]


B_IS_A_Q2 = ["--q", "1/2", "--a", "1/8", "--b", "1/32", "--indices", "1,2", "--nmax", "1"]
# b = q^3 at dmax 1 and b = q^2 at D = {}: valid points whose probes past dmax
# meet a pole, so every command exits 0
POLES_PAST_DMAX = [["--q", "1/2", "--a", "1/3", "--b", "1/8", "--indices", "1", "--nmax", "2"],
                   ["--q", "1/2", "--a", "1/3", "--b", "1/4", "--indices=", "--nmax", "2"]]


@given(coincidence_argv())
@example(["table", "--q", "1/4", "--a", "1/2", "--b", "1/2", "--indices=", "--nmax", "2"])
@example(["verify", "--indices=", "--nmax", "0"])
@example(["verify", *B_IS_A_Q2])
@example(["construct", *B_IS_A_Q2])
@example(["table", *B_IS_A_Q2])
@example(["zeros", *B_IS_A_Q2])
@example(["construct", *POLES_PAST_DMAX[0]])
@example(["verify", *POLES_PAST_DMAX[0]])
@example(["table", *POLES_PAST_DMAX[0]])
@example(["zeros", *POLES_PAST_DMAX[0]])
@example(["construct", *POLES_PAST_DMAX[1]])
@example(["verify", *POLES_PAST_DMAX[1]])
@example(["table", *POLES_PAST_DMAX[1]])
@example(["zeros", *POLES_PAST_DMAX[1]])
@settings(max_examples=400, deadline=None)
def test_coincidence_grids_exit_with_a_documented_code(argv):
    # anything main does not map to an exit code propagates and fails here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_INVALID, EXIT_INTERNAL)
    if argv[1:] in POLES_PAST_DMAX:
        assert code == EXIT_OK
    # a collapsed virtual-state degree (b = a q^m) fails verify and is invalid
    # input for every other command
    try:
        drop = degree_drop(make_cfg(argv).params())
    except InvalidParamsError:
        drop = None
    if drop is not None:
        assert code == (EXIT_VERIFY_FAIL if argv[0] == "verify" else EXIT_INVALID)


def test_main_rejects_unknown_flag(capsys):
    assert main(["verify", "--bogus", "1"]) == EXIT_INVALID
    capsys.readouterr()


def test_main_rejects_format_mismatch(capsys):
    assert main(["construct", "--out", "csv"]) == EXIT_INVALID
    capsys.readouterr()
    assert main(["zeros", "--out", "json"]) == EXIT_INVALID
    capsys.readouterr()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_prints_the_one_format_of_its_row(command):
    argv = [command, "--indices", "1", "--nmax", "1"]
    native = COMMANDS[command][1]
    code, out, err = _run_main(argv)
    assert code == EXIT_OK and err == ""
    if native == "json":
        json.loads(out)
    else:
        assert len(next(csv.reader(io.StringIO(out)))) > 1
    assert _run_main(argv + ["--out", native]) == (code, out, err)
    other = "csv" if native == "json" else "json"
    assert _run_main(argv + ["--out", other]) == (
        EXIT_INVALID, "", "invalid input: %s emits %s output only\n" % (command, native))


def test_negative_b_equals_syntax():
    # argparse needs the --b=-1/4 form for negative rationals
    cfg = make_cfg(["verify", "--indices", "2", "--b=-1/4", "--nmax", "2"])
    assert cfg.b == F(-1, 4)


# sha256 of the full stdout; witness and bound strings are part of the pin
GOLDEN_STDOUT = [
    (["verify", "--indices", "1,2", "--nmax", "3", "--seed", "3"],
     "14c9c63c8baaf10e29a0f06d60bb0cce035dad03bd5f1691b9e8b5aaf271415e"),
    (["verify", "--type", "1", "--a", "1/12", "--indices", "1,2", "--nmax", "2"],
     "729497959589912487344928ca1cea1560622b2a34630cb20f00dc3fc0c6609a"),
    # base-only point: the virtual-range suites are skipped with warnings
    (["verify", "--indices", "", "--b", "3/4", "--nmax", "2"],
     "ea84e8dae33261977d993b3522e10e96f6bb0cbb2cb9dfde90f86256843b26b4"),
    (["table", "--indices", "1,2", "--nmax", "3"],
     "d798d7df4c12449103514cc6fa6726289d6ffef1bc23011b477650676f4e5b63"),
    (["zeros", "--indices", "1,2", "--nmax", "3"],
     "2b9b20a95f0f0c4925058ae386c27ba1ec07a898fd35386f765e3b7be514658a"),
    # q numerators other than 1, so every power of r in the exact ring shows
    (["construct", "--q", "3/5", "--a", "1/3", "--b", "1/50", "--indices", "1,2",
      "--nmax", "4"],
     "2b3c4d9e0d71d7a38655914d0be35224e9ec3b92a9e3a105376035e49f417dc7"),
    (["verify", "--q", "3/5", "--a", "1/3", "--b", "1/50", "--indices", "1,2",
      "--nmax", "4"],
     "84fba69f493953c19b9083bfd0579521062b907db46be8d1979ba7a96341e036"),
    (["construct", "--type", "1", "--q", "2/3", "--a", "1/20", "--b", "1/5",
      "--indices", "1,2", "--nmax", "3"],
     "ffc8c96c85bad01689c381097aadc808055b10881d80a654438c32158eb3ead5"),
    # the heaviest sweep point: ortho witness floats at a q whose denominator is 4
    (["verify", "--q", "1/4", "--a", "3/7", "--b", "11/832", "--indices", "2",
      "--nmax", "4"],
     "5dd3e189bfa81ce87cfab6693fe39a55b0b4f748c25afa6ac917d992992747cb"),
    # type I table floats and type I little q-Laguerre verify
    (["table", "--type", "1", "--a", "1/12", "--indices", "1,2", "--nmax", "3"],
     "086bd9b8678554dea98c82209aea323f3f9b720c913a154ba88a249d1cfdbbff"),
    (["table", "--family", "lqLaguerre", "--type", "1", "--a", "1/40",
      "--indices", "1,2", "--nmax", "3"],
     "5babcbf0607002eb4e9f6ff648c9b05cb132c70e1c1ef75cf61cbd14351771a8"),
    (["verify", "--family", "lqLaguerre", "--type", "1", "--a", "1/40",
      "--indices", "1,2", "--nmax", "3"],
     "153fef1e4e8c4ea6ed58638fdbb9e1087f1e07fca40ecc82d8ff8d07f5368bfa"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, argv, digest):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout at eps = 1e-150: no row reads eps, so only the config echo of
# verify differs from a run at the default eps
TINY_EPS = [
    (["verify", "--indices", "2", "--nmax", "2", "--suite", "ortho", "--eps", "1e-150"],
     "039e74198ed766d5e1519ac302c14bcf38aab047f711d97b5054f40e07044d2a"),
    (["table", "--indices", "2", "--nmax", "2", "--eps", "1e-150"],
     "cb0b7fe4e98587f2772ff1ac35fb041566af0da1aaf1a5f1e3f4e5e3e3dd3771"),
]


@pytest.mark.parametrize("argv,digest", TINY_EPS, ids=[argv[0] for argv, _ in TINY_EPS])
def test_output_does_not_follow_eps(capsys, argv, digest):
    assert main(argv) == EXIT_OK
    tiny = capsys.readouterr().out
    assert hashlib.sha256(tiny.encode()).hexdigest() == digest
    assert main(argv[:-2]) == EXIT_OK
    default = capsys.readouterr().out
    if argv[0] == "table":
        assert tiny == default
    else:
        tiny, default = json.loads(tiny), json.loads(default)
        assert tiny.pop("config")["eps"] == "1/" + "1" + "0" * 150
        assert default.pop("config")["eps"] == "1/" + "1" + "0" * 24
        assert tiny == default


# a = 99/100 at q = 9/10: the terms shrink too slowly for a geometric
# window in 500 terms, which the tail estimate refused; certificates need none
SLOW_POINT = ["--family", "lqLaguerre", "--type", "2", "--q", "9/10", "--a", "99/100",
              "--indices", "1", "--nmax", "2"]


def test_table_refuses_a_sum_without_a_geometric_window(capsys):
    assert main(["table", *SLOW_POINT]) == EXIT_OK
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert err == "" and [r["status"] for r in rows] == ["pass"] * 3
    assert all(r["snn_over_s00"] for r in rows)


def test_verify_reports_a_sum_without_a_geometric_window(capsys):
    assert main(["verify", *SLOW_POINT, "--suite", "ortho"]) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 6 and {c["status"] for c in checks} == {"pass"}


# the bytes printed at q = a = 9/10, where the terms shrink slowly
NEAR_ONE = (["table", "--family", "lqLaguerre", "--type", "2", "--q", "9/10", "--a", "9/10",
             "--indices", "1", "--nmax", "2"],
            "829234bcbc6e7463a804318c0bc269c968c1cb3b561f968efe8e5e805f29597f")


def test_table_near_q_one_prints_the_recorded_bytes(capsys):
    argv, digest = NEAR_ONE
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


WORKLOAD_POINTS = {
    "deep": ["--family", "lqJacobi", "--type", "2", "--q", "1/2", "--a", "1/3",
             "--b", "1/4096", "--indices", "1,3,5,7", "--nmax", "8"],
    "type1": ["--family", "lqJacobi", "--type", "1", "--q", "1/2", "--a", "1/64",
              "--b", "1/3", "--indices", "2,3,4", "--nmax", "8"],
}


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize("point", sorted(WORKLOAD_POINTS))
def test_workload_sums_build_no_exact_term(capsys, monkeypatch, command, point):
    # every row is decided by a certificate: no lattice term is summed
    certificates = []
    pair_sum = verify.OrthogonalityData.pair_sum

    def recorded(data, n, m):
        certificates.append(pair_sum(data, n, m))
        return certificates[-1]

    monkeypatch.setattr(verify.OrthogonalityData, "pair_sum", recorded)
    assert main([command, *WORKLOAD_POINTS[point]]) == EXIT_OK
    assert capsys.readouterr().out
    assert len(certificates) == (44 if command == "verify" else 9)
    assert {(c.ok, c.truncation_x) for c in certificates} == {(True, -1)}


@pytest.mark.parametrize("point", sorted(WORKLOAD_POINTS))
def test_table_and_verify_share_one_certificate_system(capsys, point):
    # table prints the same bytes with cold caches and after verify, and
    # verify reports the same before and after table; the second pass builds
    # the certificate system of the point once
    def out(command):
        assert main([command, *WORKLOAD_POINTS[point]]) == EXIT_OK
        return capsys.readouterr().out

    clear_littleq_caches()
    cold_table = out("table")
    clear_littleq_caches()
    first_verify, warm_table, second_verify = out("verify"), out("table"), out("verify")
    assert warm_table == cold_table and second_verify == first_verify
    info = verify.orthogonality_data.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_absolute_s00_is_a_ratio_row_near_q_one(capsys):
    # at q = 9/10, S_00 over the undeformed sum is certified to equal its
    # exact target
    argv = ["verify", "--q", "9/10", "--a", "1/3", "--indices", "1", "--nmax", "1",
            "--suite", "ortho"]
    assert main(argv) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    check = {c["name"]: c for c in checks}["ortho_absolute_s00"]
    assert check["status"] == "pass"
    assert check["witness"].startswith("S_00/S''_00 ")


# q = 99/100: every ortho row passes, the absolute one too
Q_99 = [
    ["--family", "lqLaguerre", "--type", "2", "--q", "99/100", "--a", "1/2", "--indices", "1"],
    ["--family", "lqJacobi", "--type", "2", "--q", "99/100", "--a", "1/2", "--b", "1/2",
     "--indices", "1"],
    ["--family", "lqLaguerre", "--type", "1", "--q", "99/100", "--a", "1/4", "--indices", "1"],
]


@pytest.mark.parametrize("point", Q_99, ids=[" ".join(p[:6]) for p in Q_99])
def test_ortho_suite_passes_at_q_99_100(capsys, point):
    assert main(["verify", *point, "--suite", "ortho"]) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "ortho_absolute_s00" in {c["name"] for c in checks}


def test_verify_byte_identical():
    argv = ["verify", "--indices", "2", "--nmax", "2", "--seed", "3"]
    t1, _ = cmd_verify(make_cfg(argv))
    t2, _ = cmd_verify(make_cfg(argv))
    assert t1 == t2


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def test_zeros_csv_rows():
    text, code = cmd_zeros(make_cfg(["zeros", "--indices", "2", "--nmax", "3"]))
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["index", "real", "imag", "physical", "precision_dps"]
    body = rows[1:]
    assert len(body) == 5  # degree ell_D + n = 2 + 3
    assert sum(int(r[3]) for r in body) == 3
    reals = [float(r[1]) for r in body]
    assert reals == sorted(reals)
    assert text.endswith("\n") and "\r" not in text


def test_zeros_single_root_base_system():
    text, _ = cmd_zeros(make_cfg(["zeros", "--indices", "", "--nmax", "1"]))
    body = list(csv.reader(io.StringIO(text)))[1:]
    assert len(body) == 1 and int(body[0][3]) == 1


def test_zeros_byte_identical():
    argv = ["zeros", "--indices", "2", "--nmax", "3"]
    t1, _ = cmd_zeros(make_cfg(argv))
    t2, _ = cmd_zeros(make_cfg(argv))
    assert t1 == t2


@pytest.mark.parametrize("argv, flags", [
    (["--q", "1/2", "--a", "1/3", "--b", "1/4096", "--indices", "1,3,5,7"],
     "001100111111000000"),
    (["--type", "1", "--q", "1/2", "--a", "1/64", "--b", "1/3", "--indices", "2,3,4"],
     "00011111111000"),
], ids=["deep", "type1"])
def test_zeros_at_128_bits_flags_as_at_256(capsys, argv, flags):
    # level 8 has zeros within 1e-18 of each other near eta = 1/2 and 3/4
    for prec_bits in ("128", "256"):
        assert main(["zeros", *argv, "--nmax", "8", "--prec-bits", prec_bits]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert "".join(r[3] for r in rows) == flags


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_rows_match_exact_ratios():
    text, code = cmd_table(make_cfg(["table", "--indices", "2", "--nmax", "3"]))
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert header == ["n", "snn_over_s00", "exact_num", "exact_den", "status", "precision_dps"]
    assert len(body) == 4
    for r in body:
        assert r[4] == "pass"
        # the certified ratio, printed to 30 digits
        assert abs(F(r[1]) / F(int(r[2]), int(r[3])) - 1) < F(1, 10 ** 29)
    assert body[0][2] == "1" and body[0][3] == "1"


def test_table_leaves_a_row_without_certificate_empty(capsys, monkeypatch):
    # a row whose claim has no certificate prints no ratio, fails and exits 1
    pair_sum = verify.OrthogonalityData.pair_sum
    monkeypatch.setattr(verify.OrthogonalityData, "pair_sum", lambda data, n, m: (
        verify.Certificate(False, False) if n == 2 else pair_sum(data, n, m)))
    assert main(["table", "--indices", "2", "--nmax", "3"]) == EXIT_VERIFY_FAIL
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["snn_over_s00"] == "", r["status"]) for r in rows] == [
        (False, "pass"), (False, "pass"), (True, "fail"), (False, "pass")]


def test_table_byte_identical():
    argv = ["table", "--indices", "2", "--nmax", "2"]
    t1, _ = cmd_table(make_cfg(argv))
    t2, _ = cmd_table(make_cfg(argv))
    assert t1 == t2


def test_cli_import_leaves_numpy_out():
    # numpy would cost import time and memory on every command
    code = "import sys, littleq.cli; sys.exit('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(littleq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_import_leaves_dataclasses_inspect_and_cmath_out():
    # every command starts a fresh interpreter and pays for each module it imports;
    # dataclasses alone pulls in inspect, ast, dis and tokenize
    src = os.path.dirname(os.path.dirname(littleq.__file__))
    code = ("import sys; sys.path.insert(0, %r); import littleq.cli; "
            "print(sorted({'dataclasses', 'inspect', 'cmath'} & set(sys.modules)))" % src)
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_commands_run_without_mpmath():
    # digits and root values are printed by littleq.dyadic; mpmath would cost
    # every cold command its import time
    code = ("import contextlib, io, sys\n"
            "from littleq.cli import main\n"
            "for cmd in ('construct', 'verify', 'zeros', 'table'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main([cmd, '--indices', '1', '--nmax', '2']) == 0, cmd\n"
            "sys.exit('mpmath' in sys.modules)")
    src = os.path.dirname(os.path.dirname(littleq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
