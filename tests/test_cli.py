import csv
import io
import json
from fractions import Fraction as F

import pytest

import closed_forms
from littleq.cli import (
    EXIT_INVALID,
    EXIT_OK,
    build_parser,
    cmd_construct,
    cmd_table,
    cmd_verify,
    cmd_zeros,
    config_from_args,
    main,
    parse_indices,
    parse_rational,
)
from littleq.exact import InvalidParamsError


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


def test_main_rejects_unknown_flag(capsys):
    assert main(["verify", "--bogus", "1"]) == EXIT_INVALID
    capsys.readouterr()


def test_main_rejects_format_mismatch(capsys):
    assert main(["construct", "--out", "csv"]) == EXIT_INVALID
    capsys.readouterr()
    assert main(["zeros", "--out", "json"]) == EXIT_INVALID
    capsys.readouterr()


def test_negative_b_equals_syntax():
    # argparse needs the --b=-1/4 form for negative rationals
    cfg = make_cfg(["verify", "--indices", "2", "--b=-1/4", "--nmax", "2"])
    assert cfg.b == F(-1, 4)


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


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_rows_match_exact_ratios():
    text, code = cmd_table(make_cfg(["table", "--indices", "2", "--nmax", "3"]))
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert header[0] == "n" and len(body) == 4
    for r in body:
        assert r[6] == "pass"
        got = float(r[1])
        exact = int(r[2]) / int(r[3])
        assert abs(got - exact) <= max(1e-15 * abs(exact), float(r[4]))
    assert body[0][2] == "1" and body[0][3] == "1"


def test_table_byte_identical():
    argv = ["table", "--indices", "2", "--nmax", "2"]
    t1, _ = cmd_table(make_cfg(argv))
    t2, _ = cmd_table(make_cfg(argv))
    assert t1 == t2
