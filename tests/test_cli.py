import json
import math
import time

import pytest

from crossnum import count_cross, info_complexity_bounds, WeightKind
from crossnum.cli import (EXIT_ARGS, EXIT_CHECK, EXIT_OK, EXIT_RESOURCE,
                          build_parser, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count --------------------------------------------------------------------

def test_count_exact_bytes(capsys):
    code, out, err = run(capsys, "count", "--r", "2", "--d", "3")
    assert code == EXIT_OK and err == ""
    assert out == '{"count":"7","d":3,"r":2}\n'


def test_count_brute_crosscheck(capsys):
    code, out, _ = run(capsys, "count", "--r", "6", "--d", "2", "--brute")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["brute"] == payload["count"] and payload["match"] is True


def test_count_metadata_echoes_guard_override(capsys):
    code, out, _ = run(capsys, "count", "--r", "2", "--d", "3",
                       "--max-enum", "50")
    assert code == EXIT_OK
    assert out == '{"count":"7","d":3,"max_enum":50,"r":2}\n'


def test_count_huge_stays_decimal_string(capsys):
    code, out, _ = run(capsys, "count", "--r", "1000000", "--d", "2")
    assert code == EXIT_OK
    assert json.loads(out)["count"] == "51880137"


# -- spectrum -----------------------------------------------------------------

def test_spectrum_sharp_single_bytes(capsys):
    code, out, _ = run(capsys, "spectrum", "--kind", "sharp", "--d", "5",
                       "--s", "2", "--n", "11")
    assert code == EXIT_OK
    assert out == '{"a_n":0.25,"r":2}\n'


def test_spectrum_enumerated_single(capsys):
    code, out, _ = run(capsys, "spectrum", "--kind", "plus", "--d", "2",
                       "--s", "1", "--n", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["a_n"] == pytest.approx(2.0 ** -0.5, rel=1e-15)
    assert payload["kind"] == "plus(1)"
    assert payload["certification"] == "enumerated-certified"
    assert payload["radius"] >= 2


def test_spectrum_intm_requires_m(capsys):
    code, _, err = run(capsys, "spectrum", "--kind", "intm", "--d", "2",
                       "--s", "1", "--n", "2")
    assert code == EXIT_ARGS and "requires --m" in err
    code, out, _ = run(capsys, "spectrum", "--kind", "intm", "--d", "2",
                       "--m", "2", "--n", "2")
    assert code == EXIT_OK
    assert json.loads(out)["a_n"] == pytest.approx(3.0 ** -0.5, rel=1e-15)


def test_spectrum_table_csv_bytes(capsys):
    code, out, _ = run(capsys, "spectrum", "--kind", "sharp", "--d", "2",
                       "--s", "1", "--nmax", "5", "--format", "csv")
    assert code == EXIT_OK
    assert out == "n,sigma,r\n1,1.0,1\n2,0.5,2\n3,0.5,2\n4,0.5,2\n5,0.5,2\n"


def test_spectrum_enumerated_table_csv_bytes(capsys):
    code, out, _ = run(capsys, "spectrum", "--kind", "plus", "--d", "2",
                       "--s", "1", "--nmax", "6", "--format", "csv")
    assert code == EXIT_OK
    assert out == ("n,sigma\n1,1.0\n"
                   + "".join(f"{n},0.7071067811865475\n" for n in range(2, 6))
                   + "6,0.4999999999999999\n")


def test_spectrum_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "spectrum", "--kind", "star", "--d", "2",
                       "--s", "0.7", "--nmax", "9")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kind"] == "star(0.7)" and payload["d"] == 2
    assert payload["certification"] == "enumerated-certified"
    assert payload["radius"] == 3
    values = payload["values"]
    assert len(values) == 9 and values[0] == 1.0
    assert values == sorted(values, reverse=True)


def test_spectrum_rejects_n_and_nmax_together(capsys):
    code, _, err = run(capsys, "spectrum", "--kind", "sharp", "--d", "2",
                       "--s", "1", "--n", "3", "--nmax", "5")
    assert code == EXIT_ARGS and "not allowed with" in err


# -- verify -------------------------------------------------------------------

def test_verify_single_formula_passes(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "sharp-upper-43",
                       "--d", "2", "--s", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True and payload["violations"] == []
    assert payload["checked"] > 900
    assert payload["max_slack"] < 0.0



def test_verify_nothing_checked_is_valid_json(capsys):
    # every grid point lies below the formula's validity range
    code, out, _ = run(capsys, "verify", "--formula", "sharp-lower-43",
                       "--d", "2", "--s", "1", "--rmax", "5")
    assert code == EXIT_OK

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["checked"] == 0 and payload["skipped"] > 0
    assert payload["max_slack"] is None and '"max_slack":null' in out

def test_verify_all_reports_every_pointwise_formula(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "all", "--d", "2",
                       "--s", "1", "--rmax", "500", "--nmax", "10000")
    assert code == EXIT_OK
    payload = json.loads(out)
    names = [record["formula"] for record in payload]
    assert names == ["sharp-upper-43", "sharp-lower-43", "tensor-trick-45",
                     "p-squared", "pre-upper-46", "pre-lower-47",
                     "plus-upper-49", "plus-lower-49", "star-upper-410",
                     "star-lower-410"]
    assert all(record["pass"] for record in payload)


def test_verify_all_with_m_adds_polynomial_family(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "all", "--d", "2",
                       "--s", "1", "--m", "2", "--rmax", "500",
                       "--nmax", "10000")
    assert code == EXIT_OK
    names = {record["formula"] for record in json.loads(out)}
    assert {"intm-upper-413", "intm-lower-413"} <= names


def test_verify_qpt_default_pair(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "qpt", "--s", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["t"] == 8.0
    assert payload["C_t"] == pytest.approx(math.exp(2.0))
    assert payload["slack"] == pytest.approx(-10.696, abs=1e-3)
    code, out, _ = run(capsys, "verify", "--formula", "qpt", "--s", "2",
                       "--d-grid", "1,4", "--eps-grid", "0.5,0.1")
    assert code == EXIT_OK
    assert '"grid":[[0.5,1],[0.1,1],[0.5,4],[0.1,4]]' in out
    assert '"worst_point":[0.5,1]' in out and '"violations":[]' in out
    payload = json.loads(out)
    assert payload["s"] == 2.0 and payload["t"] == 4.0
    assert payload["C_t"] == pytest.approx(math.exp(2.0))
    assert payload["pass"] is True and len(payload["per_point_t"]) == 4


def test_verify_qpt_weak_pair_fails(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "qpt", "--s", "1",
                       "--t", "0.01", "--Ct", "1")
    assert code == EXIT_CHECK
    assert json.loads(out)["pass"] is False


def test_verify_qpt_rejects_bad_eps_grid(capsys):
    code, _, err = run(capsys, "verify", "--formula", "qpt", "--s", "1",
                       "--eps-grid", "0.5,1.5")
    assert code == EXIT_ARGS and "(0, 1)" in err


def test_verify_unknown_formula(capsys):
    code, _, err = run(capsys, "verify", "--formula", "nope", "--d", "2",
                       "--s", "1")
    assert code == EXIT_ARGS and "invalid choice" in err


def test_verify_missing_parameters(capsys):
    code, _, err = run(capsys, "verify", "--formula", "sharp-upper-43",
                       "--s", "1")
    assert code == EXIT_ARGS and "requires --d" in err
    code, _, err = run(capsys, "verify", "--formula", "intm-upper-413",
                       "--d", "2", "--s", "2")
    assert code == EXIT_ARGS and "requires --m" in err


def test_verify_lower_start_past_double_range(capsys):
    # (12 e^2)^160 overflows a double; the start of the range stays exact
    code, _, err = run(capsys, "verify", "--formula", "plus-lower-49",
                       "--d", "160", "--s", "1")
    assert code == EXIT_ARGS and "no valid points below nmax" in err
    code, out, _ = run(capsys, "verify", "--formula", "sharp-lower-43",
                       "--d", "160", "--s", "1", "--rmax", "2")
    assert code == EXIT_OK and '"skipped":2' in out


# -- tract --------------------------------------------------------------------

def test_tract_sharp_bytes(capsys):
    code, out, _ = run(capsys, "tract", "--kind", "sharp", "--s", "1",
                       "--d", "2", "--eps", "0.3333334")
    assert code == EXIT_OK
    assert out == '{"n":"6"}\n'


def test_tract_enclosure_matches_library(capsys):
    code, out, _ = run(capsys, "tract", "--kind", "plus", "--s", "1",
                       "--d", "2", "--eps", "0.2", "--exact")
    assert code == EXIT_OK
    payload = json.loads(out)
    enclosure = info_complexity_bounds(WeightKind.plus(1.0), 0.2, 2, exact=True)
    assert payload == {"exact": str(enclosure.exact),
                       "kind": "plus(1)",
                       "lower": str(enclosure.lower),
                       "upper": str(enclosure.upper)}


def test_tract_exact_bytes_past_three_dimensions(capsys):
    code, out, _ = run(capsys, "tract", "--kind", "plus", "--s", "1",
                       "--d", "4", "--eps", "0.01", "--exact")
    assert code == EXIT_OK
    assert out == ('{"exact":"59042","kind":"plus(1)","lower":"20242",'
                   '"upper":"17487522"}\n')


def test_tract_rejects_eps_outside_unit_interval(capsys):
    code, _, err = run(capsys, "tract", "--kind", "sharp", "--s", "1",
                       "--d", "2", "--eps", "1.5")
    assert code == EXIT_ARGS and "(0, 1)" in err


# -- cross and trace ----------------------------------------------------------

CROSS_2_2 = "k_1,k_2,product\n0,0,1\n-1,0,2\n0,-1,2\n0,1,2\n1,0,2\n"


def test_cross_stdout_bytes(capsys):
    code, out, _ = run(capsys, "cross", "--r", "2", "--d", "2")
    assert code == EXIT_OK and out == CROSS_2_2


def test_cross_out_file_and_summary(capsys, tmp_path):
    target = tmp_path / "points.csv"
    code, out, _ = run(capsys, "cross", "--r", "2", "--d", "2",
                       "--out", str(target))
    assert code == EXIT_OK
    assert target.read_text() == CROSS_2_2
    assert json.loads(out) == {"path": str(target), "rows": "5"}


def test_trace_exact_bytes(capsys):
    code, out, _ = run(capsys, "trace", "--d", "2", "--s", "1",
                       "--rs", "100,1000,10000")
    assert code == EXIT_OK
    assert out == ("n,ratio,constant\n"
                   "1529,2.085274154994305,4.0\n"
                   "24277,2.4043097497645114,4.0\n"
                   "334673,2.6308889903367674,4.0\n")


def test_trace_rejects_radius_one(capsys):
    code, _, err = run(capsys, "trace", "--d", "2", "--s", "1", "--rs", "1,10")
    assert code == EXIT_ARGS and err.startswith("crossnum:")


# -- argument rules -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("spectrum", "--kind", "sharp", "--d", "2", "--n", "5"),
    ("spectrum", "--kind", "sharp", "--d", "2", "--nmax", "3"),
    ("spectrum", "--kind", "plus", "--d", "2", "--n", "5"),
    ("tract", "--kind", "sharp", "--d", "2", "--eps", "0.5"),
    ("tract", "--kind", "plus", "--d", "2", "--eps", "0.5", "--exact"),
    ("verify", "--formula", "p-squared", "--d", "2", "--rmax", "5"),
    ("verify", "--formula", "qpt", "--d-grid", "2"),
    ("trace", "--d", "2", "--rs", "5,10"),
])
@pytest.mark.parametrize("s", ["inf", "nan", "-inf", "1e400"])
def test_non_finite_smoothness_is_argument_error(capsys, argv, s):
    code, out, err = run(capsys, *argv, f"--s={s}")
    assert code == EXIT_ARGS and out == ""
    assert err.startswith("crossnum:") and err.count("\n") == 1


def test_bad_qpt_constants_are_one_line_refusals(capsys):
    for flag, value in (("--t", "inf"), ("--t", "-1"), ("--Ct", "nan"), ("--Ct", "0")):
        code, out, err = run(capsys, "verify", "--formula", "qpt", "--s", "1",
                             "--d-grid", "2", f"{flag}={value}")
        assert code == EXIT_ARGS and out == ""
        assert err.startswith("crossnum:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("spectrum", "--kind", "plus", "--d", "1", "--s", "200", "--n", "100"),
    ("spectrum", "--kind", "star", "--d", "1", "--s", "200", "--n", "100"),
    ("spectrum", "--kind", "intm", "--d", "1", "--m", "200", "--n", "100"),
    ("spectrum", "--kind", "plus", "--d", "1", "--s", "1e300", "--n", "5"),
    ("spectrum", "--kind", "sharp", "--d", "1", "--s", "0.5", "--n", str(2 ** 1100)),
])
def test_values_past_double_range_are_answers(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    value = json.loads(out)["a_n"]
    assert math.isfinite(value) and value >= 0.0


# -- guard plumbing and failure hygiene ----------------------------------------

def test_resource_exit_code(capsys):
    code, _, err = run(capsys, "cross", "--r", "100", "--d", "2",
                       "--max-enum", "10")
    assert code == EXIT_RESOURCE and "resource limit" in err


def test_radius_beyond_double_range_is_resource_limit(capsys):
    for argv in (("tract", "--kind", "sharp", "--d", "2", "--s", "0.1",
                  "--eps", "1e-300"),
                 ("verify", "--formula", "qpt", "--s", "0.1",
                  "--eps-grid", "1e-300"),
                 ("tract", "--kind", "sharp", "--d", "2", "--s", "5e-324",
                  "--eps", "0.5"),
                 ("verify", "--formula", "qpt", "--s", "5e-324",
                  "--d-grid", "2", "--eps-grid", "0.5")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("crossnum: resource limit:") and err.count("\n") == 1


def test_counting_past_the_guard_is_resource_limit(capsys, monkeypatch):
    # each of these counted without end before counting had a guard
    monkeypatch.delenv("CROSSNUM_MAX_ENUM", raising=False)
    for argv in (("count", "--r", "1000000000000", "--d", "3"),
                 ("tract", "--kind", "star", "--d", "2", "--s", "0.01",
                  "--eps", "0.5"),
                 ("verify", "--formula", "qpt", "--s", "1",
                  "--eps-grid", "1e-300", "--d-grid", "2"),
                 ("verify", "--formula", "qpt", "--s", "1e-3", "--d-grid", "2")):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 5.0, argv
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("crossnum: resource limit:") and err.count("\n") == 1


def test_tables_and_grids_past_the_guard_are_resource_limit(capsys, monkeypatch):
    # each of these built its table or grid without end before the guard
    # was checked up front
    monkeypatch.delenv("CROSSNUM_MAX_ENUM", raising=False)
    for argv in (("spectrum", "--kind", "sharp", "--d", "3", "--s", "1",
                  "--nmax", "300000000"),
                 ("verify", "--formula", "plus-upper-49", "--d", "2", "--s", "1",
                  "--nmax", "300000000"),
                 ("verify", "--formula", "p-squared", "--d", "2", "--s", "1",
                  "--rmax", "1000000000")):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 5.0, argv
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("crossnum: resource limit:") and err.count("\n") == 1
    # a capped sharp grid is checked after the clamp of rmax to 2^d
    code, out, _ = run(capsys, "verify", "--formula", "pre-upper-46", "--d", "4",
                       "--s", "1", "--rmax", "1000000000")
    assert code == EXIT_OK and json.loads(out)["pass"] is True


def test_large_dimension_and_order_end_quickly(capsys):
    # only zeros are left to place at r = 1, and an intm weight past double
    # range is inf without summing its powers
    code, out, _ = run(capsys, "cross", "--r", "1", "--d", "2000")
    assert code == EXIT_OK and out.splitlines()[1] == ",".join(["0"] * 2000 + ["1"])
    code, out, _ = run(capsys, "count", "--r", "1", "--d", "5000", "--brute")
    assert code == EXIT_OK and json.loads(out)["match"] is True
    started = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", "--kind", "intm", "--d", "2", "--m", "100000",
                       "--n", "50")
    assert time.perf_counter() - started < 2.0
    assert code == EXIT_OK and json.loads(out)["a_n"] == 0.0


def test_best_first_guard_refusals(capsys):
    # the table length exceeds the guard, or the walk pops more vectors
    # than the guard before it reaches eps
    for argv in (("spectrum", "--kind", "plus", "--d", "2", "--s", "1",
                  "--n", "5000", "--max-enum", "100"),
                 ("tract", "--kind", "plus", "--d", "2", "--s", "1",
                  "--eps", "0.01", "--exact", "--max-enum", "100")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("crossnum: resource limit:") and err.count("\n") == 1

def test_env_guard_honored(capsys, monkeypatch):
    monkeypatch.setenv("CROSSNUM_MAX_ENUM", "10")
    code, _, err = run(capsys, "cross", "--r", "100", "--d", "2")
    assert code == EXIT_RESOURCE and "resource limit" in err
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "cross", "--r", "100", "--d", "2",
                       "--max-enum", "100000")
    assert code == EXIT_OK and out.count("\n") == 1530  # header + C(100, 2)


def test_max_enum_flag_reaches_counting(capsys, monkeypatch, forget):
    # the flag wins over the environment for the counting guard too, both
    # lifting and lowering it
    monkeypatch.setenv("CROSSNUM_MAX_ENUM", "10")
    forget()
    code, _, err = run(capsys, "count", "--r", "200", "--d", "3")
    assert code == EXIT_RESOURCE and "guard is 10" in err
    forget()
    code, out, _ = run(capsys, "count", "--r", "200", "--d", "3",
                       "--max-enum", "100000")
    assert code == EXIT_OK and json.loads(out)["count"] == str(count_cross(200, 3))
    monkeypatch.delenv("CROSSNUM_MAX_ENUM")
    forget()
    code, _, err = run(capsys, "count", "--r", "100000", "--d", "3",
                       "--max-enum", "1000")
    assert code == EXIT_RESOURCE and "guard is 1000" in err
    assert count_cross(100000, 3) > 0  # the default guard allows it


def test_failed_run_leaves_no_out_file(capsys, tmp_path):
    target = tmp_path / "never.json"
    code, _, _ = run(capsys, "tract", "--kind", "intm", "--d", "2",
                     "--eps", "0.5", "--out", str(target))
    assert code == EXIT_ARGS and not target.exists()
    code, _, _ = run(capsys, "cross", "--r", "100", "--d", "2",
                     "--max-enum", "10", "--out", str(target))
    assert code == EXIT_RESOURCE and not target.exists()


def test_out_file_json(capsys, tmp_path):
    target = tmp_path / "count.json"
    code, out, _ = run(capsys, "count", "--r", "2", "--d", "3",
                       "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert target.read_text() == '{"count":"7","d":3,"r":2}\n'


def test_missing_subcommand_is_argument_error(capsys):
    assert main([]) == EXIT_ARGS
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "count" in out and "trace" in out


def test_parser_is_buildable_without_side_effects():
    parser = build_parser()
    args = parser.parse_args(["count", "--r", "3", "--d", "2"])
    assert args.command == "count" and args.r == 3 and args.d == 2
