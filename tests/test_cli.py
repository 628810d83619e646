import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from unittest import mock

import jsonschema
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cantorapprox import cli, cli_layers, cli_xi, layers, render
from cantorapprox.cli import SUBCOMMAND_OPTIONS, build_parser, main, run_command
from cantorapprox.errors import BUDGET, Budget, InputError, ResourceBudgetError
from oracles import argparse_parser, under_budget

# one fast fixture configuration per subcommand
FIXTURE_ARGVS = {
    "measure": ["measure", "--window", "2/9:4/9"],
    "layer": ["layer", "--psi", "pow:2", "--n", "2"],
    "pairwise": ["pairwise", "--psi", "pow:2", "--m", "1", "--n", "2"],
    "quasi-scan": ["quasi-scan", "--psi", "pow:2", "--nmax", "4"],
    "series": ["series", "--psi", "pow:2", "--f", "pow:gamma", "--nmax", "10"],
    "tail": ["tail", "--psi", "pow:2", "--f", "pow:gamma", "--n0", "2",
             "--nmax", "10"],
    "bc-ratio": ["bc-ratio", "--psi", "pow:2", "--q", "3"],
    "dim-estimate": ["dim-estimate", "--tau", "2", "--n", "2"],
    "xi-build": ["xi-build", "--tau", "3", "--terms", "4"],
    "xi-verify": ["xi-verify", "--tau", "3", "--terms", "4", "--cf-depth", "25"],
    "cf": ["cf", "--x", "golden", "--depth", "10"],
    "exponent": ["exponent", "--x", "xi", "--tau", "3", "--terms", "5",
                 "--depth", "40", "--min-q", "50"],
    "cf-interval": ["cf-interval", "--quotients", "1,1", "--depth", "2"],
    "full-cover": ["full-cover", "--n", "3"],
}


def _schema():
    with resources.files("cantorapprox").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(FIXTURE_ARGVS))
def test_subcommand_deterministic_and_valid(name):
    argv = FIXTURE_ARGVS[name]
    text1, _ = run_command(list(argv))
    text2, _ = run_command(list(argv))
    assert text1 == text2
    report = json.loads(text1)
    jsonschema.validate(report, _schema())
    assert report["command"] == name
    assert report["timing_ms"] is None


@pytest.mark.parametrize("name", sorted(FIXTURE_ARGVS))
def test_csv_deterministic(name):
    argv = FIXTURE_ARGVS[name] + ["--output", "csv"]
    text1, _ = run_command(list(argv))
    text2, _ = run_command(list(argv))
    assert text1 == text2
    header = text1.splitlines()[0]
    assert "," in header or header == ""


def test_series_cli_example():
    text, _ = run_command(["series", "--set", "3:0,2", "--psi", "pow:2", "--f",
                           "pow:0.6309297535714574", "--nmax", "20"])
    rep = json.loads(text)
    assert rep["results"]["verdict"] == "convergent"
    assert rep["results"]["prediction"] == "measure_zero"
    assert rep["results"]["exponent_mode"] == "rational-approximation"
    text_g, _ = run_command(["series", "--set", "3:0,2", "--psi", "pow:2", "--f",
                             "pow:gamma", "--nmax", "10"])
    rep_g = json.loads(text_g)
    assert rep_g["results"]["exponent_mode"] == "exact-gamma"
    # exact mode: S_N = 1 - 2^-N exactly
    last = rep_g["results"]["partial_sums"][-1]
    assert last["exact"] and last["lo"]["rat"] == "1023/1024"


def test_quasi_scan_csv_example():
    text, _ = run_command(["quasi-scan", "--set", "3:0,2", "--psi", "pow:2",
                           "--nmax", "4", "--output", "csv"])
    lines = text.strip().splitlines()
    assert lines[0] == "m,n,case,mu_m,mu_n,mu_mn,rho"
    assert lines[1] == "1,2,ii,1/2,1/4,1/8,1/1"


def test_cf_cli_example():
    text, _ = run_command(["cf", "--x", "golden", "--depth", "10"])
    rep = json.loads(text)
    assert rep["results"]["quotients"] == [1] * 10


def test_cf_interval_golden_verdict():
    text, _ = run_command(["cf-interval", "--quotients", "1,1", "--depth", "2"])
    rep = json.loads(text)
    res = rep["results"]
    assert res["interval"]["lo"]["rat"] == "1/2"
    assert res["interval"]["hi"]["rat"] == "2/3"
    assert res["interval"]["lo_closed"] and not res["interval"]["hi_closed"]
    assert res["disjoint_from_set"] and res["verdict"] == "not_in_set"


def test_symbolic_constants_accepted():
    text, _ = run_command(["cf", "--x", "gamma", "--depth", "8"])
    rep = json.loads(text)
    assert rep["results"]["quotients"][:4] == [1, 1, 1, 2]  # gamma = [0;1,1,1,2,...]


def test_workers_match_sequential():
    seq, _ = run_command(["quasi-scan", "--psi", "pow:2", "--nmax", "5"])
    par, _ = run_command(["quasi-scan", "--psi", "pow:2", "--nmax", "5",
                          "--workers", "2"])
    assert (json.loads(seq)["results"] == json.loads(par)["results"])


@pytest.mark.parametrize("tau", ["3", "5/2"])
def test_xi_verify_reaches_the_last_truncation(tau):
    # the default --cf-depth 60 stops short of the convergent of the
    # sixth truncation; the expansion is deepened until it reaches it
    text, _ = run_command(["xi-verify", "--tau", tau, "--terms", "7"])
    res = json.loads(text)["results"]
    assert [r["s"] for r in res["legendre"]] == [1, 2, 3, 4, 5, 6]
    assert res["legendre"][-1]["verdict"] == "yes"
    assert res["cf_certified_depth"] > 60


def test_xi_verify_keeps_a_sufficient_depth():
    text, _ = run_command(["xi-verify", "--tau", "3", "--terms", "5"])
    assert json.loads(text)["results"]["cf_certified_depth"] == 60


def test_precision_budget_does_not_leak():
    argv = ["cf", "--x", "gamma", "--depth", "30"]
    budgeted, _ = run_command(argv + ["--precision-budget", "1"])
    later, _ = run_command(argv)
    assert BUDGET.get() == Budget()  # steps, bits and cells are all the defaults
    assert (json.loads(budgeted)["results"]["certified_depth"]
            < json.loads(later)["results"]["certified_depth"] == 30)
    # nor does the cap of a command that fails
    assert main(["quasi-scan", "--psi", "pow:2", "--nmax", "1",
                 "--precision-budget", "2"]) == 2
    assert BUDGET.get() == Budget()


def test_precision_budget_replaces_only_the_steps():
    # a caller's cell cap holds through --precision-budget
    argv = ["dim-estimate", "--tau", "2", "--n", "12", "--precision-budget", "5"]
    with pytest.raises(ResourceBudgetError, match=r"over the 1,000-cell budget$"):
        under_budget(Budget(cells=1000), run_command, argv)


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("psi=pow:2\nnmax=4\n# comment line\n")
    from_file, _ = run_command(["quasi-scan", "--config", str(cfg)])
    direct, _ = run_command(["quasi-scan", "--psi", "pow:2", "--nmax", "4"])
    assert json.loads(from_file)["results"] == json.loads(direct)["results"]
    # explicit flag wins over the file value
    overridden, _ = run_command(["quasi-scan", "--config", str(cfg), "--nmax", "3"])
    assert len(json.loads(overridden)["results"]["pairs"]) == 3


@pytest.mark.parametrize("spelling", ["--config={}", "--conf {}"])
def test_config_file_is_read_in_every_spelling(spelling, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("nmax=4\n")
    config = spelling.format(cfg).split()
    from_file, _ = run_command(["quasi-scan", "--psi", "pow:2", *config])
    direct, _ = run_command(["quasi-scan", "--psi", "pow:2", "--nmax", "4"])
    assert json.loads(from_file)["results"] == json.loads(direct)["results"]
    # explicit flag wins over the file value, before or after the file
    for argv in (["quasi-scan", "--psi", "pow:2", *config, "--nmax", "3"],
                 ["quasi-scan", "--nmax", "3", "--psi", "pow:2", *config]):
        overridden, _ = run_command(argv)
        assert len(json.loads(overridden)["results"]["pairs"]) == 3


def test_config_booleans_follow_the_option_kind(tmp_path):
    # a FLAG's false is its default, and a TOGGLE's false is --no-FLAG
    cfg = tmp_path / "layer.cfg"
    cfg.write_text("psi=pow:2\nn=3\ncoprime=false\ntiming=false\n")
    from_file, _ = run_command(["layer", "--config", str(cfg)])
    direct, _ = run_command(["layer", "--psi", "pow:2", "--n", "3", "--no-coprime"])
    assert json.loads(from_file)["results"] == json.loads(direct)["results"]
    assert json.loads(from_file)["timing_ms"] is None
    cfg.write_text("psi=pow:2\nn=3\ncoprime=true\ntiming=true\n")
    report = json.loads(run_command(["layer", "--config", str(cfg)])[0])
    assert report["results"]["coprime"] is True
    assert isinstance(report["timing_ms"], int)


def test_a_zero_gamma_coefficient_is_rational_zero():
    for command in (["layer", "--n", "3"], ["series", "--f", "pow:1", "--nmax", "4"]):
        reports = [json.loads(run_command(command + ["--psi", psi])[0])["results"]
                   for psi in ("powlog:2,0*gamma", "powlog:2,0")]
        assert reports[0] == reports[1]


def test_out_path(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["measure", "--window", "0:1", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["results"]["measure"]["exact"]


def test_exit_code_validation_error(capsys):
    assert main(["measure", "--window", "nonsense"]) == 2
    assert main(["cf", "--x", "golden", "--depth", "0"]) == 2
    assert main(["xi-verify", "--tau", "3", "--terms", "4", "--depth", "0"]) == 2
    assert main(["quasi-scan", "--psi", "bogus:1", "--nmax", "3"]) == 2


# {missing} is a directory that does not exist
@pytest.mark.parametrize("argv", [
    ["measure", "--window", "0:1", "--config", "{missing}/scan.cfg"],
    ["measure", "--window", "0:1", "--config={missing}/scan.cfg"],
    ["measure", "--window", "0:1", "--conf", "{missing}/scan.cfg"],
    ["measure", "--window", "0:1", "--out", "{missing}/x.json"],
    ["layer", "--psi", "table:1", "--n", "2"],
    ["series", "--psi", "pow:2", "--f", "table:x=1", "--nmax", "3"],
    ["cf-interval", "--quotients", "a", "--depth", "3"],
    ["cf-interval", "--quotients", "1,,2", "--depth", "3"],
    ["measure", "--window", "0:1", "--precision-budget", "0"],
], ids=" ".join)
def test_bad_input_exits_2_with_an_error_line(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_resource_error(capsys):
    # level 30 would enumerate 2^30 cylinders: over the enumeration budget
    assert main(["dim-estimate", "--tau", "2", "--n", "30"]) == 3


@pytest.mark.parametrize("depth", ["30", "300"])
def test_deep_cf_interval_over_wide_range_answers_fast(depth):
    # [1, ...] is (1/2, 1]: 2^29 cells at level 30 meet it, counted by two
    # rank walks and never listed
    start = time.perf_counter()
    text, _ = run_command(["cf-interval", "--quotients", "1", "--depth", depth])
    assert time.perf_counter() - start < 1.0
    assert json.loads(text)["results"]["disjoint_from_set"] is False


def test_tail_counts_centers_past_the_listing_budget():
    # 5:0,2,3 has 3^n centers at level n, 3^14 > 2^22 of them at level 14;
    # with psi(r) = r^-2 and f(r) = r^gamma each level adds 3^-n
    argv = ["tail", "--set", "5:0,2,3", "--psi", "pow:2", "--f", "pow:gamma",
            "--n0", "1", "--nmax", "16"]
    value = json.loads(run_command(argv)[0])["results"]["value"]
    assert value["exact"] and value["lo"]["rat"] == str(Fraction(1 - Fraction(1, 3 ** 16), 2))


def test_integer_too_long_to_print_exits_3(capsys):
    # the 143rd quotient of this xi has about 14,400 digits; the CSV rows stop
    # at the last printable convergent, so that form still answers
    argv = ["cf", "--x", "xi", "--rule", "factorial", "--terms", "3", "--depth", "160"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{sys.get_int_max_str_digits()} digits" in err
    assert main(argv + ["--output", "csv"]) == 0
    # exponent renders its witness denominators with int_str
    with pytest.raises(ResourceBudgetError, match="int-to-str limit"):
        render.int_str(10 ** sys.get_int_max_str_digits())


# each report holds a radius, a partial sum or a cover mass whose
# denominator, a power of 3 or 2, has more than 4,300 digits
@pytest.mark.parametrize("output", [[], ["--output", "csv"]], ids=["json", "csv"])
@pytest.mark.parametrize("argv", ["layer --psi pow:5000 --n 3",
                                  "series --psi pow:5000 --f pow:1 --nmax 3",
                                  "tail --psi pow:3000 --f pow:1 --n0 1 --nmax 4"])
def test_rational_too_long_to_print_exits_3(argv, output, capsys):
    assert main(argv.split() + output) == 3
    assert capsys.readouterr().err == ("error: the report holds an integer of more than "
                                       f"{sys.get_int_max_str_digits()} digits, the "
                                       "int-to-str limit\n")


def test_deep_cf_interval_over_narrow_range_answers():
    # [1, 1, ...] is [1/2, 2/3): only the cells near 1/2 and 2/3 are visited
    assert main(["cf-interval", "--quotients", "1,1", "--depth", "30"]) == 0
    text, _ = run_command(["cf-interval", "--quotients", "1,1", "--depth", "30"])
    assert json.loads(text)["results"]["disjoint_from_set"] is True


def test_layer_over_a_narrow_window_answers(capsys):
    # the 3^14 level-14 cylinders exceed the enumeration budget; only those
    # near [0, 1/1000] are enumerated
    argv = ["layer", "--set", "5:0,2,3", "--psi", "pow:2", "--n", "14",
            "--window", "0:1/1000"]
    assert main(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["ball_count"] == len(results["centers"]) > 0


@pytest.mark.parametrize("command", ["cf", "exponent"])
@pytest.mark.parametrize("q", ["2", "0", "1", "-1/4"])
def test_sqrt_outside_the_unit_interval_exits_2(command, q, capsys):
    assert main([command, "--x", f"sqrt:{q}", "--depth", "10"]) == 2
    assert capsys.readouterr().err == "error: sqrt:Q needs 0 < Q < 1\n"


# sha256 of the whole JSON report, computed when each layer endpoint's CDF
# value came from its own `cantor_cdf` walk
PINNED_REPORTS = {
    "layer --set 5:0,2,3 --psi pow:2 --n 14 --window 0:1/1000":
        "e77e065f759e68a4c9e33c1a0e2fa82a870aaeac08ac2a0fdb69bdefcabfa361",
    "quasi-scan --psi pow:2 --nmax 12":
        "39d83372a6c7ae8dcceb4069a11f6fba48af2bc0e51f2455ea5f4833dd978c70",
    "bc-ratio --psi pow:2 --q 12":
        "5a10bd270dd5e779b73bdfc8bc766472943cf61626cbd84fdadebca0d8afc2db",
}


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS))
def test_layer_reports_match_their_pinned_hashes(argv):
    text, _ = run_command(argv.split())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[argv]


# sha256 of the whole report of continued-fraction, exponent and xi commands
# the benchmark does not run, computed when each log ratio was a `Fraction`
# interval quotient refined from level 0, and each certified quotient a
# `Fraction` Euclid step (dim-estimate --tau 3/2 --n 11 is pinned below).
# The JSON report of the factorial cf holds a quotient past the int-to-str
# limit, so its CSV is pinned
PINNED_ENCLOSURE_REPORTS = {
    "cf --x xi --rule factorial --terms 3 --depth 200 --output csv":
        "88b9cfc787e74f14ca02923b10ec613ce2025a8f7730306ba0732bf164ef0c9e",
    "exponent --x xi --tau 3 --terms 6 --depth 120 --min-q 50":
        "d6effb1e4ec8bd0d34736bce1d101b2e06dbadcc03128d353474497f0dc0e764",
    "cf --x gamma --set 5:0,2,3 --depth 60":
        "d95663abc88bb7eef4fda3b6634a8596d840adaf76fbfe385ddf49c3282d8a5e",
    "xi-verify --tau 3 --terms 6":
        "3d7a0558d0c69394cce6ae5d70a2d5337f59b25a34744755251097227edb7354",
}


@pytest.mark.parametrize("argv", sorted(PINNED_ENCLOSURE_REPORTS))
def test_enclosure_reports_match_their_pinned_hashes(argv):
    text, _ = run_command(argv.split())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ENCLOSURE_REPORTS[argv]


def test_deep_factorial_cf_report_is_past_the_print_limit():
    with pytest.raises(ResourceBudgetError, match="int-to-str limit"):
        run_command("cf --x xi --rule factorial --terms 3 --depth 200".split())


# sha256 of the whole JSON report, computed when the box count tested every
# cell near every ball on Fractions, full-cover merged Fraction balls, and
# cf-interval ran beside the continued-fraction expansion
PINNED_CYLINDER_REPORTS = {
    "dim-estimate --tau 3/2 --n 11":
        "5b5247537dc2bd88ec62dd6983548e015d70473fc0f6fdad0a1ec3312faaa4cf",
    "dim-estimate --tau 3 --n 10 --no-coprime":
        "24a4e5c614c9046a3dd6696346904c519b7bcc44da5cebcf20a0e3789b70d5a4",
    "full-cover --n 10 --window 1/7:6/7":
        "616a8c8c6894e103d7452242472ac6b1941b99fb2a9ff23ef744190304081f42",
    "full-cover --set 5:1,3 --n 6":
        "6cb4b725241d8280dd629d37866f574a200692e0a330c4dda78c5f6ee469d5f1",
    "cf-interval --quotients 1,1,1,1 --depth 18":
        "e5838cd266562e8efaa55ba7977759d101cad9c447edfede5c7f54e143e73780",
}


@pytest.mark.parametrize("argv", sorted(PINNED_CYLINDER_REPORTS))
def test_cylinder_reports_match_their_pinned_hashes(argv):
    text, _ = run_command(argv.split())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CYLINDER_REPORTS[argv]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", sorted(FIXTURE_ARGVS))
def test_one_subparser_parses_like_the_full_parser(name):
    assert set(FIXTURE_ARGVS) == set(SUBCOMMAND_OPTIONS)
    argv = FIXTURE_ARGVS[name]
    for sample in (argv, argv + ["--set", "5:0,2,3", "--output", "csv", "--timing"]):
        assert build_parser(name).parse_args(sample) == build_parser().parse_args(sample)


def test_run_command_builds_only_the_named_subparser():
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
        run_command(["full-cover", "--n", "3"])
    built.assert_called_once_with("full-cover")


@pytest.mark.parametrize("argv", [["--help"], ["frobnicate"], []], ids=str)
def test_help_and_bad_commands_list_every_subcommand(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    printed = capsys.readouterr()
    assert "{" + ",".join(SUBCOMMAND_OPTIONS) + "}" in printed.out + printed.err


def test_pairwise_measures_each_layer_once_and_layer_parses_psi_once():
    with mock.patch.object(cli_layers, "layer_measure",
                           wraps=cli_layers.layer_measure) as measured:
        run_command(["pairwise", "--psi", "pow:2", "--m", "2", "--n", "4"])
    assert measured.call_count == 2
    with mock.patch.object(cli_layers, "parse_psi", wraps=cli_layers.parse_psi) as parsed:
        run_command(["layer", "--psi", "pow:2", "--n", "4"])
    assert parsed.call_count == 1


def test_each_legendre_bound_and_case_split_radius_is_decided_once():
    with mock.patch.object(cli_xi, "legendre_is_convergent",
                           wraps=cli_xi.legendre_is_convergent) as decided:
        run_command(["xi-verify", "--tau", "3", "--terms", "6"])
    assert decided.call_count == 5  # one per truncation s = 1..5
    with mock.patch.object(layers, "psi_value", wraps=layers.psi_value) as evaluated:
        run_command(["quasi-scan", "--psi", "pow:2", "--nmax", "8"])
    assert evaluated.call_count == 8  # one per layer, none per pair


def test_series_stops_at_the_first_missing_table_value():
    # psi(3) = 1/9 and psi(9) = 1/81 with f(r) = r give the terms 2 * 1/9
    # and 4 * 1/81; the table has no psi(27)
    text, _ = run_command("series --psi table:1=1/9,2=1/81 --f pow:1 --nmax 5".split())
    res = json.loads(text)["results"]
    assert [s["lo"]["rat"] for s in res["partial_sums"]] == ["2/9", "22/81"]
    assert all(s["exact"] for s in res["partial_sums"])
    assert res["verdict"] == "undetermined" and res["prediction"] == "not_applicable"


def test_series_with_no_computable_term_exits_2(capsys):
    # f(psi) of psi(r) = r^-2 (log r)^-gamma has the irrational log exponent gamma
    assert main("series --psi powlog:2,gamma --f pow:1 --nmax 3".split()) == 2
    assert capsys.readouterr().err == "error: no terms computable on the evaluation grid\n"


def test_series_with_a_table_dimension_function():
    # f(psi(3)) = 1/3 times the 2 centers' mass 2^1
    res = json.loads(run_command("series --psi pow:2 --f table:1=1/3 --nmax 1".split())[0])
    assert res["results"]["exponent_mode"] == "table"
    assert res["results"]["partial_sums"][0]["lo"]["rat"] == "2/3"


def test_series_sum_past_the_float_range_reads_inf_in_csv():
    # psi(3) = 10^400 and f(r) = r: the one partial sum is 2 * 10^400
    text, _ = run_command(["series", "--psi", f"table:1={10 ** 400}", "--f", "pow:1",
                           "--nmax", "1", "--output", "csv"])
    assert text == f"N,partial_sum,approx_lossy\n1,{2 * 10 ** 400}/1,inf\n"


@pytest.mark.parametrize("argv, quotients, exact", [
    # gamma of 4:0,3 is log 2 / log 4 = 1/2
    ("cf --x gamma --set 4:0,3 --depth 5", [2], True),
    # 1/sqrt 2 = [0; 1, 2, 2, ...] since sqrt 2 = [1; 2, 2, ...]
    ("cf --x sqrt:1/2 --depth 20", [1] + [2] * 19, False),
    ("cf --x 1/3 --depth 5", [3], True),
    ("cf --x 7/10 --depth 2", [1, 2], False),
])
def test_cf_quotients_by_hand(argv, quotients, exact):
    res = json.loads(run_command(argv.split())[0])["results"]
    assert res["quotients"] == quotients
    assert res["exact"] is exact
    # a rational cut before its last quotient is exhausted
    assert res["exhausted"] is (argv == "cf --x 7/10 --depth 2")


@pytest.mark.parametrize("tau, terms, last", [("3", 9, 8), ("5/2", 11, 9), ("7/2", 7, 7),
                                              ("5000", 2, 1)])
def test_xi_build_prints_each_truncation_that_fits_the_print_limit(tau, terms, last):
    # q_s = 3^e_s, e_s = floor(tau^s): 3^6561 (3, s = 8) has 10,399 bits,
    # 3^6433 (7/2, s = 7) 10,196; 3^19683 (3, s = 9) and 3^9536 (5/2, s = 10)
    # are over the 12,000-bit limit, and 3^25000000 (5000, s = 2) over the
    # bit budget as well, so it is never built
    text, _ = run_command(["xi-build", "--tau", tau, "--terms", str(terms)])
    res = json.loads(text)["results"]
    assert [t["s"] for t in res["truncations"]] == list(range(1, last + 1))
    e = res["exponents"][last - 1]
    assert res["truncations"][-1]["q"] == str(3 ** e)
    assert (3 ** e).bit_length() <= render.RENDER_INT_BITS


def test_xi_verify_extends_the_digit_stream_to_the_membership_depth():
    # e_11 = 3^11 = 177,147 is the first exponent past depth 100,000; every
    # digit is 0 or the coefficient 2
    text, _ = run_command("xi-verify --tau 3 --terms 4 --depth 100000".split())
    assert json.loads(text)["results"]["membership"] == {"depth": 100000, "verdict": "in"}


def test_timing_flag_is_the_only_nondeterminism():
    with_timing, _ = run_command(["measure", "--window", "0:1", "--timing"])
    rep = json.loads(with_timing)
    assert isinstance(rep["timing_ms"], int)
    jsonschema.validate(rep, _schema())


# tokens that are no option of any command, or that read otherwise than they look
ODD_TOKENS = ["-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=x", "--", "-", "-5",
              "-1.5", "-1/4", "-x", "--zzz", "---", "--=", "foo", "", " 7", "-a b", "--c",
              "--co", "--no", "--n"]
INT_TEXTS = ["5", "+5", "5_0", " 7", "07", "-3", "-0", "x", "0x10", "1.5", "", "\u0663", "1e3"]
STR_TEXTS = ["pow:2", "0:1", "-x", "-5", "-1/4", "-a b", "=", "--", "--set", "-h", ""]


@st.composite
def command_lines(draw):
    """An argv of a subcommand, or of an odd first token, with options
    spelled in full, by prefix, with = or apart, and odd tokens among them."""
    name = draw(st.sampled_from(list(SUBCOMMAND_OPTIONS)))
    options = cli.COMMON_OPTIONS + SUBCOMMAND_OPTIONS[name]
    argv = [draw(st.sampled_from(ODD_TOKENS + ["frobnicate", name[:3]]))
            for _ in range(draw(st.sampled_from([0] * 8 + [1, 2])))]
    argv.append(name)
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.integers(0, 5)) == 0:
            argv.append(draw(st.sampled_from(ODD_TOKENS)))
            continue
        flag, kind, _, _ = draw(st.sampled_from(options))
        if kind == cli.TOGGLE and draw(st.booleans()):
            flag = "--no-" + flag[2:]
        if draw(st.integers(0, 2)) == 0:
            flag = flag[:draw(st.integers(3, len(flag)))]
        if kind in (cli.FLAG, cli.TOGGLE):
            value = draw(st.sampled_from([None] * 6 + ["", "x"]))
        elif flag.startswith("--conf"):
            value = os.devnull  # an empty config file
        elif kind is int:
            value = draw(st.sampled_from(INT_TEXTS))
        elif isinstance(kind, tuple):
            value = draw(st.sampled_from(kind + ("xml", "")))
        else:
            value = draw(st.sampled_from(STR_TEXTS) | st.text(max_size=3))
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def _outcome(parse, argv):
    """("parsed", the attributes), or the exit code and the error line."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return "parsed", vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code, err.getvalue().splitlines()[-1:]
    except InputError:
        return "cannot read config", None


@settings(max_examples=400, deadline=None)
@given(command_lines(), st.booleans())
@example(["--", "measure", "--window", "0:1"], False)  # a "--" before the subcommand
@example(["--"], False)  # a "--" with nothing after it
@example(["measure", "--window", "0:1", "foo"], False)  # a token that is no option
def test_parser_reads_argv_as_argparse_does(argv, whole):
    # argparse drops the value of --flag=-- and stores [] unconverted, on
    # which every command failed with a traceback; the value is "--" now
    assume(not any(token.partition("=")[2] == "--" for token in argv))
    named = None if whole or argv[0] not in SUBCOMMAND_OPTIONS else argv[0]
    expected = _outcome(argparse_parser(named).parse_args, argv)
    got = _outcome(build_parser(named).parse_args, argv)
    if got == ("cannot read config", None):
        # a --config value that is no file, from an odd token or a prefix; the
        # file is read before options are found missing or tokens unknown
        assert (expected[0] == "parsed" and expected[1]["config"] != os.devnull
                or expected[0] == 2 and ("arguments are required" in expected[1][0]
                                         or "unrecognized arguments" in expected[1][0]))
    else:
        assert got == expected


def test_a_double_dash_after_equals_is_a_value(capsys):
    args = build_parser("measure").parse_args(["measure", "--window=--", "--set=--"])
    assert (args.window, args.set) == ("--", "--")
    assert main(["measure", "--window=--"]) == 2
    assert capsys.readouterr().err == "error: bad window '--'; expected LO:HI\n"
    with pytest.raises(SystemExit) as exc:
        main(["full-cover", "--n=--"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --n: invalid int value: '--'\n")
