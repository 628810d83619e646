import csv
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import import_module, resources
from math import isqrt
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cantorapprox import cli, cli_contfrac, cli_layers, layers, render, sparse
from cantorapprox.cli import SUBCOMMAND_OPTIONS, build_parser, main, run_command
from cantorapprox.contfrac import continued_fraction_expand
from cantorapprox.errors import BUDGET, Budget, InputError, PrecisionError, ResourceBudgetError
from oracles import argparse_parser, sqrt_quotients, under_budget

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
    "xi-verify": ["xi-verify", "--tau", "3", "--terms", "4"],
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
    assert set(FIXTURE_ARGVS) == set(SUBCOMMAND_OPTIONS)
    argv = FIXTURE_ARGVS[name]
    text1, _ = run_command(list(argv))
    text2, _ = run_command(list(argv))
    assert text1 == text2
    report = json.loads(text1)
    schema = _schema()
    jsonschema.validate(report, schema)
    # the v2 envelope: every key is required, and none echoes a constant
    assert set(report) == set(schema["required"])
    assert report["schema_version"] == "2"
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
    # the first expansion, to depth 60, stops short of the convergent of
    # the sixth truncation; the expansion is deepened until it reaches it
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


def test_a_config_value_starting_with_a_dash_reads_as_given(tmp_path):
    cfg = tmp_path / "measure.cfg"
    cfg.write_text("window=-1/2:1/4\n")
    from_file, _ = run_command(["measure", "--config", str(cfg)])
    direct, _ = run_command(["measure", "--window=-1/2:1/4"])
    assert json.loads(from_file)["results"] == json.loads(direct)["results"]


# read as a flag, an empty key would be a bare "--", which ends option
# reading, and a line with no = a token that is neither a flag nor a value
@pytest.mark.parametrize("line", ["=3", "psi pow:2"])
def test_a_config_line_that_is_not_key_value_exits_2(line, tmp_path, capsys):
    cfg = tmp_path / "layer.cfg"
    cfg.write_text(f"# comment line\n{line}\n")
    assert main(["layer", "--psi", "pow:2", "--n", "3", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config line 2: {line!r} is not KEY=VALUE\n"


def test_a_zero_gamma_coefficient_is_rational_zero():
    for command in (["layer", "--n", "3"], ["series", "--f", "pow:1", "--nmax", "4"]):
        reports = [json.loads(run_command(command + ["--psi", psi])[0])["results"]
                   for psi in ("powlog:2,0*gamma", "powlog:2,0", "pow:2")]
        assert reports[0] == reports[1] == reports[2]


@given(st.sampled_from(["3:0,2", "4:0,3", "5:0,2,4", "3:0,1"]),
       st.sampled_from(["1", "3/2", "2", "5/2"]), st.integers(min_value=2, max_value=3),
       st.sampled_from(["layer --n {}", "pairwise --m 1 --n {}", "quasi-scan --nmax {}",
                        "bc-ratio --q {}", "series --f pow:1 --nmax {}",
                        "tail --f pow:gamma --n0 1 --nmax {}"]))
@example("3:0,2", "2", 3, "layer --n {}")  # its comparator is 1/8 for every spelling
@settings(max_examples=40, deadline=None)
def test_pow_is_powlog_with_a_zero_log_exponent(dset, a, level, command):
    """r^-A is r^-A (log r)^-0: the three spellings give one report."""
    argv = command.format(level).split() + ["--set", dset]
    reports = [json.loads(run_command(argv + ["--psi", psi])[0])["results"]
               for psi in (f"pow:{a}", f"powlog:{a},0", f"powlog:{a},0*gamma")]
    assert reports[0] == reports[1] == reports[2]


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


@pytest.mark.parametrize("command", ["layer --n 3", "pairwise --m 1 --n 2",
                                     "quasi-scan --nmax 3", "bc-ratio --q 2"])
def test_a_window_of_length_zero_exits_2_before_psi_is_read(command, capsys):
    argv = command.split() + ["--window", "1/2:1/2"]
    assert main(argv + ["--psi", "pow:2"]) == 2
    assert main(argv + ["--psi", "bogus:1"]) == 2
    assert capsys.readouterr().err == "error: window must have positive length\n" * 2


def test_exit_code_resource_error(capsys):
    # level 30 would enumerate 2^30 cylinders: over the enumeration budget
    assert main(["dim-estimate", "--tau", "2", "--n", "30"]) == 3


# psi = 1 at `layer --psi pow:0`: a radius that prints, so the cells are counted
@pytest.mark.parametrize("argv", ["layer --psi pow:0 --n 9100", "full-cover --n 9100",
                                  "dim-estimate --tau 1 --n 9100",
                                  "quasi-scan --psi pow:2 --nmax 9100 --mmin 9099"])
def test_a_level_past_the_print_limit_exits_3(argv, capsys):
    # the last cell 3^n - 1 has more digits than int-to-str prints, the count 2^n fewer
    start = time.perf_counter()
    assert main(argv.split()) == 3
    assert time.perf_counter() - start < 2.0
    assert re.fullmatch(r"error: [\d,]+ level-\d+ basic intervals in cells "
                        r"0\.\.<[\d,]+-bit integer> over the 4,194,304-cell budget\n",
                        capsys.readouterr().err)


# `layer` renders its radius psi(b^n) before it counts or lists a cell, and
# t0 of a window of length 10^-60000 is found in exact steps from a bit-length estimate
@pytest.mark.parametrize("argv", ["layer --psi pow:2 --n 9100", "layer --psi pow:2 --n 100000",
                                  "layer --psi pow:2 --n 1 --window 0:1e-60000 --output csv"])
def test_a_layer_past_the_print_limit_exits_3_fast(argv):
    rc, seconds, stderr = _timed_main(argv)
    assert rc == "3" and seconds < 0.5
    assert stderr == ("error: the report holds an integer of more than 4300 digits, "
                      "the int-to-str limit\n")


@pytest.mark.parametrize("argv", ["layer --psi pow:5/2 --n 25 --window 0:1/1000000",
                                  "pairwise --psi pow:7/2 --m 18 --n 19 --window 0:1/100000"])
def test_psi_below_the_value_grid_answers(argv):
    start = time.perf_counter()
    assert main(argv.split() + ["--out", os.devnull]) == 0
    assert time.perf_counter() - start < 2.0


TIMED_MAIN = """
import sys, time
from cantorapprox.cli import main
start = time.perf_counter()
rc = main(sys.argv[1:])
print(rc, time.perf_counter() - start)
"""


def _limit_memory():
    # 2 GB of address space: a power built past the bit budget fails here
    # instead of filling the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# the third power is e^98383, which the exp path of rational_pow raises
# 3^(-300 * 20000/67) from
def _timed_main(argv: str, **env: str) -> tuple[str, float, str]:
    """(exit code, seconds in `main`, stderr) of argv in a fresh interpreter
    under the memory limit, with `env` added to its environment."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", TIMED_MAIN, *argv.split()],
                          capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
                          env=dict(os.environ, PYTHONPATH=path, **env))
    rc, seconds = done.stdout.split()
    return rc, float(seconds), done.stderr


# 1/10^100000 starts with 209,590 zero digits in base 3, read in one step;
# its measure, 19/2^209595, is past the print limit
def test_a_window_end_with_a_long_zero_run_exits_3_fast():
    rc, seconds, stderr = _timed_main("measure --window 0:1e-100000")
    assert rc == "3" and seconds < 0.2
    assert stderr == ("error: the report holds an integer of more than 4300 digits, "
                      "the int-to-str limit\n")


# 10^10000000 has 33,281,251 bits, refused before `Fraction` builds it
@pytest.mark.parametrize("window", ["0:1e-10000000", "1e10000000:1", "0e10000000:1"])
def test_a_decimal_window_end_over_the_bit_budget_exits_3_fast(window):
    rc, seconds, stderr = _timed_main(f"measure --window {window}")
    assert rc == "3" and seconds < 2.0
    assert stderr == ("error: operand of 33,281,251 bits (10^10000000) over the "
                      "8,388,608-bit budget\n")


def test_a_decimal_exponent_past_the_digit_limit_is_not_a_rational(capsys):
    end = "1e-" + "1" * (sys.get_int_max_str_digits() + 1)
    assert main(["measure", "--window", f"0:{end}"]) == 2
    assert capsys.readouterr().err == f"error: not a rational: {end!r}\n"


@pytest.mark.parametrize("argv, power", [("layer --psi pow:2000000 --n 10", r"base\^-\d+"),
                                         ("layer --psi pow:1000001/2 --n 1", r"root\^-\d+"),
                                         ("layer --psi pow:20000/67 --n 300", r"e\^98383")])
def test_a_power_over_the_bit_budget_exits_3_fast(argv, power):
    rc, seconds, stderr = _timed_main(argv)
    assert rc == "3" and seconds < 1.0
    assert re.fullmatch(rf"error: operand of [\d,]+ bits \({power}\) over the "
                        r"8,388,608-bit budget\n", stderr)


# the truncation cap c*b^-n of psi is held to the bit budget before b^n is built
@pytest.mark.parametrize("argv", ["layer --psi pow:0 --trunc 1 --n 100000000",
                                  "pairwise --psi pow:0 --trunc 1 --m 1 --n 100000000"])
def test_a_truncation_cap_over_the_bit_budget_exits_3_fast(argv):
    rc, seconds, stderr = _timed_main(argv)
    assert rc == "3" and seconds < 1.0
    assert stderr == ("error: operand of 159,375,001 bits (3^100000000) over the "
                      "8,388,608-bit budget\n")


# each level's radius and cells are checked before any layer is built: the
# first level of 3:0,2 that the cells budget refuses is 23, whatever the
# levels after it, and the 22 before it are never built
@pytest.mark.parametrize("q", [23, 100000000])
def test_a_refused_level_exits_3_before_any_layer_is_built(q):
    rc, seconds, stderr = _timed_main(f"bc-ratio --psi pow:0 --trunc 1 --q {q}")
    assert rc == "3" and seconds < 2.0
    assert stderr == ("error: 8,388,608 level-23 basic intervals in cells 0..94143178826 "
                      "over the 4,194,304-cell budget\n")


# the level grid b^n is held to the bit budget before it is built
@pytest.mark.parametrize("argv, power", [
    ("cf-interval --quotients 1,1 --depth 6000000", "9,562,501 bits (3^6000000)"),
    ("full-cover --n 20000000", "31,875,001 bits (3^20000000)"),
    ("layer --psi table:10000000=1/2 --n 10000000", "15,937,501 bits (3^10000000)")])
def test_a_level_grid_over_the_bit_budget_exits_3_fast(argv, power):
    rc, seconds, stderr = _timed_main(argv)
    assert rc == "3" and seconds < 1.0
    assert stderr == f"error: operand of {power} over the 8,388,608-bit budget\n"


# the radius b^(-tau n) is checked against the bit budget before b^ceil(tau n)
# is built: 10^5000 has 16,611 bits
@pytest.mark.parametrize("argv, power", [
    ("dim-estimate --tau 1e5000 --n 2", r"<16,612-bit integer> bits \(base\^-<16,611-bit integer>\)"),
    ("dim-estimate --tau 10000000 --n 1", r"15,937,501 bits \(base\^-10000000\)")],
    ids=["tau-1e5000", "tau-10000000"])
def test_a_counting_grid_over_the_bit_budget_exits_3_fast(argv, power):
    rc, seconds, stderr = _timed_main(argv)
    assert rc == "3" and seconds < 1.0
    assert re.fullmatch(rf"error: operand of {power} over the 8,388,608-bit budget\n", stderr)


# level 11 lists 118,098 cells of 5:0,2,3 near the window on the grid
# 9 * 5^2200, whose ball ends would take some 600 million bits; without the
# cap, level 14 built ends of 6,500 bits for 3,188,646 cells
def test_ball_ends_past_their_bit_cap_exit_3_fast():
    rc, seconds, stderr = _timed_main("quasi-scan --set 5:0,2,3 --psi pow:200 "
                                      "--window 2/9:7/9 --no-coprime --nmax 14")
    assert rc == "3" and seconds < 3.0
    assert stderr == ("error: 118,098 level-11 cells on a 5,112-bit grid over the "
                      "536,870,912-bit cap of their ball ends\n")


# e_9013 = 3^9013 is the first exponent past the 4,300-digit int-to-str limit;
# none of the 90,987 exponents after it is built
def test_xi_build_refuses_its_first_unprintable_exponent_fast():
    rc, seconds, stderr = _timed_main("xi-build --tau 3 --terms 100000")
    assert rc == "3" and seconds < 3.0
    assert stderr == ("error: the report holds an integer of more than 4300 digits, "
                      "the int-to-str limit\n")


# under the least int-to-str limit, 640 digits, e_n = 5000*3^n passes it first
# at n = 1334; e_1 = 15000 is past the print limit, so there are no truncations
def test_xi_build_refuses_its_first_unprintable_exponent_as_it_is_built(capsys):
    argv = "xi-build --tau 3 --lam 5000 --terms 2000".split()
    limit = sys.get_int_max_str_digits()
    exponent = sparse.PowerRule.exponent
    try:
        sys.set_int_max_str_digits(640)
        with mock.patch.object(sparse.PowerRule, "exponent", autospec=True,
                               side_effect=exponent) as built:
            assert main(argv) == 3
        assert max(call.args[1] for call in built.call_args_list) == 1334
        assert capsys.readouterr().err == ("error: the report holds an integer of more "
                                           "than 640 digits, the int-to-str limit\n")
        # the CSV rows list no exponents
        assert main(argv + ["--output", "csv"]) == 0
        assert capsys.readouterr().out == render.dump_csv([])
    finally:
        sys.set_int_max_str_digits(limit)
    report = json.loads(run_command(argv)[0])["results"]
    assert report["exponents"][-1] == 5000 * 3 ** 2000 and report["truncations"] == []


# under the least int-to-str limit, 640 digits, the 3,131-digit q_8 = 3^6561
# is past it though under the 12,000-bit print limit: the truncation of
# xi-build, and a convergent of cf, in either report
@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("argv", ["xi-build --tau 3 --terms 8",
                                  "cf --x xi --tau 3 --terms 8 --depth 300"])
def test_an_integer_past_a_lowered_print_limit_exits_3(argv, output):
    rc, _, stderr = _timed_main(f"{argv} --output {output}", PYTHONINTMAXSTRDIGITS="640")
    assert rc == "3"
    assert stderr == ("error: the report holds an integer of more than 640 digits, "
                      "the int-to-str limit\n")


# each operand is named by numbers past the 4,300-digit int-to-str limit:
# 3^(2001!), 3^(3^9101) and a 4,000-digit power of psi
NINES = "9" * 4000


@pytest.mark.parametrize("argv, power", [
    ("cf --x xi --rule factorial --terms 2000 --depth 5", r"2\*3\^<19,064-bit integer>"),
    ("exponent --x xi --rule factorial --terms 2000 --depth 5", r"2\*3\^<19,064-bit integer>"),
    ("xi-verify --rule factorial --terms 2000", r"2\*3\^<19,064-bit integer>"),
    ("cf --x xi --tau 3 --terms 9100 --depth 5", r"2\*3\^<14,425-bit integer>"),
    (f"layer --psi pow:{NINES} --n {NINES}", r"base\^-<26,576-bit integer>")],
    ids=["cf-factorial", "exponent-factorial", "xi-verify-factorial", "cf-tau", "layer-psi"])
def test_an_operand_past_the_print_limit_is_named_by_its_bit_length(argv, power):
    rc, seconds, stderr = _timed_main(argv)
    assert rc == "3" and seconds < 3.0
    assert re.fullmatch(rf"error: operand of <[\d,]+-bit integer> bits \({power}\) over the "
                        r"8,388,608-bit budget\n", stderr)


# e_100001 = 3^100001: the value interval's denominator is refused before
# any of the 100,000 earlier exponents is built
@pytest.mark.parametrize("argv", ["cf --x xi --tau 3 --terms 100000 --depth 5",
                                  "exponent --x xi --tau 3 --terms 100000 --depth 5",
                                  "xi-verify --tau 3 --terms 100000"])
def test_a_sparse_number_with_many_terms_exits_3_fast(argv):
    rc, seconds, stderr = _timed_main(argv)
    assert rc == "3" and seconds < 2.0
    assert stderr == ("error: operand of <158,499-bit integer> bits (2*3^<158,498-bit integer>) "
                      "over the 8,388,608-bit budget\n")


# q_1 = 4^30000000 is over the bit budget, e_1 = floor(3/10) is 0, and
# coefficient 2 shares a factor with base 4: each refusal comes in this order
@pytest.mark.parametrize("lam, rc, error", [
    ("10000000", 3, "operand of 60,468,751 bits (4^30000000) over the 8,388,608-bit budget"),
    ("1/10", 2, "first exponent must be >= 1 (value must stay below 1)"),
    ("1", 2, "truncation not reduced: the coefficient shares a factor with the base")])
def test_the_refusals_of_a_sparse_number_keep_their_order(lam, rc, error, capsys):
    argv = f"xi-build --tau 3 --lam {lam} --coeff 2 --set 4:0,3 --terms 2"
    assert main(argv.split()) == rc
    assert capsys.readouterr().err == f"error: {error}\n"


# the prefix-rank table has one entry per digit of the base, up to 2^22
@pytest.mark.parametrize("base", [10_000_019, 100_000_007])
def test_a_base_past_the_rank_table_cap_exits_3_fast(base):
    rc, seconds, stderr = _timed_main(f"measure --set {base}:0,1 --window 0:1/7")
    assert rc == "3" and seconds < 2.0
    assert stderr == (f"error: base {base:,} over the 4,194,304-entry cap of the "
                      "prefix-rank table\n")


def test_a_base_just_under_the_rank_table_cap_answers_fast():
    rc, seconds, stderr = _timed_main(
        f"measure --set 4194301:0,1 --window 0:1/7 --out {os.devnull}")
    assert rc == "0" and seconds < 1.0 and stderr == ""
    # a command that reads no rank still answers past the cap
    text, _ = run_command("cf --x golden --set 100000007:0,1 --depth 3".split())
    assert json.loads(text)["results"]["quotients"] == [1, 1, 1]


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


# a witness q_(k+1) has more digits than the int-to-str limit: the JSON
# report, which lists the witnesses, is refused, and the CSV report, which
# holds only the estimate, answers
def test_exponent_csv_holds_no_field_of_the_json_report(capsys):
    argv = "exponent --x xi --rule factorial --terms 3 --depth 150".split()
    assert main(argv + ["--output", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "estimate,window,min_denominator" and row.endswith(",150,2")
    assert main(argv) == 3
    assert capsys.readouterr().err == ("error: the report holds an integer of more than "
                                       f"{sys.get_int_max_str_digits()} digits, the "
                                       "int-to-str limit\n")


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


def test_an_unprintable_radius_is_refused_before_the_layer_is_built(capsys):
    # psi(3^10) = 3^-100000, whose denominator has 47,712 digits
    start = time.perf_counter()
    assert main("layer --psi pow:10000 --n 10".split()) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ("error: the report holds an integer of more than "
                                       f"{sys.get_int_max_str_digits()} digits, the "
                                       "int-to-str limit\n")
    # a bad window and a level below 1 still report first
    assert main("layer --psi pow:10000 --n 10 --window 1/2:1/2".split()) == 2
    assert capsys.readouterr().err == "error: window must have positive length\n"
    assert main("layer --psi pow:10000 --n 0".split()) == 2
    assert capsys.readouterr().err == "error: level must be >= 1\n"


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
# value came from its own `cantor_cdf` walk, and re-pinned for the v2
# envelope with the same `results`
PINNED_REPORTS = {
    "layer --set 5:0,2,3 --psi pow:2 --n 14 --window 0:1/1000":
        "ec5a9389c7ad7b1f45ec02444aa0c1a41f70badaf99eb34a05c9a85bb3f957f2",
    "quasi-scan --psi pow:2 --nmax 12":
        "004f6c2caf622a5824d73e7e932838fcbe98c8b6a7e322a75bda763ff1faa072",
    "bc-ratio --psi pow:2 --q 12":
        "12fcfd18195034fb867fd7d9b10950c22ae4d52961df3f6e2b3f14ec10431fda",
}


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS))
def test_layer_reports_match_their_pinned_hashes(argv):
    text, _ = run_command(argv.split())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[argv]


# sha256 of the whole report of continued-fraction, exponent and xi commands
# the benchmark does not run, computed when each log ratio was a `Fraction`
# interval quotient refined from level 0, and each certified quotient a
# `Fraction` Euclid step (dim-estimate --tau 3/2 --n 11 is pinned below);
# the JSON reports re-pinned for the v2 envelope, again when
# `config_echo` lost its base of xi, and again when it lost --cf-depth and
# echoed an unset --coeff as null, each with the same `results`.
# The JSON report of the factorial cf holds a quotient past the int-to-str
# limit, so its CSV is pinned
PINNED_ENCLOSURE_REPORTS = {
    "cf --x xi --rule factorial --terms 3 --depth 200 --output csv":
        "88b9cfc787e74f14ca02923b10ec613ce2025a8f7730306ba0732bf164ef0c9e",
    "exponent --x xi --tau 3 --terms 6 --depth 120 --min-q 50":
        "00c7b7bf73cd7d5b13a1bee47aeb5cf8317acc8d9bff2a08198f774a9e1ee344",
    "cf --x gamma --set 5:0,2,3 --depth 60":
        "201e071fb6142665918ca39a9a4b219217643a746d697c2646ca30d6f563fc86",
    "xi-verify --tau 3 --terms 6":
        "b15aefbf04fb93c367da16fd5dce39fb2e2df588abbfc08ee11d543c42509d80",
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
# cf-interval ran beside the continued-fraction expansion, and re-pinned for
# the v2 envelope with the same `results`
PINNED_CYLINDER_REPORTS = {
    "dim-estimate --tau 3/2 --n 11":
        "f103bfff9510e14710e94070b2c170c98490e65582ab8a6d4338a87a420c5960",
    "dim-estimate --tau 3 --n 10 --no-coprime":
        "fb51fe3d608d2b6016252c81b83be8514f02bf15bc3afdeb8cfc9e0f0749696b",
    "full-cover --n 10 --window 1/7:6/7":
        "82d68183e536a225e6eadcf7ac9576106cd90f7e9120ba75a07327ae487ac716",
    "full-cover --set 5:1,3 --n 6":
        "b81601c9f0b22ba5ed8bf3ebae7cce0adaa0ebba1dcb48ca23bccc05ef8185a0",
    "cf-interval --quotients 1,1,1,1 --depth 18":
        "da5a37367ba3aaf736c90db881fb3113823db5032d383fe17e69e0ac1fe492f8",
}


@pytest.mark.parametrize("argv", sorted(PINNED_CYLINDER_REPORTS))
def test_cylinder_reports_match_their_pinned_hashes(argv):
    text, _ = run_command(argv.split())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CYLINDER_REPORTS[argv]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--help"], ["frobnicate"], []], ids=str)
def test_help_and_bad_commands_list_every_subcommand(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    printed = capsys.readouterr()
    assert "{" + ",".join(SUBCOMMAND_OPTIONS) + "}" in printed.out + printed.err


# whichever subcommand the argv names, the usage line above an unrecognized
# argument lists every subcommand, and the error line is argparse's
@pytest.mark.parametrize("name", sorted(FIXTURE_ARGVS))
def test_an_unrecognized_argument_lists_every_subcommand(name, capsys):
    argv = FIXTURE_ARGVS[name] + ["--set", "5:0,2,3", "--output", "csv", "--timing", "--bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "{" + ",".join(SUBCOMMAND_OPTIONS) + "}" in err.splitlines()[0]
    assert err.endswith("error: unrecognized arguments: --bogus\n")
    with pytest.raises(SystemExit):
        argparse_parser().parse_args(argv)
    assert capsys.readouterr().err.splitlines()[-1] == err.splitlines()[-1]


def test_pairwise_measures_each_layer_once_and_layer_parses_psi_once():
    with mock.patch.object(layers, "layer_measure", wraps=layers.layer_measure) as measured:
        run_command(["pairwise", "--psi", "pow:2", "--m", "2", "--n", "4"])
    assert measured.call_count == 2
    with mock.patch.object(cli_layers, "parse_psi", wraps=cli_layers.parse_psi) as parsed:
        run_command(["layer", "--psi", "pow:2", "--n", "4"])
    assert parsed.call_count == 1


def test_dim_estimate_counts_boxes_as_one_layer_measure():
    with mock.patch.object(layers, "build_layer", wraps=layers.build_layer) as built, \
            mock.patch.object(layers, "layer_measure", wraps=layers.layer_measure) as measured:
        run_command(["dim-estimate", "--tau", "3/2", "--n", "7"])
    assert (built.call_count, measured.call_count) == (1, 1)


def test_pairwise_builds_a_level_met_twice_once():
    with mock.patch.object(layers, "build_layer", wraps=layers.build_layer) as built:
        text, _ = run_command(["pairwise", "--psi", "pow:2", "--m", "3", "--n", "3"])
    assert built.call_count == 1
    res = json.loads(text)["results"]
    assert res["mu_m"] == res["mu_n"] == res["mu_mn"]


def test_every_command_has_one_handler_module_that_defines_its_handler_alone():
    assert set(cli.FAMILY_MODULES) == set(SUBCOMMAND_OPTIONS)
    commands = {}
    for command, module in cli.FAMILY_MODULES.items():
        commands.setdefault(module, set()).add("cmd_" + command.replace("-", "_"))
    for module, handlers in commands.items():
        defined = vars(import_module(module, "cantorapprox"))
        assert {name for name in defined if name.startswith("cmd_")} == handlers


def test_cf_and_exponent_have_one_handler_for_every_x_and_gamma_parses_the_set_once():
    assert [name for name in vars(cli_contfrac) if name.startswith("cmd_")] == [
        "cmd_cf", "cmd_exponent", "cmd_xi_build", "cmd_xi_verify"]
    for command in ("cf", "exponent"):
        for x in ("xi", "golden"):
            handler = cli._handler_of(mock.NonCallableMock(command=command, x=x))
            assert handler is getattr(cli_contfrac, "cmd_" + command)
    with mock.patch.object(cli, "parse_set", wraps=cli.parse_set) as parsed:
        run_command(["cf", "--x", "gamma", "--set", "5:0,2,3", "--depth", "10"])
    assert parsed.call_count == 1


def test_each_legendre_bound_and_case_split_radius_is_decided_once():
    with mock.patch.object(cli_contfrac, "legendre_is_convergent",
                           wraps=cli_contfrac.legendre_is_convergent) as decided:
        run_command(["xi-verify", "--tau", "3", "--terms", "6"])
    assert decided.call_count == 5  # one per truncation s = 1..5
    with mock.patch.object(layers, "psi_value", wraps=layers.psi_value) as evaluated:
        run_command(["quasi-scan", "--psi", "pow:2", "--nmax", "8"])
    assert evaluated.call_count == 8  # one per layer, none per pair


_PSI_TABLE = "table:1=1/10,2=1/100,3=1/1000,4=1/10000"
_F_TABLE = "table:1=1/2,2=1/4,3=1/8,4=1/16"


@pytest.mark.parametrize("argv, evaluations", [
    ("layer --psi pow:3/2 --n 3", 1),
    ("layer --psi pow:20000/67 --n 14 --window 0:1/1000000", 1),
    # layer_comparator reads a law it cannot take in closed form off the radius
    ("layer --psi powlog:2,1 --n 3", 1),
    ("layer --psi table:3=1/100 --n 3", 1),
    ("layer --psi pow:2 --trunc 1 --n 3", 1),
    ("pairwise --psi pow:2 --m 3 --n 3", 1),
    # a table f's monotonicity check raises the radius it evaluated to -gamma
    (f"series --psi {_PSI_TABLE} --f {_F_TABLE} --nmax 4", 4),
    (f"series --psi pow:2 --trunc 1 --f {_F_TABLE} --nmax 4", 4),
    (f"tail --psi {_PSI_TABLE} --f {_F_TABLE} --n0 1 --nmax 4", 4),
    (f"tail --psi pow:2 --trunc 1 --f {_F_TABLE} --n0 1 --nmax 4", 4),
])
def test_a_level_evaluates_its_radius_once(argv, evaluations):
    evaluated = mock.Mock(wraps=layers.psi_value)
    with mock.patch.object(layers, "psi_value", evaluated), \
            mock.patch.object(cli_layers, "psi_value", evaluated):
        run_command(argv.split())
    assert evaluated.call_count == evaluations


def test_series_stops_at_the_first_missing_table_value():
    # psi(3) = 1/9 and psi(9) = 1/81 with f(r) = r give the terms 2 * 1/9
    # and 4 * 1/81; the table has no psi(27)
    text, _ = run_command("series --psi table:1=1/9,2=1/81 --f pow:1 --nmax 5".split())
    res = json.loads(text)["results"]
    assert [s["lo"]["rat"] for s in res["partial_sums"]] == ["2/9", "22/81"]
    assert all(s["exact"] for s in res["partial_sums"])
    assert res["verdict"] == "undetermined" and res["prediction"] == "not_applicable"


@pytest.mark.parametrize("argv, reason", [
    # f(psi) of psi(r) = r^-2 (log r)^-gamma has the irrational log exponent gamma
    ("series --psi powlog:2,gamma --f pow:1 --nmax 3",
     "f(power_log psi) needs a rational combined log exponent"),
    # the table's first level is 5, so the first term, at level 1, has no psi
    ("series --psi table:5=1/9 --f pow:1 --nmax 3", "psi table has no value at level 1"),
], ids=["powlog", "table"])
def test_series_with_no_computable_term_exits_2(capsys, argv, reason):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == ("error: no terms computable on the evaluation grid: "
                                       f"{reason}\n")


def test_series_with_a_table_dimension_function():
    # f(psi(3)) = 1/3 times the 2 centers' mass 2^1
    res = json.loads(run_command("series --psi pow:2 --f table:1=1/3 --nmax 1".split())[0])
    assert res["results"]["exponent_mode"] == "table"
    assert res["results"]["partial_sums"][0]["lo"]["rat"] == "2/3"


@pytest.mark.parametrize("command", ["series --nmax 3", "tail --n0 1 --nmax 3"])
def test_a_table_f_that_is_not_monotonic_exits_2(command, capsys):
    # r^-gamma f(r) at r = psi(3^n) = 9^-n is f_n 4^n: 2, 1/4, 32
    name, *rest = command.split()
    argv = [name, "--psi", "pow:2", "--f", "table:1=1/2,2=1/64,3=1/2", *rest]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: r^-gamma f(r) at r = psi(b^n) is not "
                                       "monotonic: it increases in r between levels 1 and 2 "
                                       "and decreases in r between levels 2 and 3\n")


@pytest.mark.parametrize("argv", [
    # only the levels the call sums are checked: level 2 ends the series
    "series --psi pow:2 --f table:1=1,100000000=1 --nmax 3",
    "tail --psi pow:2 --f table:1=1,100000000=1 --n0 1 --nmax 1",
    # psi(b^n)^-gamma is over the bit budget, or has the irrational log
    # exponent gamma: these levels prove nothing
    "series --psi pow:100000000 --f table:1=1/2,2=1/64,3=1/2 --nmax 3",
    "series --psi powlog:2,1 --f table:1=1/2,2=1/64,3=1/2 --nmax 3"])
def test_a_table_f_that_the_check_cannot_refuse_answers(argv):
    assert main(argv.split()) == 0


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


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=20, deadline=None)
def test_golden_expands_to_all_ones(depth):
    # golden is (sqrt 5 - 1)/2 = [0; 1, 1, ...]
    res = json.loads(run_command(["cf", "--x", "golden", "--depth", str(depth)])[0])["results"]
    assert res["quotients"] == [1] * depth and res["certified_depth"] == depth


# every Q in (0, 1), squares of rationals too, whose expansion is finite
sqrt_radicands = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 4).filter(
    lambda q: 0 < q < 1)


@given(sqrt_radicands, st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
@example(Fraction(1, 4), 5)
def test_sqrt_expands_as_the_pqa_recurrence(q, depth):
    res = json.loads(run_command(["cf", "--x", f"sqrt:{q}", "--depth", str(depth)])[0])
    assert res["results"]["quotients"] == sqrt_quotients(q, depth)


@given(st.fractions(min_value=0, max_value=1, max_denominator=100).filter(lambda q: 0 < q < 1),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_pqa_oracle_matches_sympy_periodic_expansion(q, count):
    # sympy is a test extra, and slow to import: only this test loads it
    sympy_cf = pytest.importorskip("sympy.ntheory.continued_fraction")
    d = q.numerator * q.denominator
    assume(isqrt(d) ** 2 != d)
    # sqrt(q) = (0 + sqrt d)/den = [a_0; head.., period, period, ..]
    *head, period = sympy_cf.continued_fraction_periodic(0, q.denominator, d)
    quotients = head + period * (count // len(period) + 1)
    assert sqrt_quotients(q, count) == quotients[1:count + 1]


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


def test_xi_is_built_in_the_base_of_the_set(capsys):
    # 2 * sum 5^(-3^n) has the digits 0 and 2 of 5:0,2,3
    assert main("xi-verify --set 5:0,2,3 --tau 3 --terms 4".split()) == 0
    assert json.loads(capsys.readouterr().out)["results"]["membership"]["verdict"] == "in"
    text, _ = run_command("cf --x xi --set 9:0,2,6,8 --tau 3 --terms 4 --depth 10".split())
    x = sparse.build_sparse_number(9, 2, sparse.PowerRule(Fraction(3)), 4)
    assert json.loads(text)["results"]["quotients"] == list(
        continued_fraction_expand(x, 10).quotients)


@pytest.mark.parametrize("dset, coeff", [("3:0,2", 2), ("4:0,3", 3), ("5:1,3", 1),
                                         ("6:1,2,4", 1), ("9:0,2,6,8", 2)])
def test_the_coefficient_of_xi_is_the_least_digit_prime_to_the_base(dset, coeff):
    built = json.loads(run_command(f"xi-build --set {dset} --tau 3 --terms 3".split())[0])
    given = json.loads(run_command(
        f"xi-build --set {dset} --tau 3 --terms 3 --coeff {coeff}".split())[0])
    assert built["results"]["coefficient"] == coeff
    assert built["results"] == given["results"]
    assert built["config_echo"]["coeff"] is None


def test_xi_on_a_set_with_no_digit_prime_to_the_base_needs_a_coefficient(capsys):
    assert main("xi-build --set 4:0,2 --tau 3".split()) == 2
    assert capsys.readouterr().err == ("error: the set 4:0,2 has no nonzero digit prime to "
                                       "its base; give --coeff\n")


def test_the_default_xi_of_4_0_3_lies_in_the_set(capsys):
    # 3 * sum 4^(-3^n); with the old default coefficient 2 both calls exit 2
    assert main("cf --x xi --set 4:0,3 --depth 5".split()) == 0
    capsys.readouterr()
    assert main("xi-verify --set 4:0,3 --tau 3 --terms 4".split()) == 0
    assert json.loads(capsys.readouterr().out)["results"]["membership"]["verdict"] == "in"


def test_xi_verify_has_no_depth_knob_for_its_expansion(capsys):
    with pytest.raises(SystemExit) as exc:
        main("xi-verify --tau 3 --terms 4 --cf-depth 25".split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: --cf-depth 25\n")


def test_the_base_of_xi_has_no_option_of_its_own(capsys):
    with pytest.raises(SystemExit) as exc:
        main("xi-build --base-override 5 --tau 3".split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: --base-override 5\n")


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
@given(command_lines())
@example(["--", "measure", "--window", "0:1"])  # a "--" before the subcommand
@example(["--"])  # a "--" with nothing after it
@example(["measure", "--window", "0:1", "foo"])  # a token that is no option
def test_parser_reads_argv_as_argparse_does(argv):
    # argparse drops the value of --flag=-- and stores [] unconverted, on
    # which every command failed with a traceback; the value is "--" now
    assume(not any(token.partition("=")[2] == "--" for token in argv))
    expected = _outcome(argparse_parser().parse_args, argv)
    got = _outcome(build_parser().parse_args, argv)
    if got == ("cannot read config", None):
        # a --config value that is no file, from an odd token or a prefix; the
        # file is read before options are found missing or tokens unknown
        assert (expected[0] == "parsed" and expected[1]["config"] != os.devnull
                or expected[0] == 2 and ("arguments are required" in expected[1][0]
                                         or "unrecognized arguments" in expected[1][0]))
    else:
        assert got == expected


def test_a_double_dash_after_equals_is_a_value(capsys):
    args = build_parser().parse_args(["measure", "--window=--", "--set=--"])
    assert (args.window, args.set) == ("--", "--")
    assert main(["measure", "--window=--"]) == 2
    assert capsys.readouterr().err == "error: bad window '--'; expected LO:HI\n"
    with pytest.raises(SystemExit) as exc:
        main(["full-cover", "--n=--"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --n: invalid int value: '--'\n")


# ---------------------------------------------------------------------------
# closed-form relations between reports
# ---------------------------------------------------------------------------

def _results_or_error(argv: list[str]):
    try:
        return json.loads(run_command(argv)[0])["results"]
    except (InputError, ResourceBudgetError) as exc:
        return type(exc).__name__, str(exc)


def _levels(command: str, k: int, scale: int) -> list[str]:
    """Level k of a layer, or the pair (k, k + 1), at `scale` digits a level;
    the levels up to k + 1 of a scan, and up to k of a ratio."""
    if command == "layer":
        return ["--n", str(scale * k)]
    if command == "pairwise":
        return ["--m", str(scale * k), "--n", str(scale * (k + 1))]
    if command == "quasi-scan":
        return ["--nmax", str(scale * (k + 1))]
    if command == "bc-ratio":
        return ["--q", str(k)]
    return ["--n", str(k)] if command == "full-cover" else []


window_ends = st.builds(lambda den, num: Fraction(num % (den + 1), den),
                        st.sampled_from([1, 2, 7, 9, 10, 27, 81, 1000, 10007]),
                        st.integers(min_value=0, max_value=10 ** 6))
windows = st.tuples(window_ends, window_ends).filter(lambda w: w[0] != w[1]).map(sorted)

# psi(b^n) exact in both bases: radius enclosures are compared as printed
BASE_POWER_PSIS = ["pow:2", "pow:3/2", "pow:5/2", "pow:1", "pow:1/2 --trunc 1/2",
                   "pow:gamma", "pow:2*gamma", "powlog:2,0"]


@given(st.sampled_from(["layer", "measure", "pairwise"]), st.sampled_from(BASE_POWER_PSIS),
       st.integers(min_value=1, max_value=3), windows, st.booleans())
@settings(max_examples=80, deadline=None)
def test_base_power_relation(command, psi, k, window, coprime):
    """K_{0,2}(3) is K_{0,2,6,8}(9) read two digits at a time: its level 2k
    is level k of the other, and psi(3^(2k)) = psi(9^k), so every field
    agrees but the levels and t0."""
    common = ["--window", f"{window[0]}:{window[1]}"]
    if command != "measure":
        common += ["--psi", *psi.split(), "--coprime" if coprime else "--no-coprime"]
    three = _results_or_error([command, "--set", "3:0,2", *_levels(command, k, 2), *common])
    nine = _results_or_error([command, "--set", "9:0,2,6,8", *_levels(command, k, 1), *common])
    for report in (three, nine):
        if isinstance(report, dict):
            for key in ("m", "n", "t0"):
                report.pop(key, None)
    assert three == nine


@given(st.sampled_from(BASE_POWER_PSIS), st.integers(min_value=1, max_value=2), windows,
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_quasi_scan_base_power_relation(psi, k, window, coprime):
    """Row (m, n) of the scan on K_{0,2,6,8}(9) is row (2m, 2n) on K_{0,2}(3),
    but for its levels, and so is a pair skipped as null; the window measure
    agrees, while c_empirical ranges over the odd levels of base 3 too."""
    common = ["--window", f"{window[0]}:{window[1]}", "--psi", *psi.split(),
              "--coprime" if coprime else "--no-coprime"]
    three = _results_or_error(["quasi-scan", "--set", "3:0,2", *_levels("quasi-scan", k, 2),
                               *common])
    nine = _results_or_error(["quasi-scan", "--set", "9:0,2,6,8",
                              *_levels("quasi-scan", k, 1), *common])
    assert isinstance(three, dict) == isinstance(nine, dict)
    if not isinstance(nine, dict):
        assert three == nine
        return
    assert three["window_measure"] == nine["window_measure"]
    rows = {(row.pop("m"), row.pop("n")): row for row in three["pairs"]}
    for row in nine["pairs"]:
        assert rows[2 * row.pop("m"), 2 * row.pop("n")] == row
    assert ({(2 * m, 2 * n) for m, n in nine["skipped_null_pairs"]}
            == {(m, n) for m, n in three["skipped_null_pairs"] if m % 2 == n % 2 == 0})


def _csv_rows(argv: list[str]) -> list[dict]:
    return list(csv.DictReader(io.StringIO(run_command(argv + ["--output", "csv"])[0])))


@given(st.sampled_from(["3:0,2", "5:0,2,3", "5:1,3"]),
       st.sampled_from(BASE_POWER_PSIS + ["powlog:2,1", "pow:3/7", "table:1=1/3,2=1/20,3=1/90"]),
       st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2), windows,
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_pairwise_is_the_quasi_scan_row(dset, psi, m, gap, window, coprime):
    """pairwise's mu_m, mu_n and mu_mn are the scan's row (m, n), and a pair
    the scan skips has a null layer and mu_mn = 0."""
    n = m + gap
    common = ["--set", dset, "--psi", *psi.split(), "--window", f"{window[0]}:{window[1]}",
              "--coprime" if coprime else "--no-coprime"]
    try:
        scan = _csv_rows(["quasi-scan", "--mmin", str(m), "--nmax", str(n), *common])
    except (InputError, PrecisionError):
        assume(False)  # a level or a case split the scan alone reads
    (pair,) = _csv_rows(["pairwise", "--m", str(m), "--n", str(n), *common])
    fields = ("mu_m", "mu_n", "mu_mn")
    rows = [{k: row[k] for k in fields} for row in scan
            if (row["m"], row["n"]) == (str(m), str(n))]
    if rows:
        assert rows == [{k: pair[k] for k in fields}]
    else:
        assert pair["mu_mn"] == "0/1" and "0/1" in (pair["mu_m"], pair["mu_n"])


@pytest.mark.xfail(strict=True, reason="an inexact enclosure depends on how the base is "
                   "written: ln 9 is not enclosed as 2 ln 3, nor 4^(12/7) as 2^(24/7)")
@pytest.mark.parametrize("psi, k", [("powlog:2,1", 1), ("pow:3/7", 3)])
def test_base_power_relation_with_inexact_enclosures(psi, k):
    three = _results_or_error(["layer", "--set", "3:0,2", "--n", str(2 * k), "--psi", psi])
    nine = _results_or_error(["layer", "--set", "9:0,2,6,8", "--n", str(k), "--psi", psi])
    for report in (three, nine):
        del report["n"], report["t0"]
    assert three == nine


REFLECTION_SETS = ["3:0,2", "4:0,3", "4:0,1", "5:0,2,3", "5:1,3", "6:1,2,4", "7:0,3,6"]
REFLECTION_PSIS = ["pow:2", "pow:3/2", "pow:4/3", "pow:3/7", "pow:1", "powlog:2,1",
                   "pow:gamma", "table:1=1/10,2=1/50,3=1/300,4=1/2000"]


@given(st.sampled_from(["layer", "measure", "pairwise", "full-cover", "quasi-scan",
                        "bc-ratio"]),
       st.sampled_from(REFLECTION_SETS), st.sampled_from(REFLECTION_PSIS),
       st.integers(min_value=1, max_value=3), windows, st.booleans())
@settings(max_examples=80, deadline=None)
def test_reflection_relation(command, dset, psi, n, window, coprime):
    """x -> 1 - x maps K_J(b) and its measure onto K_{b-1-J}(b) and its
    measure, the window [lo, hi] onto [1 - hi, 1 - lo] and the center
    p/b^n onto (b^n - p)/b^n, prime to b with p: every other field agrees."""
    base, digits = dset.split(":")
    mirror = base + ":" + ",".join(str(int(base) - 1 - int(d)) for d in digits.split(","))
    extra = _levels(command, n, 1)
    if command in ("layer", "pairwise", "quasi-scan", "bc-ratio"):
        extra += ["--psi", psi, "--coprime" if coprime else "--no-coprime"]
    lo, hi = window
    here = _results_or_error([command, "--set", dset, "--window", f"{lo}:{hi}", *extra])
    there = _results_or_error([command, "--set", mirror, "--window", f"{1 - hi}:{1 - lo}",
                               *extra])
    if isinstance(here, dict):
        if "centers" in here:
            assert ([1 - Fraction(c["rat"]) for c in reversed(here.pop("centers"))]
                    == [Fraction(c["rat"]) for c in there.pop("centers")])
        if "window" in here:
            ends, mirrored = here.pop("window"), there.pop("window")
            assert Fraction(ends["lo"]["rat"]) == 1 - Fraction(mirrored["hi"]["rat"])
            assert Fraction(ends["hi"]["rat"]) == 1 - Fraction(mirrored["lo"]["rat"])
    assert here == there
