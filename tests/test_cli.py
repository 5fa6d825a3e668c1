"""Command-line interface: outputs, formats, exit codes, round trips."""

import math
import signal

import numpy as np
import pytest

from loccdetect.cli import run
from loccdetect.measurements import MEASUREMENT_NAMES


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def parse_records(text):
    fields = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        fields[key] = value
    return fields


def test_bounds_maximally_entangled(capsys):
    code, out = run_capture(capsys, ["bounds", "--schmidt", "0.5,0.5", "--theta", "0"])
    assert code == 0
    fields = parse_records(out)
    assert fields["p_err"] == "0.166666666667"
    assert "# toolkit = loccdetect" in out


def test_bounds_with_priors(capsys):
    code, out = run_capture(
        capsys, ["bounds", "--schmidt", "0.6,0.4", "--theta", "0", "--priors", "0.5"]
    )
    assert code == 0
    fields = parse_records(out)
    assert abs(float(fields["prior_weighted"]) - float(fields["p_err"])) <= 1e-12


def test_chernoff_output(capsys):
    code, out = run_capture(capsys, ["chernoff", "--lambda", "0.9"])
    assert code == 0
    fields = parse_records(out)
    assert abs(float(fields["exponent"]) - 0.510825623766) <= 1e-9
    assert fields["counterexample"] == "PASS"


def test_chernoff_below_threshold(capsys):
    code, out = run_capture(capsys, ["chernoff", "--lambda", "0.7"])
    assert code == 0
    assert parse_records(out)["counterexample"] == "FAIL"


def test_twirl_check(capsys):
    code, out = run_capture(
        capsys, ["twirl-check", "--dim", "3", "--trials", "100", "--seed", "1"]
    )
    assert code == 0
    assert float(parse_records(out)["max_discrepancy"]) <= 1e-10


def test_adversary_roundtrip_through_simulate(tmp_path, capsys):
    sigma_path = str(tmp_path / "sigma.json")
    code, out = run_capture(
        capsys,
        ["adversary", "--schmidt", "0.6,0.4", "--theta", "0.2", "--sigma-out", sigma_path],
    )
    assert code == 0
    value = float(parse_records(out)["value"])
    assert abs(value - 0.5) <= 1e-9

    code, out = run_capture(
        capsys,
        ["simulate", "--schmidt", "0.6,0.4", "--measurement", "t-tilde",
         "--sigma-file", sigma_path, "--shots", "100000", "--seed", "5"],
    )
    assert code == 0
    fields = parse_records(out)
    assert abs(float(fields["analytic"]) - value) <= 1e-6
    assert abs(float(fields["estimate"]) - float(fields["analytic"])) <= float(
        fields["ci_halfwidth"]
    )


def test_validate_subcommand(tmp_path, capsys):
    from loccdetect.operators import BipartiteOperator, write_operator

    path = str(tmp_path / "id.json")
    write_operator(BipartiteOperator(2, np.eye(4)), path)
    code, out = run_capture(capsys, ["validate", "--file", path])
    assert code == 0
    fields = parse_records(out)
    assert fields["povm"] == "PASS" and fields["ppt"] == "true"


def test_validate_failing_operator_still_exits_zero(tmp_path, capsys):
    # A FAIL verdict is a successful run; only malformed input is an error.
    from loccdetect.operators import BipartiteOperator, write_operator

    path = str(tmp_path / "double.json")
    write_operator(BipartiteOperator(2, 2.0 * np.eye(4)), path)
    code, out = run_capture(capsys, ["validate", "--file", path])
    assert code == 0
    fields = parse_records(out)
    assert fields["povm"] == "FAIL"
    assert abs(float(fields["max_eigenvalue"]) - 2.0) <= 1e-9


def test_chernoff_low_lambda_uniform_output(capsys):
    code, out = run_capture(capsys, ["chernoff", "--lambda", "0.3"])
    assert code == 0
    fields = parse_records(out)
    assert fields["counterexample"] == "FAIL"
    assert "minimax_rate" in fields["counterexample_detail"]


def test_simulate_named_sigma(capsys):
    code, out = run_capture(
        capsys,
        ["simulate", "--schmidt", "0.5,0.5", "--sigma", "orthogonal-uniform",
         "--shots", "50000", "--seed", "2"],
    )
    assert code == 0
    fields = parse_records(out)
    assert abs(float(fields["analytic"]) - 1.0 / 3.0) <= 1e-9


def test_asymptotic_csv(tmp_path, capsys):
    out_path = tmp_path / "rates.csv"
    code, _ = run_capture(
        capsys,
        ["asymptotic", "--schmidt", "0.6,0.4", "--theta", "0.3", "--n-max", "50",
         "--out", str(out_path)],
    )
    assert code == 0
    lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "lambda,theta,n,upper_bound,lower_bound,upper_rate,lower_rate,limit"
    assert len(lines) == 51
    last = lines[-1].split(",")
    assert abs(float(last[5]) - 0.510826) <= 0.015
    assert abs(float(last[7]) - 0.510826) <= 1e-6


def test_asymptotic_lambda_requires_alpha(capsys):
    code, _ = run_capture(
        capsys, ["asymptotic", "--lambda", "0.6", "--theta", "0.3", "--n-max", "5"]
    )
    assert code == 2


def test_asymptotic_lambda_with_alpha(capsys):
    code, out = run_capture(
        capsys,
        ["asymptotic", "--lambda", "0.6", "--alpha", "0.5", "--theta", "0.3",
         "--n-max", "3"],
    )
    assert code == 0
    assert "lambda,theta,n," in out


def test_figure1_csv(capsys):
    code, out = run_capture(capsys, ["figure1", "--dim", "2", "--alpha", "0.6", "--grid", "10"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "lambda,value_upper,value_lower_thm2,value_lower_simple"
    first = lines[1].split(",")
    assert abs(float(first[0]) - 0.5) <= 1e-12
    assert abs(float(first[1]) - 1.0 / 6.0) <= 1e-12


def test_figure2_csv_inf(capsys):
    code, out = run_capture(capsys, ["figure2", "--n", "inf", "--grid", "5"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("lambda,theta,value,level_01")
    assert len(lines) == 26


def test_exit_code_validation_error(capsys):
    code, _ = run_capture(capsys, ["bounds", "--schmidt", "0.6,0.5", "--theta", "0"])
    assert code == 2


def test_exit_code_missing_file(capsys):
    code, _ = run_capture(capsys, ["validate", "--file", "/nonexistent/op.json"])
    assert code == 2


def test_validate_bare_number_entries_exit_2(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text('{"local_dim": 2, "entries": [' + ", ".join(["1.0"] * 16) + "]}")
    code, _ = run_capture(capsys, ["validate", "--file", str(path)])
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["bounds", "--schmidt", "0.5,0.5", "--theta", "0", "--bogus"])
    assert err.value.code == 2


def test_metadata_echo(capsys):
    _, out = run_capture(
        capsys, ["simulate", "--schmidt", "0.5,0.5", "--shots", "10", "--seed", "42"]
    )
    assert "# seed = 42" in out
    assert "shots=10" in out


@pytest.mark.parametrize("name", MEASUREMENT_NAMES)
def test_bounds_and_adversary_accept_every_measurement(name, tmp_path, capsys):
    extra = ["--measurement", name] + (["--mu", "0.3"] if name == "t-mu" else [])
    common = ["--schmidt", "0.6,0.4", "--theta", "0.3"] + extra
    code, out = run_capture(capsys, ["bounds"] + common)
    assert code == 0
    assert "worst_case_value" in parse_records(out)
    sigma_out = str(tmp_path / "sigma.json")
    code, out = run_capture(capsys, ["adversary"] + common + ["--sigma-out", sigma_out])
    assert code == 0
    assert "value" in parse_records(out)


def test_bounds_product_tiny_theta_terminates(capsys):
    # The dual search once looped forever here: near mu = 2e6 the float
    # spacing exceeds an absolute bracket width of 1e-10.
    def on_alarm(signum, frame):
        raise TimeoutError("bounds did not return within 3 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(3)
    try:
        code, out = run_capture(
            capsys,
            ["bounds", "--schmidt", "0.5,0.5", "--theta", "1e-15", "--measurement", "product"],
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    theta, lam = 1e-15, 0.5
    exact = (math.sqrt(theta * lam) + math.sqrt((1.0 - theta) * (1.0 - lam))) ** 2
    assert abs(float(parse_records(out)["worst_case_value"]) - exact) <= 1e-7


def test_adversary_product_boundary_optimum_is_exact(tmp_path, capsys):
    code, out = run_capture(
        capsys,
        [
            "adversary", "--schmidt", "0.6,0.4", "--theta", "0.8", "--measurement", "product",
            "--sigma-out", str(tmp_path / "sigma.json"),
        ],
    )
    assert code == 0
    fields = parse_records(out)
    assert fields["value"] == "1"
    assert fields["dual_mu"] == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ["figure2", "--n", "abc"],
        ["figure1", "--dim", "0", "--alpha", "0.5"],
        ["figure1", "--dim", "1", "--alpha", "0"],
        ["twirl-check", "--dim", "2", "--trials", "-1"],
    ],
)
def test_bad_input_exits_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
