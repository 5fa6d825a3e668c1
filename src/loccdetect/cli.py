"""Command-line front end emitting structured text and CSV tables.

Every run echoes the toolkit version, the seed (when one applies) and the
full parameter set as ``#``-prefixed metadata lines ahead of the payload.
Exit codes: 0 success, 2 validation/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .analysis import error_report, prior_weighted_worst_case, worst_case_value
from .asymptotics import (
    classical_chernoff,
    counterexample_rates,
    figure1_csv,
    figure2_csv,
    rate_rows,
    rate_table,
)
from .errors import NumericalFailureError, ValidationError
from .measurements import MEASUREMENT_NAMES, build_measurement
from .operators import BipartiteOperator, read_operator, validate_povm_element, write_operator
from .simulator import SIMULATABLE, ShotConfig, make_sigma, simulate
from .states import make_spectrum, schmidt_state
from .twirl import twirl_discrete, twirl_entrywise

LN2 = math.log(2.0)


def _parse_spectrum(text: str):
    try:
        raw = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"malformed spectrum {text!r}: comma-separated reals") from exc
    return make_spectrum(raw, len(raw))


def _metadata(args: argparse.Namespace) -> list[str]:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    lines = [f"# toolkit = loccdetect {__version__}"]
    if "seed" in echo:
        lines.append(f"# seed = {echo['seed']}")
    lines.append("# params = " + " ".join(f"{k}={v}" for k, v in echo.items()))
    return lines


def _emit(args: argparse.Namespace, payload: str) -> None:
    text = "\n".join(_metadata(args)) + "\n" + payload
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bounds(args) -> int:
    spectrum = _parse_spectrum(args.schmidt)
    measurement = build_measurement(args.measurement, spectrum, mu=args.mu)
    report = error_report(spectrum, args.theta, measurement)
    payload = report.to_text()
    if args.priors is not None:
        rho = schmidt_state(spectrum).density
        weighted = prior_weighted_worst_case(measurement.operator, rho, args.theta, args.priors)
        payload += f"\nprior_weighted = {weighted:.12g}"
    _emit(args, payload)
    return 0


def _cmd_adversary(args) -> int:
    spectrum = _parse_spectrum(args.schmidt)
    if args.measurement_file:
        effect = read_operator(args.measurement_file)
    else:
        effect = build_measurement(args.measurement, spectrum, mu=args.mu).operator
    rho = schmidt_state(spectrum).density
    result = worst_case_value(effect, rho, args.theta)
    write_operator(result.sigma_star, args.sigma_out)
    payload = "\n".join(
        [
            f"value = {result.value:.12g}",
            f"dual_mu = {result.dual_mu:.12g}",
            f"sigma_star_file = {args.sigma_out}",
        ]
    )
    _emit(args, payload)
    return 0


def _cmd_twirl_check(args) -> int:
    if args.trials < 1:
        raise ValidationError(f"trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        d = args.dim
        g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        op = BipartiteOperator(d, 0.5 * (g + g.conj().T))
        gap = float(np.abs(twirl_discrete(op).matrix - twirl_entrywise(op).matrix).max())
        worst = max(worst, gap)
    _emit(args, f"trials = {args.trials}\nmax_discrepancy = {worst:.12g}")
    return 0


def _cmd_simulate(args) -> int:
    spectrum = _parse_spectrum(args.schmidt)
    if args.sigma_file:
        sigma = read_operator(args.sigma_file)
    else:
        sigma = make_sigma(args.sigma, spectrum, measurement=args.measurement, theta=args.theta)
    config = ShotConfig(args.measurement, spectrum, sigma, args.shots, args.seed)
    result = simulate(config)
    payload = "\n".join(
        [
            f"accepts = {result.accepts}",
            f"estimate = {result.estimate:.12g}",
            f"analytic = {result.analytic:.12g}",
            f"ci_halfwidth = {result.ci_halfwidth:.12g}",
        ]
    )
    _emit(args, payload)
    return 0


def _cmd_asymptotic(args) -> int:
    if args.schmidt:
        spectrum = _parse_spectrum(args.schmidt)
        table = rate_table(spectrum, args.theta, args.n_max)
    else:
        if args.lam is None:
            raise ValidationError("asymptotic needs --schmidt or --lambda")
        if args.alpha is None:
            raise ValidationError(
                "--lambda alone is ambiguous here (the lower bound needs alpha); "
                "add --alpha or give the full --schmidt spectrum"
            )
        table = rate_rows(args.lam, args.alpha, args.theta, args.n_max)
    if args.bits:
        table.upper_rate = table.upper_rate / LN2
        table.lower_rate = table.lower_rate / LN2
        table.limit = table.limit / LN2
    _emit(args, table.to_csv())
    return 0


def _cmd_chernoff(args) -> int:
    lam = args.lam
    if lam is None:
        raise ValidationError("chernoff requires --lambda")
    result = classical_chernoff((lam, 1.0 - lam), (1.0 - lam, lam))
    scale = LN2 if args.bits else 1.0
    lines = [
        f"s_star = {result.s_star:.12g}",
        f"exponent = {result.exponent / scale:.12g}",
        f"infinite = {str(result.infinite).lower()}",
    ]
    if 0.0 < lam < 1.0:
        a, b = counterexample_rates(lam)
        passed = lam > 0.8 and a < b
        lines.append(f"counterexample = {'PASS' if passed else 'FAIL'}")
        lines.append(
            f"counterexample_detail = minimax_rate={a / scale:.12g} product_rate={b / scale:.12g}"
        )
    _emit(args, "\n".join(lines))
    return 0


def _cmd_figure1(args) -> int:
    _emit(args, figure1_csv(args.dim, args.alpha, args.grid))
    return 0


def _cmd_figure2(args) -> int:
    try:
        n = math.inf if args.n == "inf" else int(args.n)
    except ValueError as exc:
        raise ValidationError(f"--n must be a positive integer or 'inf', got {args.n!r}") from exc
    _emit(args, figure2_csv(n, args.grid))
    return 0


def _cmd_validate(args) -> int:
    op = read_operator(args.file)
    verdict = validate_povm_element(op)
    payload = "\n".join(
        [
            f"povm = {'PASS' if verdict.passed else 'FAIL'}",
            f"min_eigenvalue = {verdict.min_eigenvalue:.12g}",
            f"max_eigenvalue = {verdict.max_eigenvalue:.12g}",
            f"ppt = {str(verdict.ppt).lower()}",
        ]
    )
    _emit(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccdetect",
        description="Worst-case error analysis and simulation of local tests "
        "for a known bipartite pure state.",
    )
    parser.add_argument("--version", action="version", version=f"loccdetect {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("bounds", help="error report for one spectrum and overlap")
    p.add_argument("--schmidt", required=True, help="comma-separated coefficients, e.g. 0.6,0.4")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--measurement", default="t-tilde",
                   choices=list(MEASUREMENT_NAMES))
    p.add_argument("--mu", type=float, help="mixture weight for t-mu")
    p.add_argument("--priors", type=float, help="prior pi0 of the target hypothesis")
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("adversary", help="worst-case state for a fixed effect")
    p.add_argument("--schmidt", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--measurement", default="t-tilde",
                   choices=list(MEASUREMENT_NAMES))
    p.add_argument("--measurement-file", help="operator file overriding --measurement")
    p.add_argument("--mu", type=float)
    p.add_argument("--sigma-out", default="sigma_star.json", help="operator file for sigma*")
    add_common(p)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("twirl-check", help="cross-check the two twirl implementations")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_twirl_check)

    p = sub.add_parser("simulate", help="shot-by-shot protocol simulation")
    p.add_argument("--schmidt", required=True)
    p.add_argument("--measurement", default="t-tilde", choices=list(SIMULATABLE))
    p.add_argument("--sigma", default="orthogonal-uniform",
                   help="named family: orthogonal-uniform, worst-case, basis:i,j")
    p.add_argument("--sigma-file", help="operator file overriding --sigma")
    p.add_argument("--theta", type=float, default=0.0, help="overlap for --sigma worst-case")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("asymptotic", help="per-copy-count bound and rate table (CSV)")
    p.add_argument("--schmidt")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--bits", action="store_true", help="report rates in bits (divide by log 2)")
    add_common(p)
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("chernoff", help="repeated product-test exponent and rate comparison")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--bits", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_chernoff)

    p = sub.add_parser("figure1", help="zero-overlap bound curves over lambda (CSV)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--grid", type=int, default=100)
    add_common(p)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("figure2", help="level-region grid over (lambda, theta) (CSV)")
    p.add_argument("--n", default="1", help="copy count, or 'inf' for the limit")
    p.add_argument("--grid", type=int, default=200)
    add_common(p)
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser("validate", help="POVM/PPT verdicts for an operator file")
    p.add_argument("--file", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
