"""Seeded request cycles of the three workloads.

A cycle is the smallest block of requests with a fixed mix.  A run repeats
cycles, each with fresh seeded inputs, so every run sends the same mix of
request kinds whatever its seed.  A job is a chain of requests that stops at
its first failure, the way a shell script run with ``set -e`` would.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

# The measurement names and the simulatable subset of the command line,
# fixed here so the workload does not change when the package does.
NAMES = ("q0", "q", "r", "t-mu", "t-tilde", "q2", "t-tilde2", "product", "helstrom")
SIMULATABLE = ("t-tilde", "t-tilde2", "r", "q", "q0", "product")
T_MU = 0.5

PIPELINE_DIMS = (4, 8, 12, 16)
PIPELINE_THETAS = (0.0, 1e-15, 0.05, 0.3, 0.8)
PIPELINE_SHOTS = 20000
FAMILIES = ("dirichlet", "uniform", "near-product", "degenerate-top")

SHOTS_DIMS = (2, 3, 4)
SHOTS_SIGMAS = ("orthogonal-uniform", "basis:0,1", "worst-case")
SHOTS_THETA = 0.3
#: Shots per request: nine rungs from 1e6 to 4e6, geometric mean 2e6.  With
#: one shot count the three fast samplers (product, q0, r) and the three
#: slow ones would split the requests in half, and the median latency would
#: sit in the gap between them, set by the two groups' extreme requests.
SHOT_LADDER = tuple(round(2e6 * 2 ** ((i - 4) / 4)) for i in range(9))

#: Additive recurrence of the golden ratio: any run of consecutive cycles
#: covers the parameter ranges evenly.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TABLE_N_MAX = 100_000
FIG2_GRID = 300
FIG1_GRID = 1000


@dataclass(frozen=True)
class Request:
    """One ``cli.run`` call and the oracle for its payload.

    ``check(payload)`` returns a list of problems.  ``shots`` and ``rows``
    are the work a successful request does.  ``output`` is a file the
    request writes; the client removes it beforehand, because truncating a
    file that still has unwritten data makes ext4 flush it to disk first
    (~50 ms on a 2-core x86-64 machine with a virtual disk), which would time
    the disk instead of the program.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    shots: int = 0
    rows: int = 0
    output: str | None = None


def spectrum(family: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """Schmidt coefficients of one spectrum family."""
    if family == "uniform":
        return np.full(d, 1.0 / d)
    if family == "near-product":
        eps = rng.uniform(1e-4, 1e-2) / (d - 1)
        c = np.full(d, eps)
        c[0] = 1.0 - eps * (d - 1)
        return c
    c = np.sort(rng.dirichlet(np.ones(d)))[::-1]
    if family == "degenerate-top":
        c[:2] = c[:2].mean()
    return c


def _fmt(coeffs) -> str:
    return ",".join(repr(float(x)) for x in coeffs)


def pipeline_job(d, name, theta, coeffs, sim_seed, stats, sigma_path):
    """The README chain for one instance: bounds, adversary, then simulate."""
    s = oracle.Spectrum(coeffs)
    mu = T_MU if name == "t-mu" else None
    common = ("--schmidt", _fmt(coeffs), "--theta", repr(theta), "--measurement", name)
    common += ("--mu", repr(T_MU)) if mu is not None else ()
    tag = f"d={d} {name} theta={theta!r}"
    # The adversary check hands its value and state to the simulate check.
    ctx = {} if name in SIMULATABLE else None
    job = [
        Request(f"bounds {tag}", ("bounds",) + common,
                functools.partial(oracle.check_bounds, s, theta, name, mu)),
        Request(f"adversary {tag}", ("adversary",) + common + ("--sigma-out", sigma_path),
                functools.partial(oracle.check_adversary, s, theta, name, mu, sigma_path, ctx),
                output=sigma_path),
    ]
    if name in SIMULATABLE:
        argv = ("simulate", "--schmidt", _fmt(coeffs), "--measurement", name,
                "--sigma-file", sigma_path, "--shots", str(PIPELINE_SHOTS), "--seed", str(sim_seed))
        job.append(Request(f"simulate {tag}", argv,
                           functools.partial(oracle.check_pipeline_simulate, s, name,
                                             PIPELINE_SHOTS, stats, ctx),
                           shots=PIPELINE_SHOTS))
    return job


def pipeline_cycle(seed: int, cycle: int, stats: dict, workdir: str):
    """180 instances: every (d, measurement, theta) triple once.

    Instance k has d = DIMS[k % 4], name = NAMES[k % 9] and theta =
    THETAS[k % 5], for k from a seeded start.  4, 9 and 5 are coprime, so any
    180 consecutive k hold every triple once and the three factors stay
    interleaved.  The spectrum family and its coefficients are drawn per
    instance.  A smaller cycle would hold a seed-dependent share of the
    d = 16 solves, which dominate the time.
    """
    start = int(np.random.default_rng([seed, 0]).integers(180))
    rng = np.random.default_rng([seed, 1, cycle])
    sigma_path = f"{workdir}/sigma_star.json"
    jobs = []
    for k in range(start, start + 180):
        d = PIPELINE_DIMS[k % 4]
        coeffs = spectrum(FAMILIES[rng.integers(len(FAMILIES))], d, rng)
        jobs.append(pipeline_job(d, NAMES[k % 9], PIPELINE_THETAS[k % 5], coeffs,
                                  int(rng.integers(2**31)), stats, sigma_path))
    return jobs


def shots_cycle(seed: int, cycle: int, stats: dict, workdir: str):
    """Every (d, simulatable measurement, sigma family) once, shuffled.

    Each measurement's nine requests take the nine rungs of SHOT_LADDER in a
    fixed Latin arrangement, so every cycle holds the same (measurement, d,
    sigma, shots) requests; the seed draws spectra, sampler seeds and order.
    """
    rng = np.random.default_rng([seed, 2, cycle])
    jobs = []
    for i, name in enumerate(SIMULATABLE):
        for j, (family, d) in enumerate(itertools.product(SHOTS_SIGMAS, SHOTS_DIMS)):
            shots = SHOT_LADDER[(j + 2 * i) % len(SHOT_LADDER)]
            s = oracle.Spectrum(spectrum("dirichlet", d, rng))
            if family == "worst-case":
                analytic, value = None, oracle.worst_case(name, s, SHOTS_THETA)
            else:
                analytic, value = oracle.named_sigma_acceptance(name, s, family), None
            argv = ("simulate", "--schmidt", _fmt(s.c), "--measurement", name, "--sigma", family,
                    "--theta", repr(SHOTS_THETA), "--shots", str(shots),
                    "--seed", str(int(rng.integers(2**31))))
            check = functools.partial(oracle.check_simulate, shots, analytic, value, stats)
            jobs.append([Request(f"simulate d={d} {name} {family}", argv, check, shots=shots)])
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _golden(seed: int, stream: int, cycle: int) -> float:
    """Point ``cycle`` of a seeded golden-ratio sequence in [0, 1)."""
    start = np.random.default_rng([seed, 5, stream]).random()
    return (start + cycle * GOLDEN) % 1.0


def tables_cycle(seed: int, cycle: int, stats: dict, workdir: str):
    """Rate tables in all four forms, three level grids, a curve, a verdict.

    The scalar parameters follow golden-ratio sequences, so the underflow
    depth of the rate tables, which sets their formatting cost, varies
    evenly from cycle to cycle.
    """
    rng = np.random.default_rng([seed, 3, cycle])
    check_rng = np.random.default_rng([seed, 4, cycle])
    d = 2 + cycle % 5
    s = oracle.Spectrum(spectrum("dirichlet", d, rng))
    theta = 0.05 + 0.9 * _golden(seed, 0, cycle)
    lam = 0.3 + 0.69 * _golden(seed, 1, cycle)
    alpha = 0.1 + 0.9 * _golden(seed, 2, cycle)
    chernoff_lam = 0.55 + 0.44 * _golden(seed, 3, cycle)
    fig1_alpha = 0.1 + 0.9 * _golden(seed, 4, cycle)
    requests = []
    for bits in (False, True):
        flag = ("--bits",) if bits else ()
        common = ("--theta", repr(theta), "--n-max", str(TABLE_N_MAX)) + flag
        requests.append(Request(
            f"asymptotic schmidt bits={bits}", ("asymptotic", "--schmidt", _fmt(s.c)) + common,
            functools.partial(oracle.check_asymptotic, s.lam, s.alpha, theta, TABLE_N_MAX,
                              bits, check_rng), rows=TABLE_N_MAX))
        requests.append(Request(
            f"asymptotic lambda bits={bits}",
            ("asymptotic", "--lambda", repr(lam), "--alpha", repr(alpha)) + common,
            functools.partial(oracle.check_asymptotic, lam, alpha, theta, TABLE_N_MAX,
                              bits, check_rng), rows=TABLE_N_MAX))
    for n in ("1", "3", "inf"):
        requests.append(Request(
            f"figure2 n={n}", ("figure2", "--n", n, "--grid", str(FIG2_GRID)),
            functools.partial(oracle.check_figure2, n, FIG2_GRID, check_rng),
            rows=FIG2_GRID * FIG2_GRID))
    requests.append(Request(
        f"figure1 d={d}", ("figure1", "--dim", str(d), "--alpha", repr(fig1_alpha),
                           "--grid", str(FIG1_GRID)),
        functools.partial(oracle.check_figure1, d, fig1_alpha, FIG1_GRID, check_rng),
        rows=FIG1_GRID))
    requests.append(Request("chernoff", ("chernoff", "--lambda", repr(chernoff_lam)),
                            functools.partial(oracle.check_chernoff, chernoff_lam)))
    return [[requests[i]] for i in rng.permutation(len(requests))]


#: Seconds one cycle takes on a 2-core x86-64 machine; a run of S seconds
#: sends round(S / CYCLE_SECONDS) cycles, at least one.
CYCLE_SECONDS = {"pipeline": 50.0, "shots": 5.0, "tables": 2.0}

WORKLOADS = {"pipeline": pipeline_cycle, "shots": shots_cycle, "tables": tables_cycle}
