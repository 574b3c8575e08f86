"""Seeded workload plans, item counts and output checks.

A plan is an endless sequence of iterations; each iteration is the list of
serial CLI argument vectors it runs.  The same (workload, seed) always
gives the same sequence.  The benchmark runs every command once serially
and once with ``--jobs 2``.  Nothing here imports quadunit, so the checks
stay independent of the code they check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

WORKLOADS = ("regulator_sweep", "pell_sweep", "sieve_survey", "field_queries")

# regulator_sweep: every iteration sweeps each mu once, in seeded order.
BOUND_MUS = (2, 3, 5, 7)
BOUND_LIMIT = 4000
BOUND_BAND = 80

# pell_sweep: one sweep per iteration.
PELL_LIMIT = 20_000
PELL_BAND = 1000

# sieve_survey: one index pair per iteration, each pair once in every four
# iterations (seeded order); e-mu and f-mu use its mu.  All pairs have
# y = 11, so the density sieves cost the same.
SIEVE_PAIRS = ((3, 0, 11, 5), (3, 0, 11, 6), (5, 0, 11, 4), (5, 0, 11, 7))
EMU_LIMIT = 50_000
FMU_LIMIT = 100_000
DENSITY_K_MAX = 100_000
SIEVE_BAND = 1000

# field_queries: one batch per iteration, QUERIES_PER_KIND of each kind,
# every query on a radicand not used before in the run.  A cf query costs
# about the square of the period length, which is heavy-tailed (median
# ~160, 99th percentile ~1500 here), so cf radicands are stratified: each
# batch has the same number in every CF_PERIOD_BIN-wide band of period
# lengths below CF_PERIOD_MAX.  Otherwise a few long periods would decide
# a batch's time.
QUERY_RANGE = (100_000, 1_000_000)
QUERIES_PER_KIND = 30
QUERY_MUS = (2, 3, 5, 6, 7)
CF_PERIOD_BIN = 100
CF_PERIOD_MAX = 1000


def squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


def plan(workload: str, seed: int):
    """Yield the serial commands of iteration 0, 1, 2, ..."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    used: set[int] = set()
    pairs: list[tuple[int, int, int, int]] = []
    while True:
        if workload == "regulator_sweep":
            mus = list(BOUND_MUS)
            rng.shuffle(mus)
            yield [["--format", "csv", "survey", "bound", "--mu", str(mu),
                    "--limit", str(BOUND_LIMIT + rng.randrange(BOUND_BAND))] for mu in mus]
        elif workload == "pell_sweep":
            yield [["--format", "csv", "survey", "pell", "--limit", str(PELL_LIMIT + rng.randrange(PELL_BAND))]]
        elif workload == "sieve_survey":
            if not pairs:
                pairs = rng.sample(SIEVE_PAIRS, len(SIEVE_PAIRS))
            mu, j, y, x = pairs.pop()
            yield [
                ["--format", "csv", "survey", "e-mu", "--mu", str(mu), "--limit", str(EMU_LIMIT + rng.randrange(SIEVE_BAND))],
                ["--format", "csv", "density", str(mu), str(j), str(y), str(x),
                 "--k-max", str(DENSITY_K_MAX + rng.randrange(SIEVE_BAND))],
                ["survey", "f-mu", "--mu", str(mu), "--limit", str(FMU_LIMIT + rng.randrange(SIEVE_BAND))],
            ]
        else:
            yield _query_batch(rng, used)


def _fresh_radicand(rng: random.Random, used: set[int]) -> int:
    d = rng.randrange(*QUERY_RANGE)
    while d in used or not squarefree(d):
        d = rng.randrange(*QUERY_RANGE)
    used.add(d)
    return d


def _query_batch(rng: random.Random, used: set[int]) -> list[list[str]]:
    bins = CF_PERIOD_MAX // CF_PERIOD_BIN
    quota = [QUERIES_PER_KIND // bins] * bins
    cf = []
    while len(cf) < QUERIES_PER_KIND:
        d = _fresh_radicand(rng, used)
        b = period_length(d) // CF_PERIOD_BIN
        if b < bins and quota[b]:
            quota[b] -= 1
            cf.append(d)
        else:
            used.discard(d)
    rng.shuffle(cf)
    queries = []
    for d in cf:
        queries.append(["cf", str(d)])
        queries.append(["unit", str(_fresh_radicand(rng, used))])
        queries.append(["ideals", str(_fresh_radicand(rng, used)), str(rng.choice(QUERY_MUS))])
    return queries


def period_length(d: int) -> int:
    """Steps of one period of the (P, Q) walk of w[d], as regulator() takes them."""
    sf = math.isqrt(d)
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    a = (P + sf) // Q
    P = a * Q - P
    Q = (d - P * P) // Q
    first = (P, Q)
    steps = 0
    while True:
        a = (P + sf) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        steps += 1
        if (P, Q) == first:
            return steps


def jobs2(argv: list[str]) -> list[str]:
    return ["--jobs", "2", *argv]


def option(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def squarefree_count(n: int) -> int:
    """Square-free integers in [2, n], by a plain sieve."""
    flags = bytearray(b"\x01") * (n + 1)
    i = 2
    while i * i <= n:
        flags[i * i :: i * i] = bytes(len(range(i * i, n + 1, i * i)))
        i += 1
    return sum(flags[2:])


def items(argv: list[str], output: bytes) -> int:
    """Work items one command stands for (see bench/README.md)."""
    if "bound" in argv:
        return output.count(b"\n") - 1  # trace rows, without the header
    if "pell" in argv:
        return squarefree_count(option(argv, "--limit"))  # radicands examined
    if "e-mu" in argv or "f-mu" in argv:
        return option(argv, "--limit")  # trace values scanned
    if "density" in argv:
        return option(argv, "--k-max")  # progression parameters scanned
    return 1  # one field query


def _csv_rows(output: bytes, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(output.decode())))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[:1]} is not {header}")
    if len(rows) < 2:
        raise ValueError("no data rows")
    return rows[1:]


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _norm(d: int, a: int, b: int) -> int:
    """Norm of a + b*w[d], w[d] = (1+sqrt d)/2 when d = 1 (mod 4)."""
    if d % 4 == 1:
        return a * a + a * b - b * b * ((d - 1) // 4)
    return a * a - b * b * d


def check_output(argv: list[str], output: bytes) -> str | None:
    """Exact identities every correct output satisfies; None when it does.

    These hold for every seed, so they check runs that have no reference
    digest.  They use only integer arithmetic on the printed values.
    """
    argv = argv[2:] if argv[:2] == ["--jobs", "2"] else argv
    try:
        if "bound" in argv:
            mu = option(argv, "--mu")
            for t, d, D, _, _ in _csv_rows(output, ["trace", "d", "D", "log_eps", "residual"]):
                t, d, D = int(t), int(d), int(D)
                disc = t * t - 4 * mu
                if disc % d or not _is_square(disc // d) or D != (d if d % 4 == 1 else 4 * d):
                    return f"bad bound row {t},{d},{D}"
        elif "pell" in argv:
            _csv_rows(output, ["d"])
        elif "e-mu" in argv:
            mu = option(argv, "--mu")
            for m, sigma, d, f, _ in _csv_rows(output, ["trace", "signed_norm", "d", "sqrt_coeff", "value"]):
                m, sigma, d, f = int(m), int(sigma), int(d), int(f)
                if abs(sigma) != mu or m * m - f * f * d != 4 * sigma:
                    return f"bad e-mu row {m},{sigma},{d},{f}"
        elif "density" in argv:
            ((_, predicted, empirical, k_max, _),) = _csv_rows(
                output, ["pair", "predicted", "empirical", "k_max", "cutoff"])
            if not (0 < float(predicted) < 1 and 0 < float(empirical) < 1) or int(k_max) != option(argv, "--k-max"):
                return "density out of range"
        elif "f-mu" in argv:
            doc = json.loads(output)
            if doc["mu"] != option(argv, "--mu") or not 0 < doc["count"] < doc["N"]:
                return "bad f-mu summary"
        elif argv[0] == "cf":
            doc = json.loads(output)
            d, eps = doc["d"], doc["epsilon"]
            if doc["norm_epsilon"] != (-1) ** doc["period"] or _norm(d, eps["a"], eps["b"]) != doc["norm_epsilon"]:
                return f"cf {d}: unit norm does not match the period parity"
        elif argv[0] == "unit":
            doc = json.loads(output)
            d, eps = doc["d"], doc["epsilon"]
            if abs(doc["norm"]) != 1 or _norm(d, eps["a"], eps["b"]) != doc["norm"] or not doc["regulator"] > 0:
                return f"unit {d}: not a unit"
        elif argv[0] == "ideals":
            mu = int(argv[2])
            for line in output.decode().splitlines():
                row = json.loads(line)
                if row["a"] != mu or row["c"] != 1:
                    return f"ideals {argv[1]}: basis {row} is not of norm {mu}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc}"
    return None


def micro_inputs(seed: int) -> dict:
    """Seeded inputs of the single-layer micro benchmarks."""
    rng = random.Random(f"micro:{seed}")
    radicands = set()
    while len(radicands) < 200:
        d = rng.randrange(*QUERY_RANGE)
        if squarefree(d):
            radicands.add(d)
    return {
        "radicands": sorted(radicands),
        "kernel_inputs": [rng.randrange(10**6, 10**8) for _ in range(20_000)],
        "pair": list(rng.choice(SIEVE_PAIRS)),
        "sieve_count": DENSITY_K_MAX,
        "bound": [rng.choice(BOUND_MUS), BOUND_LIMIT + rng.randrange(BOUND_BAND)],
    }


# The speed probe: a fixed pure-Python computation (CF walks and a sieve,
# the program's kinds of work, but none of its code), run by the benchmark
# just before and just after every process it starts.  Its time tracks the
# machine's speed, which changes often on a shared host.
PROBE_COUNT = 300
PROBE_SIEVE = 100_000


def probe_radicands() -> list[int]:
    rng = random.Random("probe")
    radicands: set[int] = set()
    while len(radicands) < PROBE_COUNT:
        d = rng.randrange(*QUERY_RANGE)
        if squarefree(d):
            radicands.add(d)
    return sorted(radicands)


def probe_work(radicands: list[int]) -> int:
    return sum(period_length(d) for d in radicands) + squarefree_count(PROBE_SIEVE)
