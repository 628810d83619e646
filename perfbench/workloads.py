"""Seeded op lists: each op is the argv of one `cantorapprox` CLI call.

A workload is a fixed list of anchor ops plus a number of rounds of
seeded draws from each of its slots.  The parameters that set an op's
cost (radius function, --coprime, level, depth, terms) are stratified
over the rounds of a slot: each value is used equally often, in a seeded
order.  The seed draws the rest (windows, quotient prefixes, tau, the
order of the ops) freely.  Runs on different seeds therefore cost about
the same, and their metrics stay comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction

SETS = ("3:0,2", "4:0,3", "5:0,2,3")
PSIS = ("pow:2", "pow:3", "pow:3/2", "powlog:2,1")
COPRIME = ("--coprime", "--no-coprime")
# sets whose similarity exponent gamma is irrational
IRRATIONAL_GAMMA_SETS = ("3:0,2", "5:0,2,3", "7:0,3,6")
TAUS = ("11/5", "5/2", "11/4", "3", "10/3", "7/2")
# `exponent` depth band per rule, inside the intended 40-100: one op then
# costs about 1 s on a 2-core x86 box (1.5-2.5 s for 7/2 and factorial at
# the least depth, 40).  Above these bands the cost climbs steeply; at
# depth 100 `--rule factorial --terms 7` takes 361 s.
EXPONENT_DEPTH = {"11/5": (90, 100), "5/2": (78, 88), "11/4": (60, 66), "3": (48, 54),
                  "10/3": (40, 42), "7/2": (40, 40), "factorial": (40, 40)}


def cycle(rng: random.Random, values, rounds: int) -> list:
    """One value per round: seeded permutations of `values` back to back."""
    out: list = []
    while len(out) < rounds:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out[:rounds]


def spread(rng: random.Random, lo: int, hi: int, rounds: int) -> list[int]:
    """One integer in [lo, hi] per round, one from each of `rounds` equal bands."""
    width = (hi - lo + 1) / rounds
    return [lo + int(width * (band + rng.random())) for band in cycle(rng, range(rounds), rounds)]


def _primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\0\0"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(limit + 1) if sieve[p]]


# primes up to about 1e4: CDF digit cycles as long as the order of the
# base modulo such a prime
PRIMES = _primes(10_007)[4:]


def rational_in(rng: random.Random, base: int, lo: Fraction, hi: Fraction) -> str:
    """A rational strictly inside (lo, hi) whose denominator is a power of
    the base, a prime, or both multiplied."""
    kind = rng.randrange(3)
    den = 1
    if kind != 1:
        den *= base ** rng.randint(2, 6)
    if kind != 0:
        den *= rng.choice(PRIMES)
    first = (lo * den).__floor__() + 1
    last = -((-hi * den).__floor__()) - 1
    num = rng.randint(first, last)
    return str(Fraction(num, den))


def window(rng: random.Random, base: int) -> str:
    """LO:HI with LO in (0, 1/4) and HI in (3/4, 1), so that it meets the
    first and the last cell of every set drawn here."""
    return (f"{rational_in(rng, base, Fraction(0), Fraction(1, 4))}:"
            f"{rational_in(rng, base, Fraction(3, 4), Fraction(1))}")


def _base(dset: str) -> int:
    return int(dset.split(":")[0])


def _tail(rng: random.Random, dset: str, psi: str) -> list[str]:
    # 5:0,2,3 has adjacent digits, so its center counts are enumerated
    # (3^n of them at level n) and its levels stop at 7
    n0 = rng.randint(1, 3)
    nmax = 7 if dset == "5:0,2,3" else n0 + rng.randint(4, 16)
    return ["tail", "--set", dset, "--psi", psi, "--f", "pow:gamma",
            "--n0", str(n0), "--nmax", str(nmax)]


# ---------------------------------------------------------------------------
# layer-measure
# ---------------------------------------------------------------------------

# Levels that make one op cost about 0.25 s on a 2-core x86 box with
# pow:2 and --coprime, per command and set.  5:0,2,3 has 3^n centers per
# level, the other sets 2^n.
BASE_LEVEL = {
    "layer": {"3:0,2": 10, "4:0,3": 10, "5:0,2,3": 6},
    "pairwise": {"3:0,2": 9, "4:0,3": 9, "5:0,2,3": 6},
    "quasi-scan": {"3:0,2": 8, "4:0,3": 8, "5:0,2,3": 5},
    "bc-ratio": {"3:0,2": 8, "4:0,3": 8, "5:0,2,3": 5},
}
# Levels taken off for the costlier radius functions and for --no-coprime,
# which multiply an op's cost by about 1.5 to 4; one level divides it by
# about 2.5 on the two-digit sets and 3 on 5:0,2,3.  Ops of one command
# then cost about the same, so op_s.p50 and op_s.tail fall inside a
# cluster of like ops and move little from seed to seed.
LEVEL_CUT = {"pow:3/2": 1, "powlog:2,1": 2, "--no-coprime": 1}
LEVEL_CUT_5 = {"powlog:2,1": 1}


def _layer_op(rng: random.Random, command: str, dset: str, psi: str, coprime: str) -> list[str]:
    cuts = LEVEL_CUT_5 if dset == "5:0,2,3" else LEVEL_CUT
    n = BASE_LEVEL[command][dset] - cuts.get(psi, 0) - cuts.get(coprime, 0)
    if command == "pairwise":
        size = ["--m", str(rng.randint(max(1, n - 4), n - 1)), "--n", str(n)]
    else:
        size = [{"layer": "--n", "quasi-scan": "--nmax", "bc-ratio": "--q"}[command], str(n)]
    return [command, *size, "--set", dset, "--psi", psi,
            "--window", window(rng, _base(dset)), coprime]


def layer_measure(rng: random.Random, rounds: int) -> list[list[str]]:
    ops = []
    for dset in SETS:
        for command in ("layer", "pairwise"):
            ops += [_layer_op(rng, command, dset, psi, coprime)
                    for psi, coprime in zip(cycle(rng, PSIS, rounds),
                                            cycle(rng, COPRIME, rounds))]
        ops += [["measure", "--set", dset, "--window", window(rng, _base(dset))]
                for _ in range(rounds)]
    for command in ("quasi-scan", "bc-ratio"):
        ops += [_layer_op(rng, command, dset, psi, coprime)
                for dset, psi, coprime in zip(cycle(rng, SETS, rounds), cycle(rng, PSIS, rounds),
                                              cycle(rng, COPRIME, rounds))]
    ops += [_tail(rng, dset, rng.choice(PSIS[:3])) for dset in cycle(rng, SETS, rounds)]
    return ops


# ---------------------------------------------------------------------------
# enclosure-cf
# ---------------------------------------------------------------------------

def _rule(rule: str) -> list[str]:
    return ["--rule", "factorial"] if rule == "factorial" else ["--tau", rule]


def _cf_x(rng: random.Random, kind: str) -> list[str]:
    if kind == "golden":
        return ["--x", "golden"]
    if kind == "sqrt":
        p = rng.randint(1, 40)
        return ["--x", f"sqrt:{Fraction(p, p + rng.randint(1, 40))}"]
    return ["--x", "xi", *_rule(rng.choice(TAUS)), "--terms", str(rng.randint(5, 7))]


def enclosure_cf(rng: random.Random, rounds: int) -> list[list[str]]:
    ops = []
    for rule, (lo, hi) in EXPONENT_DEPTH.items():
        for terms, depth, min_q in zip(cycle(rng, (5, 6, 7), rounds),
                                       spread(rng, lo, hi, rounds),
                                       cycle(rng, (2, 50), rounds)):
            ops.append(["exponent", "--x", "xi", *_rule(rule), "--terms", str(terms),
                        "--depth", str(depth), "--min-q", str(min_q)])
    # Three quick ops and one xi-verify per round against seven `exponent`
    # ops, so that op_s.p50 and op_s.tail both fall among the `exponent` ops.
    quick = cycle(rng, ("cf-gamma", "cf", "xi-build", "series", "tail", "dim-estimate"),
                  3 * rounds)
    for kind in quick:
        dset = rng.choice(IRRATIONAL_GAMMA_SETS)
        if kind == "cf-gamma":
            ops.append(["cf", "--x", "gamma", "--set", dset,
                        "--depth", str(rng.randint(20, 60))])
        elif kind == "cf":
            ops.append(["cf", *_cf_x(rng, rng.choice(("golden", "sqrt", "xi"))),
                        "--depth", str(rng.randint(20, 60))])
        elif kind == "xi-build":
            ops.append(["xi-build", *_rule(rng.choice(TAUS + ("factorial",))),
                        "--terms", str(rng.randint(5, 7))])
        elif kind == "series":
            ops.append(["series", "--set", dset, "--psi", "pow:2",
                        "--f", f"pow:{rng.choice(('1', '2', '1/2'))}*gamma",
                        "--nmax", str(rng.randint(10, 40))])
        elif kind == "tail":
            ops.append(_tail(rng, dset, rng.choice(("pow:2", "pow:3", "pow:2*gamma"))))
        else:
            ops.append(["dim-estimate", "--tau", rng.choice(("1", "3/2", "2", "3")),
                        "--n", str(rng.randint(3, 7))])
    # terms 5, 6 and 7 in turn, from the first round on, so that every run
    # of three or more rounds meets the known --terms 7 Legendre defect
    for index in range(rounds):
        ops.append(["xi-verify", *_rule(rng.choice(TAUS + ("factorial",))),
                    "--terms", str(5 + index % 3)])
    return ops


# ---------------------------------------------------------------------------
# cylinder-walk
# ---------------------------------------------------------------------------

def _quotients(rng: random.Random) -> str:
    return ",".join(str(rng.randint(1, 6)) for _ in range(rng.randint(1, 5)))


def cylinder_walk(rng: random.Random, rounds: int) -> list[list[str]]:
    ops = []
    for _ in range(rounds):
        ops += [["cf-interval", "--quotients", _quotients(rng), "--depth", str(depth)]
                for depth in range(10, 18)]
        ops += [["cf-interval", "--set", "5:0,2,3", "--quotients", _quotients(rng),
                 "--depth", str(depth)] for depth in (8, 10)]
        ops += [["full-cover", "--n", str(n), "--window", window(rng, 3)]
                for n in range(6, 11)]
    for tau in ("1", "3/2", "2", "3"):
        ops += [["dim-estimate", "--tau", tau, "--n", str(n)]
                for n in spread(rng, 6, 11, rounds)]
    return ops


# ---------------------------------------------------------------------------

WORKERS_ANCHOR = ["quasi-scan", "--psi", "pow:2", "--nmax", "10", "--workers", "2"]
SERIAL_TWIN = WORKERS_ANCHOR[:-2]

ANCHORS = {
    "layer-measure": [WORKERS_ANCHOR, SERIAL_TWIN,
                      ["layer", "--psi", "pow:2", "--n", "12"],
                      ["bc-ratio", "--psi", "pow:2", "--q", "10"]],
    "enclosure-cf": [["exponent", "--x", "xi", "--tau", "3", "--terms", "6",
                      "--depth", "60", "--min-q", "50"]],
    "cylinder-walk": [["cf-interval", "--quotients", "1,1,1,1", "--depth", "18"]],
}

DRAWS = {"layer-measure": layer_measure, "enclosure-cf": enclosure_cf,
         "cylinder-walk": cylinder_walk}

# Measured seconds of the anchors and of one round on a 2-core x86 box:
# a run of --seconds S draws enough rounds to last about S seconds.
COST = {"layer-measure": (12.0, 2.6), "enclosure-cf": (2.0, 7.5),
        "cylinder-walk": (1.5, 6.5)}

WORKLOADS = tuple(ANCHORS)
DEFAULT_SEED = 0


def rounds_for(workload: str, seconds: float) -> int:
    anchors, per_round = COST[workload]
    return max(1, round((seconds - anchors) / per_round))


def op_list(workload: str, seed: int, seconds: float) -> list[list[str]]:
    """The anchors, then the seeded draws in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    draws = DRAWS[workload](rng, rounds_for(workload, seconds))
    rng.shuffle(draws)
    return [list(a) for a in ANCHORS[workload]] + draws
