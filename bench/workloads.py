"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same inputs on every machine.  Number theory needed to choose inputs (and to
count the fields a sweep must report) uses the small sieve below, never
``twoclass.arith``, so the checks stay independent of the code they check.
"""

from __future__ import annotations

import math
import random

# verify_sweep: one window per stratum of [3, VERIFY_LIMIT), the range the
# default oracle limit 2e6 = 8 * 250000 allows.  The oracle's work per field
# grows like sqrt(d), so a window is VERIFY_WIDTH * sqrt(VERIFY_REF / m) wide,
# m the stratum's midpoint: every window costs about the same, and the
# latency percentiles do not hinge on where the seed put one window.
VERIFY_LIMIT = 250_000
VERIFY_STRATA = 8
VERIFY_WIDTH = 100
VERIFY_REF = 125_000

# predict_sweep: windows near 10^6, where genus ranks of Q(sqrt(2d)) factor
# 8d beyond the sieve.
PREDICT_BASE = 1_000_000
PREDICT_SPAN = 100_000
PREDICT_STRATA = 4
PREDICT_WIDTH = 5_000

# field_queries
QUERY_ORACLE_LIMIT = 8_000_000
CLASSIFY_RANGE = (500_000, 1_000_000)
CLASSGROUP_RANGE = (125_000, 1_000_000)
UNIT_EXPONENTS = (6.0, 9.0)
QUERIES_PER_SECOND = 64  # on a 2-core Xeon; sizes the sessions to --seconds
QUERY_SESSIONS = 5
SHAPES = ((3, 5, 5, 7), (3, 3, 3, 7))


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


_PRIMES = primes_upto(32_000)  # decides square-freeness below 32003^2 > 10^9


def odd_squarefree(lo: int, hi: int) -> list[int]:
    """Odd square-free d with max(lo, 3) <= d < hi, by a sieve on p^2."""
    lo = max(lo, 3)
    if hi <= lo:
        return []
    flags = bytearray([1]) * (hi - lo)
    for p in primes_upto(math.isqrt(hi - 1)):
        q = p * p
        start = -lo % q
        flags[start::q] = bytes(len(range(start, hi - lo, q)))
    return [n for n in range(lo | 1, hi, 2) if flags[n - lo]]


def is_squarefree(n: int) -> bool:
    for p in _PRIMES:
        q = p * p
        if q > n:
            return True
        if n % q == 0:
            return False
    raise ValueError(f"{n} is beyond the square-freeness table")


def small_factor(n: int) -> list[int] | None:
    """Prime divisors of square-free n < 10^9 with multiplicity check, or
    None when n is not square-free."""
    out = []
    for p in _PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            out.append(p)
    if n > 1:
        out.append(n)
    return out


def verify_windows(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(f"verify:{seed}")
    edges = [3 + (VERIFY_LIMIT - 3) * i // VERIFY_STRATA for i in range(VERIFY_STRATA + 1)]
    out = []
    for a, b in zip(edges, edges[1:]):
        width = round(VERIFY_WIDTH * math.sqrt(VERIFY_REF / ((a + b) / 2)))
        lo = a + rng.randrange(b - a - width + 1)
        out.append((lo, lo + width))
    return out


def predict_windows(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(f"predict:{seed}")
    step = PREDICT_SPAN // PREDICT_STRATA
    out = []
    for i in range(PREDICT_STRATA):
        a = PREDICT_BASE + i * step
        lo = a + rng.randrange(step - PREDICT_WIDTH + 1)
        out.append((lo, lo + PREDICT_WIDTH))
    return out


def _stratified(rng, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi): the mix of
    small and large inputs, hence the latency percentiles, barely moves
    with the seed."""
    return [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]


def _next_field(start: int, wanted, taken: set) -> int:
    """The first d >= start, not yet taken, for which wanted(d) holds."""
    d = start
    while d in taken or not wanted(d):
        d += 1
    taken.add(d)
    return d


def _has_shape(shape):
    def wanted(d):
        if d % 2 == 0:
            return False
        primes = small_factor(d)
        return bool(primes) and len(primes) == 4 and tuple(sorted(p % 8 for p in primes)) == shape

    return wanted


def query_count(seconds: int) -> int:
    """Queries per session, so that QUERY_SESSIONS sessions fill --seconds."""
    return 4 * max(25, math.ceil(seconds * QUERIES_PER_SECOND / QUERY_SESSIONS / 4))


def field_queries(seed: int, count: int) -> list[list[str]]:
    """count CLI argument lists, an equal shuffled mix of four query kinds."""
    if count % 4:
        raise ValueError("count must be a multiple of 4")
    rng = random.Random(f"queries:{seed}")
    per_kind = count // 4
    out: list[list[str]] = []
    taken: set[int] = set()
    shapes = [_has_shape(shape) for shape in SHAPES]
    for i, start in enumerate(_stratified(rng, per_kind, *CLASSIFY_RANGE)):
        d = _next_field(int(start), shapes[i % 2], taken)
        out.append(["classify", str(d), "--verify", "--oracle-limit", str(QUERY_ORACLE_LIMIT)])
    for variant in ([], ["--ordinary"]):
        for start in _stratified(rng, per_kind, *CLASSGROUP_RANGE):
            d = _next_field(int(start), is_squarefree, taken)
            D = d if d % 4 == 1 else 4 * d
            out.append(["classgroup", str(D)] + variant)
    for e in _stratified(rng, per_kind, *UNIT_EXPONENTS):
        d = _next_field(int(10**e), is_squarefree, taken)
        out.append(["unit", str(d)])
    rng.shuffle(out)
    return out


def sweep_commands(workload: str, seed: int) -> list[list[str]]:
    if workload == "verify_sweep":
        return [["verify", "--min", str(lo), "--max", str(hi)] for lo, hi in verify_windows(seed)]
    if workload == "predict_sweep":
        return [
            ["enumerate", "--csv", "--min", str(lo), "--max", str(hi)]
            for lo, hi in predict_windows(seed)
        ]
    raise KeyError(workload)


def sieve_needed(argv_list: list[list[str]]) -> int:
    """Length of the smallest-prime-factor sieve the commands grow to.

    Sweeps sieve up to --max; the oracle sieves to D/4 + 1 for every
    discriminant it builds (8d for Q(sqrt(2d))).
    """
    need = 0
    for argv in argv_list:
        cmd = argv[0]
        if cmd in ("verify", "enumerate"):
            hi = int(argv[argv.index("--max") + 1])
            need = max(need, hi + 1)
            if cmd == "verify":
                need = max(need, 2 * hi + 1)
        elif cmd == "classify":
            need = max(need, 2 * int(argv[1]) + 1)
        elif cmd == "classgroup":
            need = max(need, int(argv[1]) // 4 + 1)
    return need
