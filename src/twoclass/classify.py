"""Headline classifiers and prediction reports.

Three classifiers read congruence data off the prime factorization of an odd
square-free d, and Legendre symbols off its Redei matrix (redei_matrix):

* stable_rank_type: the three congruence patterns that are equivalent
  (given that the places above 2 are totally ramified in the first tower
  layer) to rank A(K) = rank A(K1) = 2 and rank A(K') = 3;
* structure_condition_ppqq: for d = p1 p2 q1 q2 with (5, 5, 7, 3) mod 8,
  the symbol conditions equivalent to A(K) = (Z/2)^2, A(K') = (Z/2)^3 and
  A(K1) = Z/2 + Z/4;
* structure_condition_qqqq: for d = q1 q2 q3 q4 with (7, 3, 3, 3) mod 8,
  nine sufficient symbol conditions for the same three structures.

predict() assembles ranks (genus theory and the first-layer rank formula),
structures (where a classifier fires), the Fukuda tower claim, and tension
flags, once per signature of d: the residues mod 8 of its primes, the
quartic obstruction (no prime = 3 (mod 4), and some p = 1 (mod 8) fails the
test 2^((p-1)/4)) and the matched condition.  Every claim reads only these:
shape and genus ranks count primes by class and read d mod 4, the
first-layer rank adds the obstruction, the rank pattern reads the residues,
the tower claim and flags read d mod 4 and the ranks, and the structures
name the condition.  So a memo of one report per signature holds at most
residue multisets x 2 x matched conditions of them.  verify_against_oracle()
replays every oracle-checkable claim against the form class groups; sweep()
runs both over a range of d.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple, Optional

from .arith import (
    FactoredSquarefree,
    as_factored,
    doubled,
    is_prime,
    kronecker,
    primes_upto,
    squarefree_range,
)
from .biquad import (
    first_layer_rank,
    hasse_unit_index,
    kuroda_order,
    quartic_obstruction,
    structure_from_rank_and_order,
)
from .forms import Abelian2Group, class_group_summary
from .genus import genus_rank, narrow_genus_rank
from .quadfield import discriminant
from .redei import redei_matrix


class OutOfTable(ValueError):
    """The discriminant does not have 3 or 4 prime divisors."""


class WrongShape(ValueError):
    """The factorization does not match the classifier's residue pattern."""


class NotFoundWithinBound(RuntimeError):
    """The progression scan exhausted its budget before finding a prime."""


class OracleRangeExceeded(ValueError):
    """A discriminant is too large for the form class group oracle."""


DEFAULT_ORACLE_LIMIT = 2_000_000


# --- field shapes (ramification patterns with 3 or 4 ramified primes) -----


class FieldShape(NamedTuple):
    pattern: tuple[str, ...]  # roles of the ramified primes, "2" / "p" / "q"
    descriptor: str

    def __repr__(self) -> str:
        return f"FieldShape({','.join(self.pattern)}; {self.descriptor})"


def shape_of(d) -> FieldShape:
    """The ramification pattern row for D_K with 3 or 4 prime divisors."""
    fs = as_factored(d)
    odd = [p for p in fs.primes if p != 2]
    n_p = sum(1 for p in odd if p % 4 == 1)
    n_q = len(odd) - n_p
    two = fs.value % 4 != 1
    t = two + n_p + n_q
    if t not in (3, 4):
        raise OutOfTable(f"{fs.value} has {t} ramified primes, not 3 or 4")
    parts = (["2"] if fs.value % 2 == 0 else []) + [
        f"p{i}" for i in range(1, n_p + 1)
    ] + [f"q{i}" for i in range(1, n_q + 1)]
    return FieldShape(
        ("2",) * two + ("p",) * n_p + ("q",) * n_q,
        "Q(sqrt(" + "*".join(parts) + "))",
    )


# --- the residue tables ------------------------------------------------------


def _residues(fs: FactoredSquarefree) -> tuple[int, ...]:
    """The residues mod 8 of the primes of d, ascending: the tables' key."""
    return tuple(sorted(p % 8 for p in fs.primes))


# The rank patterns (1)-(3) of stable_rank_type's docstring, keyed by the
# ascending residues of d's primes.
_RANK_PATTERNS = {
    (1, 5, 5): 1, (5, 5, 5): 1,
    (3, 3, 5, 5): 2, (3, 5, 5, 7): 2,
    (3, 3, 3, 3): 3, (3, 3, 3, 7): 3,
}


def stable_rank_type(d) -> Optional[int]:
    """Which congruence pattern (1..3) the odd square-free d matches, if any.

    (1) d = p1 p2 p3, p1 = 1 or 5, p2 = p3 = 5 (mod 8);
    (2) d = p1 p2 q1 q2, p1 = p2 = 5, q1 = 3 or 7, q2 = 3 (mod 8);
    (3) d = q1 q2 q3 q4, q1 = 3 or 7, q2 = q3 = q4 = 3 (mod 8).
    """
    return _RANK_PATTERNS.get(_residues(as_factored(d)))


# --- classifiers 2 and 3: symbol conditions --------------------------------

# Each condition is a predicate on L, where L(i, j) is the Legendre symbol
# (x_i / x_j) of the labeled primes, which the classifiers read off the Redei
# matrix of d and the spec builders off a SymbolSpec.  Labels for ppqq: 1, 2
# are the two primes = 5 (mod 8), 3 is the prime = 7, 4 is the prime = 3.

_PPQQ_CONDITIONS: tuple[Callable, ...] = (
    lambda L: L(1, 2) == -1
    and L(1, 3) == -1
    and L(1, 4) == 1
    and L(3, 2) * L(4, 2) == 1,
    lambda L: L(1, 2) == -1
    and L(3, 1) * L(4, 1) == 1
    and L(2, 3) == -1
    and L(2, 4) == 1,
    lambda L: L(1, 2) == 1
    and L(1, 3) * L(2, 3) == -1
    and L(1, 4) * L(2, 4) == -1
    and L(1, 3) == L(2, 4),
)

# Labels for qqqq: 1 is the prime = 7 (mod 8), 2..4 are the primes = 3.

_QQQQ_CONDITIONS: tuple[Callable, ...] = (
    lambda L: L(1, 3) == 1
    and L(2, 3) == 1
    and L(4, 2) == 1
    and L(4, 1) == 1
    and L(4, 3) == -1,
    lambda L: L(1, 3) == -1
    and L(2, 3) == -1
    and L(4, 2) == -1
    and L(4, 1) == -1
    and L(4, 3) == 1,
    lambda L: L(1, 3) * L(2, 3) == -1
    and L(1, 4) * L(2, 4) == -1
    and L(2, 3) == L(1, 4) == L(3, 4),
    lambda L: L(1, 3) * L(2, 3) == 1
    and L(1, 4) * L(2, 4) == -1
    and L(2, 3) == L(2, 4)
    and L(1, 2) == L(4, 3),
    lambda L: L(1, 3) * L(2, 3) == -1
    and L(1, 4) * L(2, 4) == 1
    and L(2, 3) == L(1, 4)
    and L(1, 2) == L(3, 4),
    lambda L: L(1, 3) == 1
    and L(2, 3) == 1
    and L(1, 4) == 1
    and L(2, 4) == -1
    and L(1, 2) == -1,
    lambda L: L(1, 3) == -1
    and L(2, 3) == -1
    and L(1, 4) == -1
    and L(2, 4) == 1
    and L(1, 2) == 1
    and L(3, 4) == 1,
    lambda L: L(1, 3) == 1
    and L(2, 3) == -1
    and L(1, 4) == 1
    and L(2, 4) == 1
    and L(1, 2) == -1,
    lambda L: L(1, 3) == -1
    and L(2, 3) == 1
    and L(1, 4) == -1
    and L(2, 4) == -1
    and L(1, 2) == 1
    and L(3, 4) == -1,
)


class _Criterion(NamedTuple):
    """One symbol criterion: conditions on the labels x_1..x_4, whose
    residues mod 8 are `residues`; a match implies the structures of A(K),
    A(K') and A(K1) in `structures` ("if"), or is equivalent to them ("iff")."""

    name: str
    residues: tuple[int, ...]
    conditions: tuple[Callable, ...]
    direction: str
    structures: tuple[Abelian2Group, Abelian2Group, Abelian2Group]


# both criteria claim A(K) = (Z/2)^2, A(K') = (Z/2)^3 and A(K1) = Z/2 + Z/4
_STRUCTURES = tuple(Abelian2Group(f) for f in ((2, 2), (2, 2, 2), (2, 4)))
_PPQQ = _Criterion("ppqq", (5, 5, 7, 3), _PPQQ_CONDITIONS, "iff", _STRUCTURES)
_QQQQ = _Criterion("qqqq", (7, 3, 3, 3), _QQQQ_CONDITIONS, "if", _STRUCTURES)
_CRITERIA = {tuple(sorted(c.residues)): c for c in (_PPQQ, _QQQQ)}


def _reciprocity(a: int, b: int) -> int:
    """(x/y)(y/x) for odd primes x = a, y = b (mod 4): -1 iff both are 3."""
    return -1 if a % 4 == 3 and b % 4 == 3 else 1


class _SymbolSpecFields(NamedTuple):
    residues: tuple[int, ...]
    symbols: tuple[tuple[tuple[int, int], int], ...] = ()


class SymbolSpec(_SymbolSpecFields):
    """Target residues mod 8 and Legendre symbols (x_k / x_j) = eps for j < k.

    symbols maps index pairs (k, j) with 1 <= j < k <= t to +/-1; missing
    pairs are unconstrained.  The conditions read a spec through L, the
    prime searches through admits.
    """

    __slots__ = ()

    def __new__(cls, residues, symbols=()) -> SymbolSpec:
        if not residues:
            raise ValueError("at least one residue required")
        for a in residues:
            if a not in (1, 3, 5, 7):
                raise ValueError(f"residue {a} is not an odd class mod 8")
        t = len(residues)
        seen = set()
        for (k, j), eps in symbols:
            if not (1 <= j < k <= t):
                raise ValueError(f"symbol index ({k},{j}) out of range")
            if eps not in (-1, 1):
                raise ValueError(f"symbol value {eps} not +/-1")
            if (k, j) in seen:
                raise ValueError(f"duplicate symbol ({k},{j})")
            seen.add((k, j))
        return tuple.__new__(cls, (residues, symbols))

    def symbol(self, k: int, j: int) -> Optional[int]:
        return next((eps for pair, eps in self.symbols if pair == (k, j)), None)

    def L(self, i: int, j: int) -> int:
        """(x_i / x_j), i != j, on a spec that fixes every pair."""
        if i > j:
            return self.symbol(i, j)
        return self.symbol(j, i) * _reciprocity(
            self.residues[i - 1], self.residues[j - 1]
        )

    def admits(self, p: int, chosen) -> bool:
        """Whether p may be coordinate len(chosen) + 1 after chosen: p has
        that coordinate's residue, is not in chosen, and its symbols against
        chosen are the spec's."""
        k = len(chosen) + 1
        return (
            p % 8 == self.residues[k - 1]
            and p not in chosen
            and all(
                kronecker(p, chosen[j - 1]) == eps
                for (i, j), eps in self.symbols
                if i == k
            )
        )

    @classmethod
    def of(cls, residues, symbols: dict | None = None) -> "SymbolSpec":
        return cls(tuple(residues), tuple(sorted((symbols or {}).items())))


class ConditionMatch(NamedTuple):
    """A matched condition index together with the labeling that matched."""

    condition: int
    labeling: tuple[int, ...]

    def __repr__(self) -> str:
        return f"condition {self.condition} with labeling {self.labeling}"

    def to_json(self):
        return {"condition": self.condition, "labeling": list(self.labeling)}


def _first_match(
    fs: FactoredSquarefree, criterion: _Criterion
) -> Optional[ConditionMatch]:
    """The criterion's first condition, in order, that holds under some
    labeling of fs.primes with its residues mod 8, in itertools.permutations
    order.  Both residue lists give d = 1 (mod 4): D = d, with the p* as the
    prime discriminants of its Redei matrix."""
    rows = redei_matrix([p if p % 4 == 1 else -p for p in fs.primes])
    # (x / y) = (x* / y) (x / y)(y / x): bit a of row b, times reciprocity
    legendre = {
        (x, y): (-1) ** (rows[b] >> a & 1) * _reciprocity(x, y)
        for (a, x), (b, y) in itertools.product(enumerate(fs.primes), repeat=2)
    }
    labelings = [
        labels
        for labels in itertools.permutations(fs.primes)
        if tuple(p % 8 for p in labels) == criterion.residues
    ]
    for idx, cond in enumerate(criterion.conditions, start=1):
        for labels in labelings:
            if cond(lambda i, j: legendre[labels[i - 1], labels[j - 1]]):
                return ConditionMatch(idx, labels)
    return None


def _structure_condition(d, criterion: _Criterion) -> Optional[ConditionMatch]:
    fs = as_factored(d)
    if _CRITERIA.get(_residues(fs)) is not criterion:
        raise WrongShape(f"the primes of {fs.value} are not {criterion.residues} mod 8")
    return _first_match(fs, criterion)


def structure_condition_ppqq(d) -> Optional[ConditionMatch]:
    """First matched condition (1..3) for d = p1 p2 q1 q2, (5,5,7,3) mod 8.

    A match is equivalent to A(K) = (Z/2)^2, A(K') = (Z/2)^3 and
    A(K1) = Z/2 + Z/4 together.  The two p-labels are tried in both orders.
    """
    return _structure_condition(d, _PPQQ)


def structure_condition_qqqq(d) -> Optional[ConditionMatch]:
    """First matched condition (1..9) for d = q1 q2 q3 q4, (7,3,3,3) mod 8.

    Sufficient only: a match implies A(K) = (Z/2)^2, A(K') = (Z/2)^3 and
    A(K1) = Z/2 + Z/4, with no converse claimed.  The three labels = 3
    (mod 8) are tried in all orders.
    """
    return _structure_condition(d, _QQQQ)


# --- prime tuple search (progression scans) ---------------------------------


def find_prime_tuple(
    spec: SymbolSpec, search_bound: int = 10**6, *, avoid=()
) -> list[int]:
    """Primes p_i = a_i (mod 8) with (p_k/p_j) = eps_kj for all j < k.

    Constructive search: for each coordinate the admissible primes form a
    union of arithmetic progressions modulo 8 p_1 ... p_(i-1) (one for every
    residue system v_j with (v_j/p_j) = eps_ij), each infinite by Dirichlet;
    the scan walks the class a_i (mod 8) upward and keeps the first prime
    the spec admits, i.e. the smallest member of that union.

    avoid lists primes that must not be chosen, so repeated calls can
    produce distinct tuples.  All constraints are re-verified on the result.
    """
    avoid = set(avoid)
    primes: list[int] = []
    for i, a in enumerate(spec.residues, start=1):
        for x in range(a, a + 8 * search_bound, 8):
            if x not in avoid and spec.admits(x, primes) and is_prime(x):
                primes.append(x)
                break
        else:
            raise NotFoundWithinBound(
                f"no prime found for coordinate {i} within {search_bound} steps"
            )
    # re-verify every constraint: part of the contract, not just a debug aid
    for i, p in enumerate(primes, start=1):
        if not spec.admits(p, primes[: i - 1]):
            raise AssertionError(f"re-verification failed at coordinate {i}")
    return primes


def prime_tuples_up_to(
    spec: SymbolSpec, max_product: int, count: Optional[int] = None
) -> list[list[int]]:
    """Labeled tuples satisfying spec with product <= max_product.

    Bounded depth-first enumeration over primes in each mod-8 class with
    symbol checks at every extension; returns all solutions (or the first
    `count`) ordered by product.  Used to collect many small, independently
    verifiable fields for one symbol spec.
    """
    t = len(spec.residues)
    class_min = {1: 17, 3: 3, 5: 5, 7: 7}
    tail_min = [math.prod(map(class_min.get, spec.residues[i:])) for i in range(t + 1)]
    # a coordinate is largest when every other one is minimal
    global_bound = max(
        7, *(max_product // (tail_min[0] // class_min[r]) for r in spec.residues)
    )
    primes_mod8: dict[int, list[int]] = {1: [], 3: [], 5: [], 7: []}
    for p in primes_upto(global_bound)[1:]:
        primes_mod8[p % 8].append(p)
    results: list[list[int]] = []
    chosen: list[int] = []

    def extend(idx: int, prod: int) -> None:
        if idx == t:
            results.append(list(chosen))
            return
        bound = max_product // (prod * tail_min[idx + 1])
        for p in primes_mod8[spec.residues[idx]]:
            if p > bound:
                break
            if spec.admits(p, chosen):
                chosen.append(p)
                extend(idx + 1, prod * p)
                chosen.pop()

    extend(0, 1)
    results.sort(key=math.prod)
    return results if count is None else results[:count]


def _spec_from_condition(criterion: _Criterion, condition: int) -> SymbolSpec:
    """A SymbolSpec whose every solution satisfies the criterion's condition.

    Tries the 2^6 assignments of the symbols in order, bit b of the counter
    giving the sign of (x_i / x_j), i < j, for the b-th pair (0 meaning +1),
    and returns the first spec the condition accepts.
    """
    residues = criterion.residues
    cond = criterion.conditions[condition - 1]
    pairs = list(itertools.combinations(range(1, len(residues) + 1), 2))
    for bits in range(1 << len(pairs)):
        spec = SymbolSpec.of(
            residues,
            {
                (j, i): (-1 if bits >> b & 1 else 1)
                * _reciprocity(residues[i - 1], residues[j - 1])
                for b, (i, j) in enumerate(pairs)
            },
        )
        if cond(spec.L):
            return spec
    raise RuntimeError("condition is unsatisfiable over symbol assignments")


def spec_for_ppqq_condition(condition: int) -> SymbolSpec:
    """Symbol spec generating tuples (p1, p2, q1, q2) for a ppqq condition."""
    return _spec_from_condition(_PPQQ, condition)


def spec_for_qqqq_condition(condition: int) -> SymbolSpec:
    """Symbol spec generating tuples (q1, q2, q3, q4) for a qqqq condition."""
    return _spec_from_condition(_QQQQ, condition)


# --- prediction reports -----------------------------------------------------


def _json_value(v):
    """A claimed or observed value as JSON: a 2-group is its factor list."""
    return list(v.factors) if isinstance(v, Abelian2Group) else v


def _factors(group: Abelian2Group) -> str:  # e.g. (2,2)
    return "(" + ",".join(map(str, group.factors)) + ")"


def _json_or_none(record):
    return None if record is None else record.to_json()


class Claim(NamedTuple):
    value: object
    source: str
    direction: str = "computed"  # "computed" | "iff" | "if"

    def to_json(self):
        return {
            "value": _json_value(self.value),
            "source": self.source,
            "direction": self.direction,
        }


class TowerClaim(NamedTuple):
    """Stable first-layer data propagated up the tower by Fukuda's theorem."""

    rank: int
    from_layer: int
    mu_zero: bool
    lambda_zero: bool

    def to_json(self):
        return {
            "rank_all_layers": self.rank,
            "from_layer": self.from_layer,
            "mu": 0 if self.mu_zero else None,
            "lambda": 0 if self.lambda_zero else None,
        }


class PredictionReport(NamedTuple):
    factored: FactoredSquarefree  # d and its primes, as predict received them
    shape: Optional[FieldShape]
    rank_K: Claim
    rank_Kprime: Claim
    rank_K1: Claim
    structure_K: Optional[Claim]
    structure_Kprime: Optional[Claim]
    structure_K1: Optional[Claim]
    rank_pattern: Optional[int]
    ppqq_condition: Optional[ConditionMatch]
    qqqq_condition: Optional[ConditionMatch]
    tower: Optional[TowerClaim]
    flags: tuple[str, ...]

    @property
    def d(self) -> int:
        return self.factored.value

    @property
    def primes(self) -> tuple[int, ...]:
        return self.factored.primes

    def to_json(self):
        return {
            "d": self.d,
            "primes": list(self.primes),
            "shape": None if self.shape is None else self.shape.descriptor,
            "rank_K": self.rank_K.to_json(),
            "rank_Kprime": self.rank_Kprime.to_json(),
            "rank_K1": self.rank_K1.to_json(),
            "structure_K": _json_or_none(self.structure_K),
            "structure_Kprime": _json_or_none(self.structure_Kprime),
            "structure_K1": _json_or_none(self.structure_K1),
            "rank_pattern": self.rank_pattern,
            "ppqq_condition": _json_or_none(self.ppqq_condition),
            "qqqq_condition": _json_or_none(self.qqqq_condition),
            "tower": _json_or_none(self.tower),
            "flags": list(self.flags),
        }


# The report of each signature seen so far; see predict.
_TEMPLATES: dict[tuple, PredictionReport] = {}


def predict(d) -> PredictionReport:
    """Assemble every claim the congruence/symbol machinery supports for d.

    Every claim is a function of d's signature, the residues mod 8 of its
    primes, quartic_obstruction(d) and the matched condition (the module
    docstring says why), so one report per signature is assembled and kept,
    and each field gets it with its own factorization and ConditionMatch.
    """
    fs = as_factored(d)
    if fs.value % 2 == 0 or fs.value < 3:
        raise ValueError("predictions are for odd square-free d >= 3")
    residues = _residues(fs)
    criterion = _CRITERIA.get(residues)
    match = None if criterion is None else _first_match(fs, criterion)
    condition = None if match is None else match.condition
    signature = (residues, quartic_obstruction(fs), condition)
    template = _TEMPLATES.get(signature)
    if template is None:
        template = _TEMPLATES[signature] = _assemble(fs, residues, criterion, match)
    ppqq, qqqq = (match, None) if criterion is _PPQQ else (None, match)
    return template._replace(factored=fs, ppqq_condition=ppqq, qqqq_condition=qqqq)


def _assemble(fs, residues, criterion, match) -> PredictionReport:
    """predict's report for the odd square-free fs, built claim by claim."""
    flags: list[str] = []
    try:
        shape = shape_of(fs)
    except OutOfTable:
        shape = None
        flags.append("shape: outside the t=3,4 tables")
    rank_k = Claim(genus_rank(fs), "genus field")
    rank_kp = Claim(genus_rank(doubled(fs)), "genus field of Q(sqrt(2d))")
    rank_k1 = Claim(first_layer_rank(fs), "first-layer rank formula")
    pattern = _RANK_PATTERNS.get(residues)
    # pattern (1) promises rank 2; the rank formula gives 3 exactly when its
    # prime = 1 (mod 8) fails the 2-power residue obstruction
    if pattern == 1 and rank_k1.value != 2:
        flags.append(
            "rank pattern (1) vs first-layer rank formula: a prime = 1 (mod 8) "
            "fails the 2-power residue obstruction, rank formula gives "
            f"{rank_k1.value}"
        )
    if _unmatched_iff(criterion, match):
        flags.append(
            f"{criterion.name} shape with no matching criterion: by the stated "
            "equivalence the three structure claims should not all hold "
            "(oracle counterexamples are reported as findings)"
        )
    structure_K = structure_Kprime = structure_K1 = None
    if match is not None:
        src = f"{criterion.name} criterion ({match.condition})"
        structure_K, structure_Kprime, structure_K1 = (
            Claim(g, src, criterion.direction) for g in criterion.structures
        )
    tower = None
    if fs.value % 4 == 1 and rank_k.value == rank_k1.value:
        # lambda = 0 needs #A(K1) = #A(K); every claimed structure pair is 4 vs 8
        tower = TowerClaim(rank_k.value, 0, True, False)
    report = PredictionReport(
        fs,
        shape,
        rank_k,
        rank_kp,
        rank_k1,
        structure_K,
        structure_Kprime,
        structure_K1,
        pattern,
        match if criterion is _PPQQ else None,
        match if criterion is _QQQQ else None,
        tower,
        tuple(flags),
    )
    _check_report_consistency(report)
    return report


def _unmatched_iff(criterion: Optional[_Criterion], match) -> bool:
    """Whether d has an equivalence criterion's residues but no condition
    holds, so the three structures should not all hold."""
    return criterion is not None and criterion.direction == "iff" and match is None


def _check_report_consistency(report: PredictionReport) -> None:
    for rank_claim, st_claim in (
        (report.rank_K, report.structure_K),
        (report.rank_Kprime, report.structure_Kprime),
        (report.rank_K1, report.structure_K1),
    ):
        if st_claim is not None and st_claim.value.rank != rank_claim.value:
            raise AssertionError(
                f"structure {st_claim.value} inconsistent with rank "
                f"{rank_claim.value} for d = {report.d}"
            )


# --- oracle verification ----------------------------------------------------


class OracleCheck(NamedTuple):
    name: str
    predicted: object
    observed: object

    @property
    def ok(self) -> bool:
        return self.predicted == self.observed

    def to_json(self):
        return {
            "name": self.name,
            "predicted": _json_value(self.predicted),
            "observed": _json_value(self.observed),
            "ok": self.ok,
        }


class OracleComparison(NamedTuple):
    d: int
    checks: tuple[OracleCheck, ...]
    findings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def mismatches(self) -> tuple[OracleCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_json(self):
        return {
            "d": self.d,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
            "findings": list(self.findings),
        }


def _kuroda_order_K1(fs, sK, sKp) -> int:
    """#A(K1) from the Hasse unit index and the oracle's 2-parts of
    A(K), A(K') and A(Q(sqrt(2)))."""
    Q = hasse_unit_index(fs)
    h2 = class_group_summary(8).ordinary.order
    return kuroda_order(Q, sK.ordinary.order, sKp.ordinary.order, h2)


def verify_against_oracle(
    d, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> OracleComparison:
    """Replay the prediction's oracle-checkable claims against form class
    groups: ranks always, structures and the Kuroda chain when predicted.

    d may be the PredictionReport the caller already holds for the field;
    it is used as is.  Every check reads the cached class-group summaries.
    """
    report = d if isinstance(d, PredictionReport) else predict(d)
    fs = report.factored
    D = discriminant(fs)
    Dprime = 8 * fs.value
    if max(D, Dprime) > oracle_limit:
        raise OracleRangeExceeded(
            f"discriminant {max(D, Dprime)} exceeds oracle limit {oracle_limit}"
        )
    sK = class_group_summary(D)
    sKp = class_group_summary(Dprime)
    checks = [
        OracleCheck("rank A(K)", report.rank_K.value, sK.ordinary.rank),
        OracleCheck("rank A+(K)", narrow_genus_rank(fs), sK.narrow.rank),
        OracleCheck("rank A(K')", report.rank_Kprime.value, sKp.ordinary.rank),
    ]
    # predict claims the three structures together or not at all
    if report.structure_K1 is not None:
        K1 = report.structure_K1.value
        order = _kuroda_order_K1(fs, sK, sKp)
        checks += [
            OracleCheck("structure A(K)", report.structure_K.value, sK.ordinary),
            OracleCheck("structure A(K')", report.structure_Kprime.value, sKp.ordinary),
            OracleCheck("order A(K1) via Kuroda", K1.order, order),
            OracleCheck(
                "structure A(K1) from rank and Kuroda order",
                K1,
                structure_from_rank_and_order(report.rank_K1.value, order),
            ),
        ]
    findings: list[str] = []
    criterion = _CRITERIA.get(_residues(fs))
    # with no condition of an equivalence matched the structures should not
    # all hold; they sometimes do (d = 3045 is the smallest case), which is
    # reported as a finding rather than silently passed or failed
    if report.structure_K1 is None and _unmatched_iff(criterion, None):
        K, Kp, K1 = criterion.structures
        observed = (sK.ordinary, sKp.ordinary, report.rank_K1.value)
        if observed == (K, Kp, K1.rank) and _kuroda_order_K1(fs, sK, sKp) == K1.order:
            findings.append(
                f"{criterion.name} criterion converse fails: "
                f"A(K) = {_factors(K)}, A(K') = {_factors(Kp)} and "
                f"#A(K1) = {K1.order} at rank {K1.rank}, "
                "yet no listed condition matches"
            )
    return OracleComparison(fs.value, tuple(checks), tuple(findings))


class FieldResult(NamedTuple):
    """One field of a sweep."""

    report: PredictionReport
    status: str  # "ok", "mismatch", "out-of-range" or "skipped"
    comparison: Optional[OracleComparison]  # for "ok" and "mismatch" only


def sweep(lo, hi, verify=False, oracle_limit=DEFAULT_ORACLE_LIMIT, shape=None):
    """A FieldResult for each odd square-free d in [lo, hi), in order; a shape
    such as ("p", "p", "q", "q") skips every other shape before the oracle."""
    # lazily, so that no sweep holds all its fields
    for fs in squarefree_range(max(lo, 3) | 1, hi, 2):
        report = predict(fs)
        if shape is not None and shape != (report.shape and report.shape.pattern):
            continue
        status, comparison = "skipped", None
        if verify:
            try:
                comparison = verify_against_oracle(report, oracle_limit)
                status = "ok" if comparison.ok else "mismatch"
            except OracleRangeExceeded:
                status = "out-of-range"
        yield FieldResult(report, status, comparison)
