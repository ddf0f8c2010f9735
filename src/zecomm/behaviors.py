"""Bipartite input/output behaviors p(a,b|x,y) and the extremal no-signaling
families used by the assisted-coding protocols.

Conventions: inputs x, y and outputs a, b are 0-based.  A behavior is one
integer table, as a channel is (see :class:`Behavior`); the families are built
from their support rule.  Tensor products flatten indices row-major with the
first factor most significant.  Signaling tables are valid behaviors, which
the protocol entry points refuse.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .numeric import (
    FLOAT_TOL,
    POS_EPS,
    RATIONAL,
    ZeroConditioningError,
    as_prob,
    check_mode,
    integer_rows,
    prob_to_json,
    require_same_mode,
)


@dataclass(frozen=True)
class Scenario:
    """Cardinalities of a two-party correlation experiment."""

    x_card: int
    y_card: int
    a_card: int
    b_card: int

    def __post_init__(self):
        for name in ("x_card", "y_card", "a_card", "b_card"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Behavior:
    """Joint conditional distribution over a two-party scenario.

    ``weights[x][y][a][b]`` holds p(a,b|x,y) as an int numerator over
    ``denominator`` (rational mode; brought to lowest terms by
    ``integer_rows``, so equal behaviors compare equal) or as a float over
    denominator 1.  Validated on construction, where ``alice[x][a]``, the
    numerator of p(a|x) at y = 0, is computed once.
    """

    scenario: Scenario
    mode: str
    weights: tuple  # weights[x][y][a][b]
    denominator: int = 1
    alice: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_mode(self.mode)
        problems = validate_behavior(self)
        if problems:
            raise ValueError("invalid behavior: " + "; ".join(problems))
        rows = [tuple(row) for xs in self.weights for block in xs for row in block]
        if self.mode == RATIONAL:
            rows, denominator = integer_rows(rows, self.denominator)
            object.__setattr__(self, "denominator", denominator)
        rows = iter(rows)
        weights = tuple(tuple(tuple(next(rows) for _ in block) for block in xs) for xs in self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "alice", tuple(tuple(map(sum, xs[0])) for xs in weights))

    def _value(self, numerator):
        return Fraction(numerator, self.denominator) if self.mode == RATIONAL else numerator

    def prob(self, x: int, y: int, a: int, b: int):
        """p(a,b|x,y) for display, I/O and tests; evaluators read ``weights``."""
        return self._value(self.weights[x][y][a][b])

    def inputs(self):
        return itertools.product(range(self.scenario.x_card), range(self.scenario.y_card))

    def outputs(self):
        return itertools.product(range(self.scenario.a_card), range(self.scenario.b_card))


@dataclass(frozen=True)
class BellFunctional:
    """Signed rational coefficient table matching a scenario's index shape."""

    scenario: Scenario
    coefficients: tuple  # nested (x, y, a, b) of Fraction

    def coeff(self, x: int, y: int, a: int, b: int) -> Fraction:
        return self.coefficients[x][y][a][b]


def make_behavior(scenario: Scenario, mode: str, values) -> Behavior:
    """Build and validate a behavior from a nested table ``values[x][y][a][b]``
    of outside entries: ints, Fractions, "num/den" strings or floats, each
    coerced once."""
    check_mode(mode)
    return Behavior(scenario, mode, [
        [[[as_prob(v, mode) for v in row] for row in block] for block in xs] for xs in values
    ])


def make_bell_functional(scenario: Scenario, coeff: Callable[[int, int, int, int], object]) -> BellFunctional:
    table = tuple(
        tuple(
            tuple(
                tuple(Fraction(coeff(x, y, a, b)) for b in range(scenario.b_card))
                for a in range(scenario.a_card)
            )
            for y in range(scenario.y_card)
        )
        for x in range(scenario.x_card)
    )
    return BellFunctional(scenario, table)


def validate_behavior(b: Behavior, tol: float = FLOAT_TOL) -> list[str]:
    """Violated constraints of ``b``'s table (empty iff it is valid): shape,
    non-negative entries, and each (x, y) block summing to the denominator,
    exactly for rational mode (int or Fraction numerators)."""
    s = b.scenario
    rational = b.mode == RATIONAL
    if not (type(b.denominator) is int and b.denominator >= 1 and (rational or b.denominator == 1)):
        return [f"denominator {b.denominator!r} is not a positive integer (1 in float mode)"]
    if [[list(map(len, block)) for block in xs] for xs in b.weights] != [[[s.b_card] * s.a_card] * s.y_card] * s.x_card:
        return ["table shape does not match the scenario"]
    report = []
    for (x, y), block in zip(b.inputs(), (block for xs in b.weights for block in xs)):
        if rational and not all(set(map(type, row)) <= {int, Fraction} for row in block):
            report.append(f"non-rational numerator at (x={x},y={y})")
            continue
        report.extend(f"negative entry at (x={x},y={y},a={a},b={bo})"
                      for a, row in enumerate(block) for bo, v in enumerate(row) if v < 0)
        total = sum(v for row in block for v in row)
        if rational:
            if total != b.denominator:
                report.append(f"normalization violated at (x={x},y={y}): sum={Fraction(total, b.denominator)}")
        elif abs(total - 1.0) > tol:
            report.append(f"normalization violated at (x={x},y={y}): sum={total}")
    return report


def marginal_alice(b: Behavior, x: int, a: int, y: int = 0):
    """p(a|x,y) = sum_b p(a,b|x,y)."""
    s = b.scenario
    if not (0 <= x < s.x_card and 0 <= a < s.a_card and 0 <= y < s.y_card):
        raise IndexError("index out of range")
    return b._value(sum(b.weights[x][y][a]))


def marginal_bob(b: Behavior, y: int, b_out: int, x: int = 0):
    """p(b|x,y) = sum_a p(a,b|x,y)."""
    s = b.scenario
    if not (0 <= y < s.y_card and 0 <= b_out < s.b_card and 0 <= x < s.x_card):
        raise IndexError("index out of range")
    return b._value(sum(row[b_out] for row in b.weights[x][y]))


def is_no_signaling(b: Behavior, tol: float = FLOAT_TOL):
    """Check that each party's marginal is independent of the other's input.

    Returns ``(ok, max_violation)``; comparison is exact (in integers) in
    rational mode and within ``tol`` in float mode.
    """
    s, w = b.scenario, b.weights
    deviations = [abs(sum(w[x][y][a]) - b.alice[x][a])
                  for x in range(s.x_card) for a in range(s.a_card) for y in range(1, s.y_card)]
    bob = [[[sum(row[bo] for row in w[x][y]) for bo in range(s.b_card)] for y in range(s.y_card)]
           for x in range(s.x_card)]
    deviations += [abs(bob[x][y][bo] - bob[0][y][bo])
                   for y in range(s.y_card) for bo in range(s.b_card) for x in range(1, s.x_card)]
    worst = max(deviations, default=0)
    if b.mode == RATIONAL:
        return worst == 0, Fraction(worst, b.denominator)
    return worst <= tol, float(worst)


def conditional_bob(b: Behavior, y: int, b_out: int, x: int, a: int):
    """p(b|a,x,y) = p(a,b|x,y) / p(a|x,y).

    Well-defined independently of y for no-signaling behaviors.  Raises
    :class:`ZeroConditioningError` when p(a|x,y) = 0 (below 1e-12 in float
    mode).
    """
    pa = sum(b.weights[x][y][a])
    if pa <= POS_EPS:  # numerators are ints in rational mode, so this is pa = 0
        raise ZeroConditioningError(f"conditioning on p(a={a}|x={x}) = 0")
    w = b.weights[x][y][a][b_out]
    return Fraction(w, pa) if b.mode == RATIONAL else w / pa


def make_extremal_box(m: int, k: int) -> Behavior:
    """Extremal no-signaling box of the 2-input, m-outcome scenario.

    p(a,b|x,y) = 1/k when a,b < k and (b - a) mod k = x*y, else 0.  k = m gives
    the full-output vertex; k = 2 = m is the PR box.
    """
    if not 2 <= k <= m:
        raise ValueError("require 2 <= k <= m")
    blocks = [[[int(a < k and b == (a + xy) % k) for b in range(m)] for a in range(m)] for xy in (0, 1)]
    return Behavior(Scenario(2, 2, m, m), RATIONAL, [blocks[:1] * 2, blocks], k)


#: the (a, b) block of numerators over 2 with a xor b = parity, for parity 0, 1
_PARITY_BLOCKS = (((1, 0), (0, 1)), ((0, 1), (1, 0)))


def _parity_box(parity) -> Behavior:
    """Two-outcome box with p(a,b|x,y) = 1/2 when a xor b = parity[x][y]."""
    return Behavior(Scenario(len(parity), len(parity[0]), 2, 2), RATIONAL,
                    [[_PARITY_BLOCKS[t] for t in row] for row in parity], 2)


def make_rtilde_box(m: int) -> Behavior:
    """Extremal no-signaling box of the m-input, 2-outcome scenario.

    p(a,b|x,y) = 1/2 when a xor b equals [x == y and x != 0], else 0.
    """
    if m < 2:
        raise ValueError("require m >= 2")
    return _parity_box([[int(x == y != 0) for y in range(m)] for x in range(m)])


def make_jones_box(m1: int, m2: int, q_pairs: Iterable[tuple[int, int]]) -> Behavior:
    """General extremal two-outcome box with parity rule
    a xor b = [x=1][y=1] + sum_{(i,j) in Q} [x=i][y=j]  (mod 2).

    Q must avoid (1,1) and stay within {1..m1-1} x {1..m2-1}.
    """
    q = set(tuple(p) for p in q_pairs)
    for i, j in q:
        if (i, j) == (1, 1) or not (1 <= i < m1 and 1 <= j < m2):
            raise ValueError(f"invalid Q pair {(i, j)}")
    return _parity_box([[int(x == y == 1 or (x, y) in q) for y in range(m2)] for x in range(m1)])


def make_local_deterministic(
    f_alice: Sequence[int], f_bob: Sequence[int], scenario: Scenario
) -> Behavior:
    """Product behavior of two deterministic single-party strategies."""
    if len(f_alice) != scenario.x_card or len(f_bob) != scenario.y_card:
        raise ValueError("strategy maps must be total on the input sets")
    a_range, b_range = range(scenario.a_card), range(scenario.b_card)
    return Behavior(scenario, RATIONAL, [
        [[[int(a == fa and b == fb) for b in b_range] for a in a_range] for fb in f_bob] for fa in f_alice
    ])


def mix_behaviors(weighted: Sequence[tuple[object, Behavior]]) -> Behavior:
    """Convex mixture of behaviors over a common scenario and mode: each
    table's numerators are scaled by its weight over its denominator."""
    if not weighted:
        raise ValueError("empty mixture")
    first = weighted[0][1]
    mode = first.mode
    for _, b in weighted[1:]:
        require_same_mode(mode, b.mode)
        if b.scenario != first.scenario:
            raise ValueError("scenario mismatch in mixture")
    weights = [as_prob(w, mode) for w, _ in weighted]
    if mode == RATIONAL and sum(weights) != 1:
        raise ValueError("mixture weights must sum to 1")
    scaled = [(w / b.denominator, b.weights) for w, (_, b) in zip(weights, weighted)]
    s = first.scenario
    return Behavior(s, mode, [
        [[[sum(f * t[x][y][a][b] for f, t in scaled) for b in range(s.b_card)] for a in range(s.a_card)]
         for y in range(s.y_card)]
        for x in range(s.x_card)
    ])


def uniform_behavior(scenario: Scenario, mode: str = RATIONAL) -> Behavior:
    n = scenario.a_card * scenario.b_card
    w, denominator = (1, n) if check_mode(mode) == RATIONAL else (1.0 / n, 1)
    block = [[w] * scenario.b_card] * scenario.a_card
    return Behavior(scenario, mode, [[block] * scenario.y_card] * scenario.x_card, denominator)


def tensor_behaviors(b1: Behavior, b2: Behavior) -> Behavior:
    """Product behavior on the product scenario; indices flatten row-major
    with the first factor most significant, and numerators and denominators
    multiply.
    """
    mode = require_same_mode(b1.mode, b2.mode)
    s1, s2 = b1.scenario, b2.scenario
    s = Scenario(s1.x_card * s2.x_card, s1.y_card * s2.y_card, s1.a_card * s2.a_card, s1.b_card * s2.b_card)
    weights = [
        [
            [[p * q for p in row1 for q in row2] for row1 in block1 for row2 in block2]
            for block1 in xs1 for block2 in xs2
        ]
        for xs1 in b1.weights for xs2 in b2.weights
    ]
    return Behavior(s, mode, weights, b1.denominator * b2.denominator)


def bell_value(b: Behavior, f: BellFunctional):
    """sum over (x,y,a,b) of coefficient * p(a,b|x,y)."""
    if b.scenario != f.scenario:
        raise ValueError("scenario mismatch between behavior and functional")
    rational = b.mode == RATIONAL
    total = 0
    for x, y in b.inputs():
        for a, bo in b.outputs():
            c = f.coeff(x, y, a, bo)
            if c:
                total += (c if rational else float(c)) * b.weights[x][y][a][bo]
    return (Fraction(total) if rational else total) / b.denominator


def local_bound(f: BellFunctional, limit: int = 10**8) -> Fraction:
    """Maximum of the functional over all deterministic local strategies."""
    s = f.scenario
    count = s.a_card**s.x_card * s.b_card**s.y_card
    if count > limit:
        raise ValueError(f"deterministic strategy count {count} exceeds limit {limit}")
    best = None
    for fa in itertools.product(range(s.a_card), repeat=s.x_card):
        for fb in itertools.product(range(s.b_card), repeat=s.y_card):
            value = sum(f.coeff(x, y, fa[x], fb[y]) for x in range(s.x_card) for y in range(s.y_card))
            if best is None or value > best:
                best = value
    return best


# --- JSON interchange -------------------------------------------------------

def behavior_to_json(b: Behavior) -> dict:
    s = b.scenario
    return {
        "scenario": {"x": s.x_card, "y": s.y_card, "a": s.a_card, "b": s.b_card},
        "mode": b.mode,
        "p": [
            [
                [[prob_to_json(b.prob(x, y, a, bo), b.mode) for bo in range(s.b_card)] for a in range(s.a_card)]
                for y in range(s.y_card)
            ]
            for x in range(s.x_card)
        ],
    }


def behavior_from_json(data: dict) -> Behavior:
    sc = data["scenario"]
    scenario = Scenario(sc["x"], sc["y"], sc["a"], sc["b"])
    return make_behavior(scenario, check_mode(data["mode"]), data["p"])


def save_behavior(b: Behavior, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(behavior_to_json(b), fh, indent=1)


def load_behavior(path: str) -> Behavior:
    with open(path) as fh:
        return behavior_from_json(json.load(fh))
