"""Bipartite input/output behaviors p(a,b|x,y) and the extremal no-signaling
families used by the assisted-coding protocols.

Conventions: inputs x, y and outputs a, b are 0-based.  A behavior is one
table (see :class:`Behavior`): int numerators over one denominator, as a
channel is, or floats for the quantum correlations.  Evaluators read that
table and Alice's marginal numerators ``Behavior.alice`` directly.  The
families are built from their support rule.  Tensor products flatten indices
row-major with the first factor most significant.  Signaling tables are valid
behaviors, which the protocol entry points refuse.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .numeric import (
    FLOAT_TOL,
    RATIONAL,
    check_index,
    check_mode,
    check_table_size,
    integer_rows,
    prob_parser,
    ratio_text,
    require_same_mode,
    table_problems,
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
            value = getattr(self, name)
            if type(value) is not int:  # a JSON true is a bool, which is not a cardinality
                raise ValueError(f"{name} {value!r} is not an int")
            if value < 1:
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

    def prob(self, x: int, y: int, a: int, b: int):
        """p(a,b|x,y) for display, I/O and tests; evaluators read ``weights``.
        Refuses an index that is not an int in range."""
        s = self.scenario
        for name, v, n in (("box input x", x, s.x_card), ("box input y", y, s.y_card),
                           ("outcome a", a, s.a_card), ("outcome b", b, s.b_card)):
            check_index(name, v, n)
        w = self.weights[x][y][a][b]
        return Fraction(w, self.denominator) if self.mode == RATIONAL else w

    def inputs(self):
        return itertools.product(range(self.scenario.x_card), range(self.scenario.y_card))

    def outputs(self):
        return itertools.product(range(self.scenario.a_card), range(self.scenario.b_card))


def make_behavior(scenario: Scenario, mode: str, values) -> Behavior:
    """Build and validate a behavior from a nested table ``values[x][y][a][b]``
    of outside entries: ints, Fractions, "num/den" strings or floats, each
    distinct entry coerced once."""
    parse = prob_parser(check_mode(mode))
    return Behavior(scenario, mode, [[[list(map(parse, row)) for row in block] for block in xs] for xs in values])


def validate_behavior(b: Behavior) -> list[str]:
    """Violated constraints of ``b``'s table (empty iff it is valid): its
    shape, then the shared table rule
    (:func:`~zecomm.numeric.table_problems`), one block per (x, y)."""
    s = b.scenario
    if [[list(map(len, block)) for block in xs] for xs in b.weights] != [[[s.b_card] * s.a_card] * s.y_card] * s.x_card:
        return ["table shape does not match the scenario"]
    blocks = ((f"(x={x},y={y})", [v for row in block for v in row])
              for x, xs in enumerate(b.weights) for y, block in enumerate(xs))
    return table_problems(blocks, b.denominator, b.mode == RATIONAL)


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


def _check_size(name: str, value) -> None:
    """Refuse a box size that is not an int, a bool included, naming it as ``name``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def make_extremal_box(m: int, k: int) -> Behavior:
    """Extremal no-signaling box of the 2-input, m-outcome scenario.

    p(a,b|x,y) = 1/k when a,b < k and (b - a) mod k = x*y, else 0.  k = m gives
    the full-output vertex; k = 2 = m is the PR box.
    """
    _check_size("m", m)
    _check_size("k", k)
    if not 2 <= k <= m:
        raise ValueError("require 2 <= k <= m")
    check_table_size(4 * m * m)
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
    _check_size("m", m)
    if m < 2:
        raise ValueError("require m >= 2")
    check_table_size(4 * m * m)
    return _parity_box([[int(x == y != 0) for y in range(m)] for x in range(m)])


def make_jones_box(m1: int, m2: int, q_pairs: Iterable[tuple[int, int]]) -> Behavior:
    """General extremal two-outcome box with parity rule
    a xor b = [x=1][y=1] + sum_{(i,j) in Q} [x=i][y=j]  (mod 2).

    Q must avoid (1,1) and stay within {1..m1-1} x {1..m2-1}.
    """
    _check_size("m1", m1)
    _check_size("m2", m2)
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


def uniform_behavior(scenario: Scenario) -> Behavior:
    """Rational behavior with every (a, b) equally likely for every (x, y)."""
    block = [[1] * scenario.b_card] * scenario.a_card
    return Behavior(scenario, RATIONAL, [[block] * scenario.y_card] * scenario.x_card,
                    scenario.a_card * scenario.b_card)


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


# --- JSON interchange -------------------------------------------------------

def behavior_to_json(b: Behavior) -> dict:
    s = b.scenario
    text = (lambda w: ratio_text(w, b.denominator)) if b.mode == RATIONAL else float
    return {
        "scenario": {"x": s.x_card, "y": s.y_card, "a": s.a_card, "b": s.b_card},
        "mode": b.mode,
        "p": [[[list(map(text, row)) for row in block] for block in xs] for xs in b.weights],
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
