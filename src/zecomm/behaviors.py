"""Bipartite input/output behaviors p(a,b|x,y) and the extremal no-signaling
families used by the assisted-coding protocols.

Conventions: inputs x, y and outputs a, b are 0-based.  A behavior table is
stored as nested tuples indexed ``p[x][y][a][b]``.  Tensor products flatten
tuples row-major with the first factor most significant.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .numeric import (
    FLOAT_TOL,
    RATIONAL,
    ZeroConditioningError,
    as_prob,
    check_mode,
    is_positive,
    one,
    prob_to_json,
    require_same_mode,
    zero,
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

    Immutable; ``p`` is a nested tuple indexed (x, y, a, b) whose entries all
    share the numeric ``mode``.
    """

    scenario: Scenario
    mode: str
    p: tuple

    def prob(self, x: int, y: int, a: int, b: int):
        return self.p[x][y][a][b]

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


def make_behavior(scenario: Scenario, mode: str, entry: Callable[[int, int, int, int], object]) -> Behavior:
    check_mode(mode)
    table = tuple(
        tuple(
            tuple(
                tuple(as_prob(entry(x, y, a, b), mode) for b in range(scenario.b_card))
                for a in range(scenario.a_card)
            )
            for y in range(scenario.y_card)
        )
        for x in range(scenario.x_card)
    )
    return Behavior(scenario, mode, table)


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
    """Return the list of violated constraints (empty iff the behavior is valid)."""
    report = []
    s = b.scenario
    for x, y in b.inputs():
        total = zero(b.mode)
        for a, bo in b.outputs():
            v = b.prob(x, y, a, bo)
            if v < 0:
                report.append(f"negative entry at (x={x},y={y},a={a},b={bo})")
            total += v
        if b.mode == RATIONAL:
            if total != 1:
                report.append(f"normalization violated at (x={x},y={y}): sum={total}")
        elif abs(total - 1.0) > tol:
            report.append(f"normalization violated at (x={x},y={y}): sum={total}")
    return report


def marginal_alice(b: Behavior, x: int, a: int, y: int = 0):
    """p(a|x,y) = sum_b p(a,b|x,y)."""
    s = b.scenario
    if not (0 <= x < s.x_card and 0 <= a < s.a_card and 0 <= y < s.y_card):
        raise IndexError("index out of range")
    return sum((b.prob(x, y, a, bo) for bo in range(s.b_card)), zero(b.mode))


def marginal_bob(b: Behavior, y: int, b_out: int, x: int = 0):
    """p(b|x,y) = sum_a p(a,b|x,y)."""
    s = b.scenario
    if not (0 <= y < s.y_card and 0 <= b_out < s.b_card and 0 <= x < s.x_card):
        raise IndexError("index out of range")
    return sum((b.prob(x, y, a, b_out) for a in range(s.a_card)), zero(b.mode))


def is_no_signaling(b: Behavior, tol: float = FLOAT_TOL):
    """Check that each party's marginal is independent of the other's input.

    Returns ``(ok, max_violation)``; comparison is exact in rational mode.
    """
    s = b.scenario
    max_violation = zero(b.mode)
    for x in range(s.x_card):
        for a in range(s.a_card):
            ref = marginal_alice(b, x, a, 0)
            for y in range(1, s.y_card):
                max_violation = max(max_violation, abs(marginal_alice(b, x, a, y) - ref))
    for y in range(s.y_card):
        for bo in range(s.b_card):
            ref = marginal_bob(b, y, bo, 0)
            for x in range(1, s.x_card):
                max_violation = max(max_violation, abs(marginal_bob(b, y, bo, x) - ref))
    if b.mode == RATIONAL:
        return max_violation == 0, max_violation
    return max_violation <= tol, max_violation


def conditional_bob(b: Behavior, y: int, b_out: int, x: int, a: int):
    """p(b|a,x,y) = p(a,b|x,y) / p(a|x,y).

    Well-defined independently of y for no-signaling behaviors.  Raises
    :class:`ZeroConditioningError` when p(a|x,y) = 0.
    """
    pa = marginal_alice(b, x, a, y)
    if not is_positive(pa, b.mode):
        raise ZeroConditioningError(f"conditioning on p(a={a}|x={x}) = 0")
    return b.prob(x, y, a, b_out) / pa


def make_extremal_box(m: int, k: int) -> Behavior:
    """Extremal no-signaling box of the 2-input, m-outcome scenario.

    p(a,b|x,y) = 1/k when a,b < k and (b - a) mod k = x*y, else 0.  k = m gives
    the full-output vertex; k = 2 = m is the PR box.
    """
    if not 2 <= k <= m:
        raise ValueError("require 2 <= k <= m")
    w = Fraction(1, k)

    def entry(x, y, a, b):
        if a < k and b < k and (b - a) % k == x * y:
            return w
        return 0

    return make_behavior(Scenario(2, 2, m, m), RATIONAL, entry)


def make_rtilde_box(m: int) -> Behavior:
    """Extremal no-signaling box of the m-input, 2-outcome scenario.

    p(a,b|x,y) = 1/2 when a xor b equals [x == y and x != 0], else 0.
    """
    if m < 2:
        raise ValueError("require m >= 2")

    def entry(x, y, a, b):
        target = 1 if (x == y and x != 0) else 0
        return Fraction(1, 2) if (a ^ b) == target else 0

    return make_behavior(Scenario(m, m, 2, 2), RATIONAL, entry)


def make_jones_box(m1: int, m2: int, q_pairs: Iterable[tuple[int, int]]) -> Behavior:
    """General extremal two-outcome box with parity rule
    a xor b = [x=1][y=1] + sum_{(i,j) in Q} [x=i][y=j]  (mod 2).

    Q must avoid (1,1) and stay within {1..m1-1} x {1..m2-1}.
    """
    q = set(tuple(p) for p in q_pairs)
    for i, j in q:
        if (i, j) == (1, 1) or not (1 <= i < m1 and 1 <= j < m2):
            raise ValueError(f"invalid Q pair {(i, j)}")

    def entry(x, y, a, b):
        parity = (1 if (x == 1 and y == 1) else 0) + sum(1 for (i, j) in q if x == i and y == j)
        return Fraction(1, 2) if (a ^ b) == parity % 2 else 0

    return make_behavior(Scenario(m1, m2, 2, 2), RATIONAL, entry)


def make_local_deterministic(
    f_alice: Sequence[int], f_bob: Sequence[int], scenario: Scenario
) -> Behavior:
    """Product behavior of two deterministic single-party strategies."""
    if len(f_alice) != scenario.x_card or len(f_bob) != scenario.y_card:
        raise ValueError("strategy maps must be total on the input sets")

    def entry(x, y, a, b):
        return 1 if (a == f_alice[x] and b == f_bob[y]) else 0

    return make_behavior(scenario, RATIONAL, entry)


def mix_behaviors(weighted: Sequence[tuple[object, Behavior]]) -> Behavior:
    """Convex mixture of behaviors over a common scenario and mode."""
    if not weighted:
        raise ValueError("empty mixture")
    first = weighted[0][1]
    mode = first.mode
    for _, b in weighted[1:]:
        require_same_mode(mode, b.mode)
        if b.scenario != first.scenario:
            raise ValueError("scenario mismatch in mixture")
    weights = [as_prob(w, mode) for w, _ in weighted]
    if mode == RATIONAL:
        if sum(weights) != 1:
            raise ValueError("mixture weights must sum to 1")
    return make_behavior(
        first.scenario,
        mode,
        lambda x, y, a, b: sum(w * beh.prob(x, y, a, b) for w, (_, beh) in zip(weights, weighted)),
    )


def uniform_behavior(scenario: Scenario, mode: str = RATIONAL) -> Behavior:
    w = one(mode) / (scenario.a_card * scenario.b_card)
    return make_behavior(scenario, mode, lambda x, y, a, b: w)


def tensor_behaviors(b1: Behavior, b2: Behavior) -> Behavior:
    """Product behavior on the product scenario; tuple indices flatten
    row-major with the first factor most significant.
    """
    mode = require_same_mode(b1.mode, b2.mode)
    s1, s2 = b1.scenario, b2.scenario
    s = Scenario(s1.x_card * s2.x_card, s1.y_card * s2.y_card, s1.a_card * s2.a_card, s1.b_card * s2.b_card)

    def entry(x, y, a, b):
        x1, x2 = divmod(x, s2.x_card)
        y1, y2 = divmod(y, s2.y_card)
        a1, a2 = divmod(a, s2.a_card)
        b1_, b2_ = divmod(b, s2.b_card)
        return b1.prob(x1, y1, a1, b1_) * b2.prob(x2, y2, a2, b2_)

    return make_behavior(s, mode, entry)


def bell_value(b: Behavior, f: BellFunctional):
    """sum over (x,y,a,b) of coefficient * p(a,b|x,y)."""
    if b.scenario != f.scenario:
        raise ValueError("scenario mismatch between behavior and functional")
    total = zero(b.mode)
    for x, y in b.inputs():
        for a, bo in b.outputs():
            c = f.coeff(x, y, a, bo)
            if c:
                total += (c if b.mode == RATIONAL else float(c)) * b.prob(x, y, a, bo)
    return total


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
    mode = check_mode(data["mode"])
    raw = data["p"]
    beh = make_behavior(scenario, mode, lambda x, y, a, b: raw[x][y][a][b])
    problems = validate_behavior(beh)
    if problems:
        raise ValueError("invalid behavior file: " + "; ".join(problems))
    return beh


def save_behavior(b: Behavior, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(behavior_to_json(b), fh, indent=1)


def load_behavior(path: str) -> Behavior:
    with open(path) as fh:
        return behavior_from_json(json.load(fh))
