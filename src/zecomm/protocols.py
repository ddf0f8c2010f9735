"""Correlation-assisted coding protocols and their exact evaluation.

A protocol transmits a message through one channel use with one use of a
shared bipartite box: the sender queries the box with an input derived from
the message, feeds (message, box outcome) into the channel; the receiver picks
a box input from the channel output (or skips the box), then guesses from the
output and the box outcome.  Messages are equiprobable, and every decoder
guess is a message.  Success probabilities are exact rationals when the box is
rational mode, as every channel is.  Evaluators read the integer tables
directly and refuse signaling boxes, which are outside the model.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .behaviors import Behavior, is_no_signaling
from .channels import (
    Channel,
    _mm_spaces,
    _nm_spaces,
    _sample_column,
    _sampling_table,
    mm_block_anchor,
    mm_block_of,
    pi_hat,
    pi_perm,
)
from .numeric import POS_EPS, RATIONAL

#: largest encoder count ``best_unassisted_success`` enumerates
UNASSISTED_ENCODER_LIMIT = 10**7

#: decoder marker for "do not use the box on this channel output"
SKIP = None


@dataclass(frozen=True)
class AssistedProtocol:
    """Deterministic maps defining one assisted-coding scheme.

    ``enc_box_input[message]`` is the sender's box input; the channel input is
    ``enc_channel_input[(message, box_outcome)]`` (a flat index).  For each
    flat channel output, ``dec_box_input[output]`` is the receiver's box input
    or SKIP, and ``dec_guess[(output, box_outcome_or_SKIP)]`` is the message
    guessed.
    """

    message_count: int
    enc_box_input: tuple[int, ...]
    enc_channel_input: dict
    dec_box_input: tuple
    dec_guess: dict

    def __post_init__(self):
        if len(self.enc_box_input) != self.message_count:
            raise ValueError("enc_box_input must be total on messages")


# --- the two protocol families ---------------------------------------------

def make_theorem2_protocol(m: int) -> AssistedProtocol:
    """One-bit scheme for the (m+1)-layer channel with the 2-input m-outcome
    extremal box.

    Decoder: first output layer carries the message directly (box skipped);
    layer 2 queries the box at y=1 and guesses pi_hat(o2) + b; layer l >= 3
    queries y=0 and guesses o2 + pi_hat(pi_perm(l-3, b)).  Those raw guesses
    lie in {0..m-1}; the ones >= 2 are stored as message 0, and they are only
    reachable for non-extremal boxes.
    """
    in_space, out_space = _nm_spaces(m)

    enc_channel = {(g, a): in_space.flatten((g, a)) for g in range(2) for a in range(m)}
    dec_box = []
    dec_guess = {}
    for out in range(out_space.size):
        o1, o2 = out_space.unflatten(out)
        if o1 == 1:
            dec_box.append(SKIP)
            dec_guess[(out, SKIP)] = o2
        elif o1 == 2:
            dec_box.append(1)
            for b in range(m):
                dec_guess[(out, b)] = (pi_hat(m, o2) + b) % m
        else:
            dec_box.append(0)
            for b in range(m):
                dec_guess[(out, b)] = (o2 + pi_hat(m, pi_perm(m, o1 - 3, b))) % m
    dec_guess = {key: raw if raw < 2 else 0 for key, raw in dec_guess.items()}
    return AssistedProtocol(2, (0, 1), enc_channel, tuple(dec_box), dec_guess)


def make_theorem3_protocol(m: int) -> AssistedProtocol:
    """log(m)-bit scheme for the m-block channel with the m-input 2-outcome
    extremal box.

    Decoder: the first output layer carries the message directly; an output in
    block j queries the box at y=j and guesses
    o2 + pi_hat(pi_perm(o1 - anchor(j), b)).
    """
    in_space, out_space = _mm_spaces(m)

    enc_channel = {(g, a): in_space.flatten((g, a)) for g in range(m) for a in range(2)}
    dec_box = []
    dec_guess = {}
    for out in range(out_space.size):
        o1, o2 = out_space.unflatten(out)
        if o1 == 1:
            dec_box.append(SKIP)
            dec_guess[(out, SKIP)] = o2
        else:
            j = mm_block_of(m, o1)
            shift = o1 - mm_block_anchor(m, j)
            dec_box.append(j)
            for b in range(2):
                dec_guess[(out, b)] = (o2 + pi_hat(m, pi_perm(m, shift, b))) % m
    return AssistedProtocol(m, tuple(range(m)), enc_channel, tuple(dec_box), dec_guess)


def tensor_protocols(p1: AssistedProtocol, p2: AssistedProtocol,
                     c1: Channel, c2: Channel,
                     box1: Behavior, box2: Behavior) -> AssistedProtocol:
    """Componentwise product scheme for a tensor channel with a tensor box.

    Messages, box inputs and outcomes flatten row-major (first factor most
    significant).  A component that skips its box feeds y=0 to that factor and
    ignores the corresponding outcome.
    """
    k = p1.message_count * p2.message_count
    s1, s2 = box1.scenario, box2.scenario
    n_in2 = c2.n_inputs
    n_out2 = c2.n_outputs

    enc_box = tuple(
        p1.enc_box_input[g1] * s2.x_card + p2.enc_box_input[g2]
        for g1 in range(p1.message_count)
        for g2 in range(p2.message_count)
    )
    enc_channel = {}
    for g1 in range(p1.message_count):
        for g2 in range(p2.message_count):
            g = g1 * p2.message_count + g2
            for a1 in range(s1.a_card):
                for a2 in range(s2.a_card):
                    a = a1 * s2.a_card + a2
                    enc_channel[(g, a)] = p1.enc_channel_input[(g1, a1)] * n_in2 + p2.enc_channel_input[(g2, a2)]

    dec_box = []
    dec_guess = {}
    for out in range(c1.n_outputs * n_out2):
        o1, o2 = divmod(out, n_out2)
        y1, y2 = p1.dec_box_input[o1], p2.dec_box_input[o2]
        dec_box.append((0 if y1 is SKIP else y1) * s2.y_card + (0 if y2 is SKIP else y2))
        for b1 in range(s1.b_card):
            for b2 in range(s2.b_card):
                g1 = p1.dec_guess[(o1, SKIP if y1 is SKIP else b1)]
                g2 = p2.dec_guess[(o2, SKIP if y2 is SKIP else b2)]
                dec_guess[(out, b1 * s2.b_card + b2)] = g1 * p2.message_count + g2
    return AssistedProtocol(k, enc_box, enc_channel, tuple(dec_box), dec_guess)


# --- evaluation -------------------------------------------------------------

def _check_no_signaling(box: Behavior) -> None:
    """Refuse a signaling box: exactly in rational mode, within FLOAT_TOL in float mode."""
    ok, violation = is_no_signaling(box)
    if not ok:
        raise ValueError(f"signaling box: a marginal depends on the other party's input (by up to {violation}); "
                         "only no-signaling boxes belong to the model")


def _check_compatible(c: Channel, box: Behavior, p: AssistedProtocol) -> None:
    _check_no_signaling(box)
    s = box.scenario
    for g in range(p.message_count):
        if not 0 <= p.enc_box_input[g] < s.x_card:
            raise ValueError("encoder box input out of range")
        for a in range(s.a_card):
            if (g, a) not in p.enc_channel_input:
                raise ValueError(f"enc_channel_input missing ({g},{a})")
            if not 0 <= p.enc_channel_input[(g, a)] < c.n_inputs:
                raise ValueError("encoder channel input out of range")
    if len(p.dec_box_input) != c.n_outputs:
        raise ValueError("dec_box_input must be total on channel outputs")
    for out, y in enumerate(p.dec_box_input):
        if y is not SKIP and not 0 <= y < s.y_card:
            raise ValueError("decoder box input out of range")


def per_message_success(c: Channel, box: Behavior, p: AssistedProtocol):
    """Success probability conditioned on each message, as a list.

    Exact when the box is rational mode; float otherwise.  Per message, the
    box numerators times the channel numerators are summed and divided once,
    by ``box.denominator * c.denominator``.
    Raises ValueError for a signaling box.
    """
    _check_compatible(c, box, p)
    exact = box.mode == RATIONAL
    denominator = box.denominator * c.denominator
    results = []
    for g in range(p.message_count):
        x = p.enc_box_input[g]
        total = 0
        for a, pa in enumerate(box.alice[x]):
            if pa <= POS_EPS:  # numerators are ints in rational mode, so this is pa = 0
                continue
            cin = p.enc_channel_input[(g, a)]
            row = c.weights[cin]
            for out in c.supports[cin]:
                y = p.dec_box_input[out]
                if y is SKIP:
                    if p.dec_guess[(out, SKIP)] == g:
                        total += pa * row[out]
                else:
                    for b, w in enumerate(box.weights[x][y][a]):  # p(a,b|x,y) = p(b|a,x,y) p(a|x) for NS boxes
                        if p.dec_guess[(out, b)] == g:
                            total += w * row[out]
        results.append(Fraction(total, denominator) if exact else total / denominator)
    return results


def exact_success(c: Channel, box: Behavior, p: AssistedProtocol):
    """Success probability averaged over equiprobable messages."""
    return average_success(per_message_success(c, box, p))


def average_success(per_message: list):
    """Mean of the per-message success probabilities (equiprobable messages)."""
    k = len(per_message)
    return sum(Fraction(1, k) * v for v in per_message)


def is_zero_error(c: Channel, box: Behavior, p: AssistedProtocol) -> bool:
    """True iff every message decodes with certainty.  Requires a
    rational-mode box."""
    if box.mode != RATIONAL:
        raise ValueError("zero-error decision requires rational mode")
    return all(v == 1 for v in per_message_success(c, box, p))


def monte_carlo_success(c: Channel, box: Behavior, p: AssistedProtocol, trials: int, seed: int):
    """Frequency estimate of the success probability with its standard error.

    Deterministic given the seed.  The message is drawn uniformly.  Box
    outcomes are sampled sequentially: Alice's marginal ``alice[x]`` first,
    then Bob's conditional ``weights[x][y][a]`` over ``alice[x][a]``; a
    signaling box raises ValueError.  The message, marginal, conditional and
    channel sampling tables are built once per call.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    _check_compatible(c, box, p)
    message_table = _sampling_table([1] * p.message_count, p.message_count)
    rational = box.mode == RATIONAL
    alice = {}
    bob = {}
    for x in set(p.enc_box_input):
        alice[x] = _sampling_table(box.alice[x], box.denominator if rational else None)
        for y in set(p.dec_box_input) - {SKIP}:
            for a, pa in enumerate(box.alice[x]):
                if pa > 0:
                    cell = box.weights[x][y][a]
                    bob[(x, y, a)] = _sampling_table(cell, pa) if rational else _sampling_table([w / pa for w in cell])
    channel = {cin: _sampling_table(c.weights[cin], c.denominator) for cin in set(p.enc_channel_input.values())}

    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        g = _sample_column(message_table, rng)
        x = p.enc_box_input[g]
        a = _sample_column(alice[x], rng)
        out = _sample_column(channel[p.enc_channel_input[(g, a)]], rng)
        y = p.dec_box_input[out]
        if y is SKIP:
            guess = p.dec_guess[(out, SKIP)]
        else:
            b = _sample_column(bob[(x, y, a)], rng)
            guess = p.dec_guess[(out, b)]
        hits += guess == g
    estimate = hits / trials
    stderr = (estimate * (1 - estimate) / trials) ** 0.5
    return estimate, stderr


# --- unassisted and exhaustive searches -------------------------------------

def best_unassisted_success(c: Channel, k: int):
    """Exact optimum over deterministic encoders with per-output MAP decoding,
    for k equiprobable messages.

    MAP decoding is optimal for any fixed encoder by linearity; ties break
    toward the smallest message.  Shared randomness cannot beat this value
    (a mixture of deterministic codes is bounded by the best one).
    Returns ``(success, encoder)`` with the first optimal encoder in
    canonical order.  Encoders are compared in integers, by the sum over
    outputs of the largest channel numerator among their codewords.  Raises
    ValueError beyond ``UNASSISTED_ENCODER_LIMIT`` encoders.
    """
    if k < 1:
        raise ValueError(f"message count K = {k} must be at least 1")
    n = c.n_inputs
    if n**k > UNASSISTED_ENCODER_LIMIT:
        raise ValueError(f"encoder count {n}^{k} exceeds limit {UNASSISTED_ENCODER_LIMIT}")
    best = None
    best_encoder = None
    for encoder in itertools.product(range(n), repeat=k):
        success = sum(map(max, zip(*(c.weights[cin] for cin in encoder))))
        if best is None or success > best:
            best, best_encoder = success, encoder
    return Fraction(best, k * c.denominator), best_encoder


class SearchLimitExceeded(RuntimeError):
    pass


def exhaustive_assisted_search(c: Channel, box: Behavior, k: int,
                               max_branches: int = 10**9):
    """Search all deterministic assisted protocols with k messages for a
    zero-error one; returns ``(found, protocol_or_None)``.

    For fixed encoder maps, a zero-error completion of the decoder exists iff
    every reachable channel output admits a box input (or a skip) whose
    outcome cells are pure in the message; the decoder is then forced.  The
    search enumerates encoders in canonical order and returns the first hit.
    Raises ValueError for a signaling box or for k < 1.
    """
    if k < 1:
        raise ValueError(f"message count K = {k} must be at least 1")
    if box.mode != RATIONAL:
        raise ValueError("exhaustive search requires rational mode")
    _check_no_signaling(box)
    s = box.scenario
    n_in, n_out = c.n_inputs, c.n_outputs
    branches = 0

    support = [frozenset(support) for support in c.supports]
    alice_support = [[a for a, pa in enumerate(alice) if pa] for alice in box.alice]

    for enc_box in itertools.product(range(s.x_card), repeat=k):
        for enc_channel_flat in itertools.product(range(n_in), repeat=k * s.a_card):
            branches += 1
            if branches > max_branches:
                raise SearchLimitExceeded(f"exceeded {max_branches} encoder branches")
            enc_channel = {}
            reach = {}  # output -> list of (message, a)
            for g in range(k):
                for a in range(s.a_card):
                    cin = enc_channel_flat[g * s.a_card + a]
                    enc_channel[(g, a)] = cin
                    if a in alice_support[enc_box[g]]:
                        for out in support[cin]:
                            reach.setdefault(out, []).append((g, a))
            assignment = _complete_decoder(box, enc_box, reach, n_out)
            if assignment is None:
                continue
            dec_box, dec_guess = assignment
            protocol = AssistedProtocol(k, enc_box, enc_channel, dec_box, dec_guess)
            if is_zero_error(c, box, protocol):
                return True, protocol
    return False, None


def _complete_decoder(box: Behavior, enc_box, reach, n_out):
    """Choose, per output, a box input (or SKIP) making every outcome cell
    message-pure; None if some output admits no such choice."""
    s = box.scenario
    dec_box = []
    dec_guess = {}
    for out in range(n_out):
        hitters = reach.get(out, [])
        messages = {g for g, _ in hitters}
        if len(messages) <= 1:
            g = messages.pop() if messages else 0
            dec_box.append(SKIP)
            dec_guess[(out, SKIP)] = g
            continue
        choice = None
        for y in range(s.y_card):
            cells = {}
            ok = True
            for g, a in hitters:
                for b, w in enumerate(box.weights[enc_box[g]][y][a]):
                    if w:
                        if cells.setdefault(b, g) != g:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                choice = (y, cells)
                break
        if choice is None:
            return None
        y, cells = choice
        dec_box.append(y)
        for b in range(s.b_card):
            dec_guess[(out, b)] = cells.get(b, 0)
    return tuple(dec_box), dec_guess


# --- JSON interchange -------------------------------------------------------

def protocol_to_json(p: AssistedProtocol) -> dict:
    return {
        "message_count": p.message_count,
        "enc_box_input": list(p.enc_box_input),
        "enc_channel_input": [[g, a, cin] for (g, a), cin in sorted(p.enc_channel_input.items())],
        "dec_box_input": ["skip" if y is SKIP else y for y in p.dec_box_input],
        "dec_guess": [
            [out, "skip" if b is SKIP else b, guess]
            for (out, b), guess in sorted(p.dec_guess.items(), key=lambda kv: (kv[0][0], -1 if kv[0][1] is SKIP else kv[0][1]))
        ],
        "guess_remap": [],
    }


def protocol_from_json(data: dict) -> AssistedProtocol:
    """Protocol from its JSON form.  The file's ``guess_remap`` pairs
    ``[raw, message]`` map raw guesses outside the messages onto messages;
    they are folded into ``dec_guess``, and a pair that moves a message is
    refused."""
    k = data["message_count"]
    remap = {raw: g for raw, g in data["guess_remap"]}
    if any(remap.get(g, g) != g for g in range(k)):
        raise ValueError("guess_remap must be the identity on messages")
    return AssistedProtocol(
        k,
        tuple(data["enc_box_input"]),
        {(g, a): cin for g, a, cin in data["enc_channel_input"]},
        tuple(SKIP if y == "skip" else y for y in data["dec_box_input"]),
        {(out, SKIP if b == "skip" else b): remap.get(guess, guess) for out, b, guess in data["dec_guess"]},
    )
