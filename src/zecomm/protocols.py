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

from .behaviors import Behavior, Scenario, is_no_signaling
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
from .numeric import RATIONAL

#: largest encoder count ``best_unassisted_success`` enumerates
UNASSISTED_ENCODER_LIMIT = 10**7

#: decoder marker for "do not use the box on this channel output"
SKIP = None


@dataclass(frozen=True)
class AssistedProtocol:
    """Deterministic maps defining one assisted-coding scheme.

    ``enc_box_input[message]`` is the sender's box input; the channel input is
    ``enc_channel_input[(message, box_outcome)]`` (a flat index).
    ``decoder[output]`` is the receiver's rule ``(y, guesses)`` for each flat
    channel output: y is the box input queried and ``guesses[b]`` the message
    guessed on box outcome b, or y is SKIP (the box is not used) and
    ``guesses`` holds the one message guessed.
    """

    message_count: int
    enc_box_input: tuple[int, ...]
    enc_channel_input: dict
    decoder: tuple

    def __post_init__(self):
        if len(self.enc_box_input) != self.message_count:
            raise ValueError("enc_box_input must be total on messages")


# --- the two protocol families ---------------------------------------------

def make_theorem2_protocol(m: int) -> AssistedProtocol:
    """One-bit scheme for the (m+1)-layer channel with the 2-input m-outcome
    extremal box.

    Encoder: message g sends channel input (g, a) on box outcome a.
    Decoder: first output layer carries the message directly (box skipped);
    layer 2 queries the box at y=1 and guesses pi_hat(o2) + b; layer l >= 3
    queries y=0 and guesses o2 + pi_hat(pi_perm(l-3, b)).  Raw guesses >= 2,
    layer 1 included, are stored as message 0; no input reaches them through
    an extremal box.
    """
    in_space, out_space = _nm_spaces(m)

    def decode(o1: int, o2: int):
        if o1 == 1:
            y, raw = SKIP, [o2]
        elif o1 == 2:
            y, raw = 1, [(pi_hat(m, o2) + b) % m for b in range(m)]
        else:
            y, raw = 0, [(o2 + pi_hat(m, pi_perm(m, o1 - 3, b))) % m for b in range(m)]
        return y, tuple(g if g < 2 else 0 for g in raw)

    enc_channel = {label: flat for flat, label in enumerate(in_space.labels())}
    return AssistedProtocol(2, (0, 1), enc_channel, tuple(itertools.starmap(decode, out_space.labels())))


def make_theorem3_protocol(m: int) -> AssistedProtocol:
    """log(m)-bit scheme for the m-block channel with the m-input 2-outcome
    extremal box.

    Encoder: message g queries x=g and sends channel input (g, a) on outcome a.
    Decoder: the first output layer carries the message directly; an output in
    block j queries the box at y=j and guesses
    o2 + pi_hat(pi_perm(o1 - anchor(j), b)).
    """
    in_space, out_space = _mm_spaces(m)

    def decode(o1: int, o2: int):
        if o1 == 1:
            return SKIP, (o2,)
        j = mm_block_of(m, o1)
        shift = o1 - mm_block_anchor(m, j)
        return j, tuple((o2 + pi_hat(m, pi_perm(m, shift, b))) % m for b in range(2))

    enc_channel = {label: flat for flat, label in enumerate(in_space.labels())}
    return AssistedProtocol(m, tuple(range(m)), enc_channel, tuple(itertools.starmap(decode, out_space.labels())))


#: CLI ``--scheme`` name -> (protocol, channel (input, output) index spaces,
#: box scenario), each a function of m.  The protocol builders are looked up
#: when called, so a builder rebound on this module is the one used.
SCHEMES = {
    "theorem2": (lambda m: make_theorem2_protocol(m), _nm_spaces, lambda m: Scenario(2, 2, m, m)),
    "theorem3": (lambda m: make_theorem3_protocol(m), _mm_spaces, lambda m: Scenario(m, m, 2, 2)),
}


def tensor_protocols(p1: AssistedProtocol, p2: AssistedProtocol,
                     c1: Channel, c2: Channel,
                     box1: Behavior, box2: Behavior) -> AssistedProtocol:
    """Componentwise product scheme for a tensor channel with a tensor box.

    Messages, box inputs and outcomes flatten row-major (first factor most
    significant).  A component that skips its box feeds y=0 to that factor and
    ignores the corresponding outcome.
    """
    k1, k2 = p1.message_count, p2.message_count
    s1, s2 = box1.scenario, box2.scenario
    n_in2 = c2.n_inputs

    enc_box = tuple(p1.enc_box_input[g1] * s2.x_card + p2.enc_box_input[g2] for g1 in range(k1) for g2 in range(k2))
    enc_channel = {}
    for g1 in range(k1):
        for g2 in range(k2):
            g = g1 * k2 + g2
            for a1 in range(s1.a_card):
                for a2 in range(s2.a_card):
                    a = a1 * s2.a_card + a2
                    enc_channel[(g, a)] = p1.enc_channel_input[(g1, a1)] * n_in2 + p2.enc_channel_input[(g2, a2)]

    rules1 = [(0, guesses * s1.b_card) if y is SKIP else (y, guesses) for y, guesses in p1.decoder]
    rules2 = [(0, guesses * s2.b_card) if y is SKIP else (y, guesses) for y, guesses in p2.decoder]
    decoder = tuple((y1 * s2.y_card + y2, tuple(g1 * k2 + g2 for g1 in guesses1 for g2 in guesses2))
                    for y1, guesses1 in rules1 for y2, guesses2 in rules2)
    return AssistedProtocol(k1 * k2, enc_box, enc_channel, decoder)


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
    if len(p.decoder) != c.n_outputs:
        raise ValueError("decoder must be total on channel outputs")
    for out, (y, guesses) in enumerate(p.decoder):
        if y is SKIP:
            if len(guesses) != 1:
                raise ValueError(f"decoder skips the box on output {out} but holds {len(guesses)} guesses, not 1")
        elif not 0 <= y < s.y_card:
            raise ValueError("decoder box input out of range")
        elif len(guesses) < s.b_card:
            raise ValueError(f"decoder holds {len(guesses)} guesses on output {out}, fewer than the box's "
                             f"{s.b_card} outcomes")


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
            cin = p.enc_channel_input[(g, a)]
            row = c.weights[cin]
            for out in c.supports[cin]:
                y, guesses = p.decoder[out]
                if y is SKIP:
                    if guesses[0] == g:
                        total += pa * row[out]
                else:
                    for w, guess in zip(box.weights[x][y][a], guesses):  # p(a,b|x,y) = p(b|a,x,y) p(a|x) for NS boxes
                        if guess == g:
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
        for y in {y for y, _ in p.decoder} - {SKIP}:
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
        y, guesses = p.decoder[out]
        guess = guesses[0] if y is SKIP else guesses[_sample_column(bob[(x, y, a)], rng)]
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
    """A search reached its budget.  ``branches`` is the number of encoders
    decided before it stopped, and ``enc_box`` the box-input tuple whose
    encoders it was walking."""

    def __init__(self, branches: int, enc_box: tuple):
        super().__init__(f"exceeded {branches} encoder branches while walking box inputs {enc_box}")
        self.branches = branches
        self.enc_box = enc_box


def exhaustive_assisted_search(c: Channel, box: Behavior, k: int,
                               max_branches: int = 10**9):
    """Search all deterministic assisted protocols with k messages for a
    zero-error one; returns ``(found, protocol_or_None)``.

    For fixed encoder maps, a zero-error completion of the decoder exists iff
    every reachable channel output admits a box input (or a skip) whose
    outcome cells are pure in the message; the decoder is then forced.  The
    search enumerates encoders in canonical order (box inputs, then the flat
    channel-input tuple, each in ``itertools.product`` order), decides each
    one with one ``_complete_decoder`` call, and returns the first hit, which
    ``is_zero_error`` rechecks.  ``max_branches`` caps the encoders visited;
    SearchLimitExceeded is raised on the first encoder beyond it.

    Message g's channel inputs ``enc_channel_input[(g, a)]``, a = 0..A-1, are
    one encoder block, at flat positions g*A .. g*A+A-1.  So the search is the
    product, over the messages, of one block table per box input, built once
    per call and only as far as the enumeration reaches (see ``_blocks`` and
    ``_walk``).  The first K-1 messages are walked depth first, each prefix
    carrying its accumulated masks (``_extend``); each block of the last
    message's table then completes one encoder, decided from those masks and
    that block alone.
    Raises ValueError for a signaling box or for k < 1.
    """
    if k < 1:
        raise ValueError(f"message count K = {k} must be at least 1")
    if box.mode != RATIONAL:
        raise ValueError("exhaustive search requires rational mode")
    _check_no_signaling(box)
    s = box.scenario
    n_out, b_card = c.n_outputs, s.b_card  # n_outputs is recomputed on every read
    tables = [([], _blocks(c, box, x)) for x in range(s.x_card)]
    empty = (0, 0, [0] * s.y_card, [0] * s.y_card)
    branches = 0
    for enc_box in itertools.product(range(s.x_card), repeat=k):
        *outer, last = [tables[x] for x in enc_box]
        for prefix, masks in _prefixes(outer, (), empty):
            for block in _walk(last):
                if branches >= max_branches:
                    raise SearchLimitExceeded(branches, enc_box)
                branches += 1
                decoder = _complete_decoder(masks, prefix, block, n_out, b_card)
                if decoder is None:
                    continue
                leaf = prefix + (block,)
                enc_channel = {(g, a): cin for g, (cins, _, _) in enumerate(leaf) for a, cin in enumerate(cins)}
                protocol = AssistedProtocol(k, enc_box, enc_channel, decoder)
                if is_zero_error(c, box, protocol):
                    return True, protocol
    return False, None


def _blocks(c: Channel, box: Behavior, x: int):
    """Every encoder block of one message sent with box input x, in
    ``itertools.product`` order.

    A block is ``(cins, reach, cells)``: ``cins[a]`` is the channel input
    sent on outcome a; ``reach`` has bit ``out * B`` set for each output
    reached through an outcome a with ``alice[x][a] > 0``; ``cells[y]`` packs
    B bits per output, bit ``out * B + b`` set when such an a reaches the
    output and ``p(a, b | x, y) > 0``.
    """
    s = box.scenario
    spread = [sum(1 << out * s.b_card for out in support) for support in c.supports]
    used = [a for a, pa in enumerate(box.alice[x]) if pa]
    patterns = [[sum(1 << b for b, w in enumerate(box.weights[x][y][a]) if w) for a in range(s.a_card)]
                for y in range(s.y_card)]
    for cins in itertools.product(range(c.n_inputs), repeat=s.a_card):
        reach = 0
        for a in used:
            reach |= spread[cins[a]]
        cells = []
        for row in patterns:
            packed = 0
            for a in used:
                packed |= spread[cins[a]] * row[a]
            cells.append(packed)
        yield cins, reach, tuple(cells)


def _walk(table):
    """Every block of one table, in order.  A table is ``(built, source)``:
    the blocks built so far and the generator of the rest, shared by every
    position using the table.  Blocks are read from ``built`` by index and
    taken from ``source`` at its end, so a search stopped early (a hit, or
    the budget) builds only the blocks it reached."""
    built, source = table
    for i in itertools.count():
        if i == len(built):
            block = next(source, None)
            if block is None:
                return
            built.append(block)
        yield built[i]


def _prefixes(tables, prefix, masks):
    """Every tuple of one block per table, extending ``prefix``, in
    ``itertools.product`` order, each with ``masks`` extended by its blocks."""
    if not tables:
        yield prefix, masks
        return
    first, *rest = tables
    for block in _walk(first):
        yield from _prefixes(rest, prefix + (block,), _extend(masks, block))


def _extend(masks, block):
    """The masks ``(hit, multi, seen, shared)`` of a block tuple, extended by
    one more message's block.  ``hit`` marks the outputs reached, ``multi``
    those reached by two or more messages; per box input y, ``seen[y]``
    marks the positive outcome cells and ``shared[y]`` those positive for
    two or more messages.  ``seen`` and ``shared`` are lists: a tuple built
    from a generator is allocated oversized and shrunk, and each one freed
    then idles on the interpreter's tuple free list."""
    hit, multi, seen, shared = masks
    _, reach, cells = block
    return (hit | reach, multi | hit & reach,
            [old | new for old, new in zip(seen, cells)],
            [both | old & new for both, old, new in zip(shared, seen, cells)])


def _complete_decoder(masks, prefix, block, n_out: int, b_card: int):
    """The forced decoder of one encoder, as its ``(y, guesses)`` rules, or
    None when some output admits no box input (or skip) whose outcome cells
    are message-pure.

    The encoder is ``prefix`` (one ``_blocks`` block per message but the
    last) plus ``block``, and ``masks`` are the prefix's ``_extend`` masks.
    The encoder fails iff some output hit by two or more messages has, on
    every y, an outcome cell that two messages share.  Otherwise an output
    hit by at most one message skips the box and guesses that message (or
    0); a multi-hit output takes the first clash-free y and guesses, per
    outcome b, the message whose cell is positive (or 0).
    """
    hit, multi, seen, shared = masks
    _, reach, cells = block
    bad = multi | hit & reach
    for y, cell in enumerate(cells):
        if not bad:
            break
        clash = shared[y] | seen[y] & cell
        spread = clash
        for shift in range(1, b_card):  # any shared outcome cell of an output lands on its bit out * B
            spread |= clash >> shift
        bad &= spread
    if bad:
        return None
    leaf = prefix + (block,)
    _, multi, _, shared = _extend(masks, block)
    cell_bits = (1 << b_card) - 1
    rules = []
    for out in range(n_out):
        bit = 1 << out * b_card
        if not multi & bit:
            rules.append((SKIP, (next((g for g, (_, reach, _) in enumerate(leaf) if reach & bit), 0),)))
            continue
        y = next(y for y, both in enumerate(shared) if not both >> out * b_card & cell_bits)
        rules.append((y, tuple(next((g for g, (_, _, cells) in enumerate(leaf) if cells[y] & bit << b), 0)
                               for b in range(b_card))))
    return tuple(rules)


# --- JSON interchange -------------------------------------------------------

def protocol_to_json(p: AssistedProtocol) -> dict:
    return {
        "message_count": p.message_count,
        "enc_box_input": list(p.enc_box_input),
        "enc_channel_input": [[g, a, cin] for (g, a), cin in sorted(p.enc_channel_input.items())],
        "dec_box_input": ["skip" if y is SKIP else y for y, _ in p.decoder],
        "dec_guess": [[out, "skip" if y is SKIP else b, guess]
                      for out, (y, guesses) in enumerate(p.decoder) for b, guess in enumerate(guesses)],
        "guess_remap": [],
    }


def protocol_from_json(data: dict) -> AssistedProtocol:
    """Protocol from its JSON form.  ``dec_guess`` entries
    ``[output, outcome or "skip", guess]`` may come in any order.  An output
    that skips the box takes its ``"skip"`` entry, and one without it is
    refused; any other output takes its guesses on outcomes 0, 1, ... up to
    the first outcome it lacks, and ``_check_compatible`` refuses too few.
    The file's ``guess_remap`` pairs ``[raw, message]`` map raw guesses
    outside the messages onto messages; they are folded into the guesses, and
    a pair that moves a message is refused."""
    k = data["message_count"]
    remap = {raw: g for raw, g in data["guess_remap"]}
    if any(remap.get(g, g) != g for g in range(k)):
        raise ValueError("guess_remap must be the identity on messages")
    entries = {}
    for out, b, guess in data["dec_guess"]:
        entries.setdefault(out, {})[b] = remap.get(guess, guess)
    decoder = []
    for out, y in enumerate(data["dec_box_input"]):
        guesses = entries.get(out, {})
        if y != "skip":
            count = next(b for b in itertools.count() if b not in guesses)
            decoder.append((y, tuple(guesses[b] for b in range(count))))
        elif "skip" in guesses:
            decoder.append((SKIP, (guesses["skip"],)))
        else:
            raise ValueError(f'output {out} skips the box but dec_guess has no "skip" entry for it')
    return AssistedProtocol(
        k,
        tuple(data["enc_box_input"]),
        {(g, a): cin for g, a, cin in data["enc_channel_input"]},
        tuple(decoder),
    )
