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

import functools
import itertools
import operator
import random
from bisect import bisect_right
from fractions import Fraction

from .behaviors import Behavior, Scenario, is_no_signaling
from .channels import Channel, _mm_layers, _mm_spaces, _nm_layers, _nm_spaces, _sampling_table
from .numeric import RATIONAL, Frozen, is_index

#: most nodes the walk of ``best_unassisted_success`` visits: its non-decreasing
#: codeword tuples of every length 1..K, C(n + K, K) - 1 on n >= 2 inputs
UNASSISTED_ENCODER_LIMIT = 10**7

#: most encoder blocks one set of ``_window`` bitsets covers: a longer block
#: table is decided in windows that share their leading channel inputs
PASSING_WINDOW = 1 << 12

#: decoder marker for "do not use the box on this channel output"
SKIP = None

#: standard normal quantile of a two-sided 95 % interval
WILSON_Z = 1.959963984540054


class AssistedProtocol(Frozen):
    """Deterministic maps defining one assisted-coding scheme.

    ``enc_box_input[message]`` is the sender's box input; the channel input is
    ``enc_channel_input[(message, box_outcome)]`` (a flat index).
    ``decoder[output]`` is the receiver's rule ``(y, guesses)`` for each flat
    channel output: y is the box input queried and ``guesses[b]`` the message
    guessed on box outcome b, or y is SKIP (the box is not used) and
    ``guesses`` holds the one message guessed.
    """

    _fields = ("message_count", "enc_box_input", "enc_channel_input", "decoder")

    def __init__(self, message_count: int, enc_box_input: tuple[int, ...], enc_channel_input: dict, decoder: tuple):
        object.__setattr__(self, "message_count", message_count)
        object.__setattr__(self, "enc_box_input", enc_box_input)
        object.__setattr__(self, "enc_channel_input", enc_channel_input)
        object.__setattr__(self, "decoder", decoder)
        _check_message_count(self.message_count)
        if len(self.enc_box_input) != self.message_count:
            raise ValueError("enc_box_input must be total on messages")
        guesses = tuple(itertools.chain.from_iterable(rule[1] for rule in self.decoder))
        stray = set(guesses) - set(range(self.message_count))
        if set(map(type, guesses)) - {int}:  # True == 1 and 1.0 == 1, so the set difference misses them
            stray = {g for g in guesses if type(g) is not int} | stray
        if stray:
            raise ValueError(f"decoder guesses {sorted(stray, key=repr)} are not messages 0..{self.message_count - 1}")


# --- the two protocol families ---------------------------------------------

def _layer_scheme(m: int, layers, messages: int, b_card: int, queries, outcome) -> AssistedProtocol:
    """Scheme for a layered channel (``channels._layered``): ``layers[l][i]``
    is the o2 that flat input i reaches on layer l, o2 in 0..m-1.

    Message g queries box input g and sends flat input g*A + a on box outcome
    a.  An output (l, o2) whose ``queries[l]`` is SKIP skips the box and
    guesses the message that reaches it; otherwise it queries
    y = ``queries[l]`` and guesses, on outcome b, the message g of an input
    (g, a) that reaches it with ``outcome(g, y, a) == b``.  Where two do, the
    later input's message stands; an unreached guess is 0.
    """
    a_card = len(layers[0]) // messages
    inputs = [divmod(i, a_card) for i in range(len(layers[0]))]  # (g, a) of each flat input
    decoder = []
    for layer, y in zip(layers, queries):
        rows = [[0] * (1 if y is SKIP else b_card) for _ in range(m)]
        for (g, a), o2 in zip(inputs, layer):
            rows[o2][0 if y is SKIP else outcome(g, y, a)] = g
        decoder += [(y, tuple(row)) for row in rows]
    return AssistedProtocol(messages, tuple(range(messages)), {ga: i for i, ga in enumerate(inputs)}, tuple(decoder))


def make_theorem2_protocol(m: int) -> AssistedProtocol:
    """One-bit scheme for the (m+1)-layer channel with the 2-input m-outcome
    extremal box, whose outcomes satisfy b = a + x*y mod m.

    Message g sends channel input (g, a) on box outcome a.  The first output
    layer carries the message directly (box skipped); layer 2 queries the box
    at y=1 and each later layer at y=0, each guess read off the layer.
    """
    _, _, layers = _nm_layers(m)
    return _layer_scheme(m, layers, 2, m, [SKIP, 1] + [0] * (m - 1), lambda g, y, a: (a + g * y) % m)


def make_theorem3_protocol(m: int) -> AssistedProtocol:
    """log(m)-bit scheme for the m-block channel with the m-input 2-outcome
    extremal box, whose outcomes satisfy b = a xor [x = y != 0].

    Message g queries x=g and sends channel input (g, a) on outcome a.  The
    first output layer carries the message directly; an output in block j
    queries the box at y=j, each guess read off the layer.
    """
    _, _, layers = _mm_layers(m)
    queries = [SKIP] + [j for j in range(m) for _ in range(m - 1)]
    return _layer_scheme(m, layers, m, 2, queries, lambda g, y, a: a ^ (g == y != 0))


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
    ignores the corresponding outcome.  Each factor must fit its channel and
    box, as the evaluators require.
    """
    _check_compatible(c1, box1, p1)
    _check_compatible(c2, box2, p2)
    k1, k2 = p1.message_count, p2.message_count
    s1, s2 = box1.scenario, box2.scenario
    n_in2 = c2.n_inputs

    enc_box = tuple(x1 * s2.x_card + x2 for x1 in p1.enc_box_input for x2 in p2.enc_box_input)
    enc1, enc2 = p1.enc_channel_input, p2.enc_channel_input
    enc_channel = {(g1 * k2 + g2, a1 * s2.a_card + a2): enc1[g1, a1] * n_in2 + enc2[g2, a2]
                   for g1 in range(k1) for g2 in range(k2) for a1 in range(s1.a_card) for a2 in range(s2.a_card)}

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
    for g, x in enumerate(p.enc_box_input):
        if not is_index(x, s.x_card):
            raise ValueError(f"enc_box_input[{g}] = {x!r} is not a box input 0..{s.x_card - 1}")
        for a in range(s.a_card):
            if (g, a) not in p.enc_channel_input:
                raise ValueError(f"enc_channel_input missing ({g},{a})")
            if not is_index(cin := p.enc_channel_input[g, a], c.n_inputs):
                raise ValueError(f"enc_channel_input[{g}, {a}] = {cin!r} is not a channel input 0..{c.n_inputs - 1}")
    if len(p.enc_channel_input) != p.message_count * s.a_card:  # every key inside is there: the rest are strays
        inside = set(itertools.product(range(p.message_count), range(s.a_card)))
        strays = [key for key in p.enc_channel_input if key not in inside]
        raise ValueError(f"enc_channel_input holds keys outside messages 0..{p.message_count - 1} x box outcomes "
                         f"0..{s.a_card - 1}: {', '.join(map(repr, strays))}")
    if len(p.decoder) != c.n_outputs:
        raise ValueError("decoder must be total on channel outputs")
    for out, (y, guesses) in enumerate(p.decoder):
        if y is SKIP:
            if len(guesses) != 1:
                raise ValueError(f"decoder skips the box on output {out} but holds {len(guesses)} guesses, not 1")
        elif not is_index(y, s.y_card):
            raise ValueError(f"decoder box input {y!r} on output {out} is not a box input 0..{s.y_card - 1}")
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
            outputs, numerators = c.columns[p.enc_channel_input[(g, a)]]
            for out, v in zip(outputs, numerators):
                y, guesses = p.decoder[out]
                if y is SKIP:
                    if guesses[0] == g:
                        total += pa * v
                else:
                    for w, guess in zip(box.weights[x][y][a], guesses):  # p(a,b|x,y) = p(b|a,x,y) p(a|x) for NS boxes
                        if guess == g:
                            total += w * v
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

    Deterministic given the non-negative int ``seed`` (``random.Random``
    seeds with its absolute value); ``trials`` is a positive int.  The
    message is drawn uniformly.  Box outcomes are sampled sequentially:
    Alice's marginal ``alice[x]`` first, then Bob's conditional
    ``weights[x][y][a]`` over ``alice[x][a]``; a signaling box raises
    ValueError.  Each draw is one bisection of a ``_sampling_table`` on a key:
    a 64-bit ``rng.getrandbits`` for the message, the channel and a rational
    box, ``rng.random()`` for a float box, so each rational entry is sampled to
    within 2**-64.  Every table is built once per call: per message, its
    box input's marginal and the channel table for each outcome a; per box
    input x, Bob's tables by y and a.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_compatible(c, box, p)
    s, rational = box.scenario, box.mode == RATIONAL

    def bob_table(cell, pa):
        if pa <= 0:  # Alice never sees this outcome
            return None
        if rational:
            return _sampling_table(range(s.b_card), cell, pa)
        return _sampling_table(range(s.b_card), [w / pa for w in cell])

    bob = {x: [list(map(bob_table, box.weights[x][y], box.alice[x])) for y in range(s.y_card)]
           for x in set(p.enc_box_input)}
    plans = []
    for g, x in enumerate(p.enc_box_input):
        alice_indices, alice_bounds = _sampling_table(range(s.a_card), box.alice[x],
                                                      box.denominator if rational else None)
        channel = [_sampling_table(*c.columns[p.enc_channel_input[(g, a)]], c.denominator) for a in range(s.a_card)]
        plans.append((alice_indices, alice_bounds, channel, bob[x]))
    message_indices, message_bounds = _sampling_table(range(p.message_count), [1] * p.message_count,
                                                      p.message_count)
    decoder = p.decoder

    rng = random.Random(seed)
    bits = functools.partial(rng.getrandbits, 64)
    box_key = bits if rational else rng.random
    hits = 0
    for _ in range(trials):
        g = message_indices[bisect_right(message_bounds, bits())]
        alice_indices, alice_bounds, channel, bob_x = plans[g]
        a = alice_indices[bisect_right(alice_bounds, box_key())]
        out_indices, out_bounds = channel[a]
        y, guesses = decoder[out_indices[bisect_right(out_bounds, bits())]]
        if y is SKIP:
            guess = guesses[0]
        else:
            b_indices, b_bounds = bob_x[y][a]
            guess = guesses[b_indices[bisect_right(b_bounds, box_key())]]
        hits += guess == g
    estimate = hits / trials
    stderr = (estimate * (1 - estimate) / trials) ** 0.5
    return estimate, stderr


def wilson_interval(estimate: float, trials: int) -> tuple[float, float]:
    """95 % Wilson score interval (Wilson 1927) of a success frequency
    ``estimate`` over ``trials``.  Unlike estimate +/- stderr it keeps a width
    at 0 and 1: every trial a success gives (trials / (trials + z**2), 1).
    The endpoint at 0 or 1 is set exactly, since the formula may round past it.
    Raises ValueError for an estimate outside [0, 1] (NaN included) and for a
    ``trials`` that is not an int or is below 1."""
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0 <= estimate <= 1:
        raise ValueError(f"estimate must lie in [0, 1], got {estimate!r}")
    z2 = WILSON_Z * WILSON_Z
    scale = 1 + z2 / trials
    center = (estimate + z2 / (2 * trials)) / scale
    half = WILSON_Z * ((estimate * (1 - estimate) + z2 / (4 * trials)) / trials) ** 0.5 / scale
    return (0.0 if estimate == 0 else center - half, 1.0 if estimate == 1 else center + half)


# --- unassisted and exhaustive searches -------------------------------------

def _check_message_count(k) -> None:
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"message count K must be an int, got {k!r}")
    if k < 1:
        raise ValueError(f"message count K = {k} must be at least 1")


def best_unassisted_success(c: Channel, k: int):
    """Exact optimum over deterministic encoders with per-output MAP decoding,
    for k equiprobable messages.

    MAP decoding is optimal for any fixed encoder by linearity; ties break
    toward the smallest message.  Shared randomness cannot beat this value
    (a mixture of deterministic codes is bounded by the best one).
    Returns ``(success, encoder)`` with the first optimal encoder in
    canonical (``itertools.product``) order.  Encoders are compared in
    integers, by the sum over outputs of the largest channel numerator among
    their codewords.  That sum does not depend on the order of the
    codewords, and sorting an encoder never makes it later in canonical
    order, so the first optimum is non-decreasing: only the non-decreasing
    codeword tuples, the multisets of codewords, are walked, depth first in
    lexicographic order on an explicit stack.  The walk keeps the per-output
    maximum ``top`` of the codewords taken and its sum; a step reads one
    sparse column and undoes its raises on the way back, so it costs the
    column's support.  Raises ValueError for a K that is not an int or is
    below 1, and beyond ``UNASSISTED_ENCODER_LIMIT`` walk nodes.
    """
    _check_message_count(k)
    n = c.n_inputs
    _check_unassisted_walk(n, k)
    columns = c.columns
    top = [0] * c.n_outputs
    score = 0  # sum(top)
    best = -1
    best_encoder = None
    prefix, raises = [], []  # the codewords taken, and per codeword the (output, old top) pairs it raised
    start = 0  # the next codeword to try after the prefix; a tuple never decreases
    while True:
        if len(prefix) == k - 1:  # each last codeword is scored against top, which it leaves as it is
            for cin in range(start, n):
                success = score
                for o, w in zip(*columns[cin]):
                    if w > top[o]:
                        success += w - top[o]
                if success > best:
                    best, best_encoder = success, (*prefix, cin)
        elif start < n:
            raised = []
            for o, w in zip(*columns[start]):
                old = top[o]
                if w > old:
                    raised.append((o, old))
                    top[o] = w
                    score += w - old
            prefix.append(start)
            raises.append(raised)
            continue
        if not prefix:
            return Fraction(best, k * c.denominator), best_encoder
        for o, old in raises.pop():  # a column names each output once, so the order of undoing is free
            score -= top[o] - old
            top[o] = old
        start = prefix.pop() + 1


def _check_unassisted_walk(n: int, k: int) -> None:
    """Refuse a walk of more than ``UNASSISTED_ENCODER_LIMIT`` nodes.  The
    walk of ``best_unassisted_success`` visits every non-decreasing tuple of
    1..k codewords, C(n + k, k) - 1 of them, where a one-input channel counts
    as two inputs: its one encoder still reads k codewords.  C(n + k, k) is
    built as C(high + j, j), j = 1..low, for high and low the larger and the
    smaller of n and k; each step at least doubles it, so it stops within
    the limit's bit length of steps and no large count is built."""
    wide = max(n, 2)
    high, low = max(wide, k), min(wide, k)
    nodes = 1
    for j in range(1, low + 1):
        nodes = nodes * (high + j) // j
        if nodes - 1 > UNASSISTED_ENCODER_LIMIT:
            count = f"C({wide} + {k}, {k}) - 1 walk nodes"
            if n == 1:
                raise ValueError(f"K = {k} messages on a one-input channel count as two inputs: "
                                 f"{count}, beyond limit {UNASSISTED_ENCODER_LIMIT}")
            raise ValueError(f"{count} exceed limit {UNASSISTED_ENCODER_LIMIT}")


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
    SearchLimitExceeded is raised where the walk reaches the first encoder
    beyond it, with ``branches`` equal to the cap.

    Message g's channel inputs ``enc_channel_input[(g, a)]``, a = 0..A-1, are
    one encoder block, at flat positions g*A .. g*A+A-1.  So the search is the
    product, over the messages, of one block table per box input, whose block
    j is built by index (``_block_builder``).  The first K-1 messages are
    walked depth first (``_prefixes``), each prefix carrying its accumulated
    masks (``_extend``); their blocks are read through one cache per box
    input, made when that input is first walked, so a block is built once
    whichever prefix positions share its table.  Each prefix then decides the
    whole last table at once: ``_passing_bits`` combines the prefix's masks
    with the outcome-pattern unions of ``_window``'s per-cell bitsets, one
    lookup per hit output and box input, into the set of last blocks that
    leave every output a clash-free box input, and each encoder's
    ``_complete_decoder`` call gets its bit; a last block is built only where
    its bit is set.  The bitsets are built once per call, for each box input
    walked as the last message's, and only after a prefix that hits an
    output, so never for K = 1.  The budget is checked once per prefix: the
    prefix walks the ``min(room, n^A)`` encoders the budget leaves room for,
    and the search stops after a walk that the budget cut short.
    Raises ValueError for a signaling box, for a K that is not an int or is
    below 1, and for a ``max_branches`` that is not an int or is below 1.
    """
    _check_message_count(k)
    if isinstance(max_branches, bool) or not isinstance(max_branches, int):
        raise ValueError(f"max_branches must be an int, got {max_branches!r}")
    if max_branches < 1:
        raise ValueError(f"max_branches must be at least 1, got {max_branches}")
    if box.mode != RATIONAL:
        raise ValueError("exhaustive search requires rational mode")
    _check_no_signaling(box)
    s = box.scenario
    n_out, b_card = c.n_outputs, s.b_card  # n_outputs is recomputed on every read
    table = c.n_inputs ** s.a_card  # blocks per box input
    # box input -> its cached _block_builder, and its _window bitsets, each made when first needed
    builder = functools.cache(lambda x: functools.cache(_block_builder(c, box, x, s.a_card)))
    window = functools.cache(lambda x: _window(c, box, x))
    empty = (0, 0, [(0, 0)] * s.y_card)
    branches = 0
    for enc_box in itertools.product(range(s.x_card), repeat=k):
        *outer, x = enc_box
        build = builder(x)
        for prefix, masks in _prefixes(list(map(builder, outer)), table, empty):
            room = max_branches - branches
            walk = room if room < table else table  # the encoders of this prefix within the budget
            if masks[0]:
                bits = _passing_bits(masks, window(x), b_card)
            else:  # K = 1: no other message to clash with
                bits = itertools.repeat(1)
            for j, passes in zip(range(walk), bits):
                block = passes and build(j)
                decoder = _complete_decoder(passes, masks, prefix, block, n_out, b_card)
                if decoder is None:
                    continue
                leaf = prefix + (block,)
                enc_channel = {(g, a): cin for g, (cins, _, _) in enumerate(leaf) for a, cin in enumerate(cins)}
                protocol = AssistedProtocol(k, enc_box, enc_channel, decoder)
                if is_zero_error(c, box, protocol):
                    return True, protocol
            branches += walk
            if walk < table:
                raise SearchLimitExceeded(branches, enc_box)
    return False, None


def _block_builder(c: Channel, box: Behavior, x: int, width: int):
    """The encoder blocks of one message sent with box input x, over its
    first ``width`` outcomes, by index: the returned ``build(j)`` is the
    block whose channel inputs are the ``width`` base-n digits of j, most
    significant first, so j is its rank in ``itertools.product`` order.

    A block is ``(cins, reach, cells)``: ``cins[a]`` is the channel input
    sent on outcome a; ``reach`` has the top bit ``out * B + B - 1`` of an
    output's cell group set for each output reached through an outcome a
    with ``alice[x][a] > 0``; ``cells[y]`` packs B bits per output, bit
    ``out * B + b`` set when such an a reaches the output and
    ``p(a, b | x, y) > 0``.  ``_window`` holds the same bits transposed: per
    output and per cell bit, one bitset over the block indices.
    """
    s = box.scenario
    n = c.n_inputs
    spread = [sum(1 << out * s.b_card for out in support) for support in c.supports]
    used = [a for a, pa in enumerate(box.alice[x][:width]) if pa]
    patterns = [[sum(1 << b for b, w in enumerate(box.weights[x][y][a]) if w) for a in range(width)]
                for y in range(s.y_card)]
    places = [n ** (width - 1 - a) for a in range(width)]

    def build(j: int):
        cins = tuple(j // place % n for place in places)
        reach = 0
        for a in used:
            reach |= spread[cins[a]]
        cells = []
        for row in patterns:
            packed = 0
            for a in used:
                packed |= spread[cins[a]] * row[a]
            cells.append(packed)
        return cins, reach << s.b_card - 1, tuple(cells)

    return build


def _window(c: Channel, box: Behavior, x: int):
    """The per-cell bitsets of box input x's block table over one window:
    the n^d blocks that share their first A-d channel inputs, with d = A when
    all n^A blocks fit in ``PASSING_WINDOW``.  Returns ``(leads, count, size,
    reach, cells, unions)``: ``leads`` is a cached ``_block_builder`` of the
    first A-d outcomes, whose ``count`` blocks each lead one window of
    ``size`` blocks; bit j of ``reach[out]`` and of ``cells[y][out * B + b]``
    is set when the window's block j sets that output's top bit or that cell
    bit through its last d outcomes (see ``_block_builder``).  Outcome a's
    channel input is the base-n digit of weight w = n^(A-1-a) of the block
    index, so the blocks where it is i form the run
    ``((1 << w) - 1) << i * w``, repeated every n*w blocks by one multiply:
    no block is built.  ``unions[y]`` is the ``_OutcomeUnions`` of
    ``cells[y]``: ``unions[y][p][out]`` is the OR of the output's cell
    bitsets of the outcomes in the B-bit pattern p.
    """
    s = box.scenario
    n, a_card, b_card = c.n_inputs, s.a_card, s.b_card
    leading = 0
    while n ** (a_card - leading) > PASSING_WINDOW:
        leading += 1
    size = n ** (a_card - leading)
    reach = [0] * c.n_outputs
    cells = [[0] * len(reach) * b_card for _ in range(s.y_card)]
    for a in range(leading, a_card):
        if not box.alice[x][a]:
            continue
        outcomes = [(row, [b for b, p in enumerate(box.weights[x][y][a]) if p]) for y, row in enumerate(cells)]
        w = n ** (a_card - 1 - a)
        repeat = ((1 << size) - 1) // ((1 << n * w) - 1)
        for i, support in enumerate(c.supports):
            run = ((1 << w) - 1 << i * w) * repeat
            for out in support:
                reach[out] |= run
                for row, bs in outcomes:
                    for b in bs:
                        row[out * b_card + b] |= run
    unions = [_OutcomeUnions([row[b::b_card] for b in range(b_card)]) for row in cells]
    return functools.cache(_block_builder(c, box, x, leading)), n**leading, size, reach, cells, unions


class _OutcomeUnions(dict):
    """The unions of one box input y's per-outcome cell bitsets, by outcome
    pattern: entry p lists, per output, the OR of ``rows[b][out]`` over the
    bits b of p.  Entry 0 and the one-outcome entries ``1 << b`` (the rows
    themselves) are given; any other entry is made when first read, one list
    of ORs per further outcome.  Of the 2^B patterns, only those the
    prefixes show are made and kept."""

    def __init__(self, rows):
        super().__init__({1 << b: row for b, row in enumerate(rows)})
        self[0] = [0] * len(rows[0])

    def __missing__(self, pattern):
        low = pattern & -pattern
        unions = self[low]
        rest = pattern ^ low
        while rest:
            low = rest & -rest
            rest ^= low
            unions = list(map(operator.or_, unions, self[low]))
        self[pattern] = unions
        return unions


#: the bytes ``b"0"`` and ``b"1"`` of a binary numeral as the bits 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _passing_bits(masks, window, b_card: int):
    """One bit per block of the last message's table, in order: 1 iff the
    prefix with masks ``masks`` and that block leave every output hit by two
    or more messages a clash-free box input.  A one-window table's bits are
    built at once, as one bytes object; a longer table's are built window by
    window as the walk reaches each.  A window's lead (see ``_window``)
    belongs to the last message, so it is folded into the prefix's multi-hit
    outputs and clashing cells only (``_window_bits``)."""
    leads, count, size, reach, _, unions = window
    if count == 1:  # the one lead has no outcome, so it adds nothing
        return _window_bits(masks, size, reach, unions, b_card)
    hit, multi, pairs = masks
    return itertools.chain.from_iterable(
        _window_bits((hit, multi | hit & lead_reach,
                      [(both | seen & cell, seen) for (both, seen), cell in zip(pairs, lead_cells)]),
                     size, reach, unions, b_card)
        for _, lead_reach, lead_cells in map(leads, range(count)))


def _window_bits(masks, size: int, reach, unions, b_card: int) -> bytes:
    """The passing set ``full & ~fail`` of one window, byte j its block j's
    bit, after a prefix (and lead) with masks ``masks``.  Each output the
    prefix hits fails on the window's blocks that reach it (all, if multi-hit
    already), ANDed over each y still clash-free there with
    ``unions[y][out]`` at the pattern of the outcomes the prefix has seen at
    the output; the walk over outputs stops once every block fails."""
    hit, multi, pairs = masks
    full = (1 << size) - 1
    group = (1 << b_card) - 1
    fail = 0
    rest = hit
    while rest and fail != full:
        top = rest & -rest
        rest ^= top
        shift = top.bit_length() - b_card
        out = shift // b_card
        failing = full if multi & top else reach[out]
        for (clash, seen), by_pattern in zip(pairs, unions):
            if not clash >> shift & group:  # else y clashes here whatever the window's block
                failing &= by_pattern[seen >> shift & group][out]
        fail |= failing
    return f"{full & ~fail:0{size}b}"[::-1].encode().translate(_BIT_BYTES)


def _prefixes(builders, table: int, masks):
    """Every tuple of one block per builder, blocks 0..table-1 of each, in
    ``itertools.product`` order, each with ``masks`` extended by its blocks.
    The builders are walked on an explicit stack, one walk per builder
    entered, with the blocks taken and their masks, so that no K is bounded
    by the recursion limit."""
    if not builders:
        yield (), masks
        return
    last = len(builders) - 1
    prefix, stack, walks = [], [masks], [map(builders[0], range(table))]
    while walks:
        depth = len(walks) - 1
        block = next(walks[depth], None)
        if block is None:
            walks.pop()
            if depth:
                prefix.pop()
                stack.pop()
        elif depth == last:
            yield (*prefix, block), _extend(stack[depth], block)
        else:
            prefix.append(block)
            stack.append(_extend(stack[depth], block))
            walks.append(map(builders[depth + 1], range(table)))


def _extend(masks, block):
    """The masks ``(hit, multi, pairs)`` of a block tuple, extended by one
    more message's block.  ``hit`` marks the outputs reached, ``multi``
    those reached by two or more messages (each on the top bit of the
    output's cell group); per box input y, ``pairs[y] = (shared[y],
    seen[y])``, where ``seen[y]`` marks the positive outcome cells and
    ``shared[y]`` those positive for two or more messages.  ``pairs`` is a
    list: a tuple built from a generator is allocated oversized and shrunk,
    and each one freed then idles on the interpreter's tuple free list."""
    hit, multi, pairs = masks
    _, reach, cells = block
    return (hit | reach, multi | hit & reach,
            [(both | seen & new, seen | new) for (both, seen), new in zip(pairs, cells)])


def _complete_decoder(passes: int, masks, prefix, block, n_out: int, b_card: int):
    """The forced decoder of one encoder, as its ``(y, guesses)`` rules, or
    None when its ``_passing_bits`` bit ``passes`` is clear: then some
    output admits no box input (or skip) whose outcome cells are
    message-pure.

    The encoder is ``prefix`` (one ``_block_builder`` block per message but
    the last) plus ``block``, and ``masks`` are the prefix's ``_extend``
    masks.  An output hit by at most one message skips the box and guesses
    that message (or 0); a multi-hit output takes the first clash-free y and
    guesses, per outcome b, the message whose cell is positive (or 0).
    """
    if not passes:
        return None
    _, multi, pairs = _extend(masks, block)
    leaf = prefix + (block,)
    cell_bits = (1 << b_card) - 1
    rules = []
    for out in range(n_out):
        bit = 1 << out * b_card
        top = bit << b_card - 1
        if not multi & top:
            rules.append((SKIP, (next((g for g, (_, reach, _) in enumerate(leaf) if reach & top), 0),)))
            continue
        y = next(y for y, (both, _) in enumerate(pairs) if not both >> out * b_card & cell_bits)
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
    a pair that moves a message is refused.  An ``enc_channel_input`` key
    (message, outcome) or ``dec_guess`` key (output, outcome) given twice,
    an ``enc_channel_input`` entry for a message outside 0..message_count - 1,
    a ``dec_guess`` entry for an output beyond ``dec_box_input``, and a
    ``dec_guess`` entry that the output's rule never reads (an outcome on an
    output that skips the box, or an outcome past the first one it lacks),
    are refused too."""
    k = data["message_count"]
    _check_message_count(k)
    remap = {raw: g for raw, g in data["guess_remap"]}
    if any(remap.get(g, g) != g for g in range(k)):
        raise ValueError("guess_remap must be the identity on messages")
    n_out = len(data["dec_box_input"])
    entries = {}
    for out, b, guess in data["dec_guess"]:
        if out not in range(n_out):
            raise ValueError(f"dec_guess entry {[out, b, guess]} names output {out}, "
                             f"not one of the {n_out} outputs of dec_box_input")
        if b in entries.setdefault(out, {}):
            raise ValueError(f"dec_guess entry {[out, b, guess]} repeats the key ({out}, {b!r})")
        entries[out][b] = guess
    enc_channel = {}
    for g, a, cin in data["enc_channel_input"]:
        if g not in range(k):
            raise ValueError(f"enc_channel_input entry {[g, a, cin]} names message {g}, not one of the {k} messages")
        if (g, a) in enc_channel:
            raise ValueError(f"enc_channel_input entry {[g, a, cin]} repeats the key ({g}, {a})")
        enc_channel[g, a] = cin
    decoder = []
    for out, y in enumerate(data["dec_box_input"]):
        guesses = entries.get(out, {})
        if y != "skip":
            keys = range(next(b for b in itertools.count() if b not in guesses))
            rule = f"stops at outcome {len(keys)}, the first it lacks"
        elif "skip" in guesses:
            y, keys, rule = SKIP, ["skip"], "skips the box"
        else:
            raise ValueError(f'output {out} skips the box but dec_guess has no "skip" entry for it')
        for b, guess in guesses.items():
            if b not in keys:
                raise ValueError(f"dec_guess entry {[out, b, guess]} is never read: output {out} {rule}")
        decoder.append((y, tuple(remap.get(guesses[b], guesses[b]) for b in keys)))
    return AssistedProtocol(
        k,
        tuple(data["enc_box_input"]),
        enc_channel,
        tuple(decoder),
    )
