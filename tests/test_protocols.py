import dataclasses
import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zecomm import protocols
from zecomm.behaviors import (
    Behavior,
    Scenario,
    make_extremal_box,
    make_local_deterministic,
    make_rtilde_box,
    tensor_behaviors,
    uniform_behavior,
)
from zecomm.channels import IndexSpace, identity_channel, make_channel, make_mm, make_nm, tensor_channels
from zecomm.protocols import (
    SKIP,
    AssistedProtocol,
    SearchLimitExceeded,
    best_unassisted_success,
    exact_success,
    exhaustive_assisted_search,
    is_zero_error,
    make_theorem2_protocol,
    make_theorem3_protocol,
    monte_carlo_success,
    per_message_success,
    protocol_from_json,
    protocol_to_json,
    tensor_protocols,
)
from zecomm.numeric import FLOAT, RATIONAL, integer_rows
from zecomm.quantum import make_cglmp_behavior, make_i3322_rational_table


def bob_copies_x(mode):
    """Signaling 2-2-2-2 box: a is uniform and b = x, so Bob's marginal
    reveals Alice's input."""
    half = Fraction(1, 2) if mode == RATIONAL else 0.5
    block = {0: ((half, 0), (half, 0)), 1: ((0, half), (0, half))}
    return Behavior(Scenario(2, 2, 2, 2), mode, [[block[x]] * 2 for x in range(2)])


@pytest.mark.parametrize("m", range(2, 7))
def test_one_bit_scheme_is_perfect(m):
    per = per_message_success(make_nm(m), make_extremal_box(m, m), make_theorem2_protocol(m))
    assert per == [Fraction(1), Fraction(1)]


@pytest.mark.parametrize("m", range(2, 6))
def test_log_m_scheme_is_perfect(m):
    channel, box, protocol = make_mm(m), make_rtilde_box(m), make_theorem3_protocol(m)
    assert protocol.message_count == m
    per = per_message_success(channel, box, protocol)
    assert all(v == 1 for v in per)
    assert is_zero_error(channel, box, protocol)


def test_protocol_validation():
    with pytest.raises(ValueError):
        AssistedProtocol(2, (0,), {}, ())
    data = protocol_to_json(make_theorem2_protocol(2))
    data["guess_remap"] = [[1, 0]]  # moves a message
    with pytest.raises(ValueError, match="identity on messages"):
        protocol_from_json(data)


def test_decoder_with_too_few_guesses_is_refused_at_every_entry_point():
    # theorem2(2) whose output 2 reads the box but lacks its guess on outcome 1
    channel, box = make_nm(2), make_extremal_box(2, 2)
    data = protocol_to_json(make_theorem2_protocol(2))
    data["dec_guess"] = [entry for entry in data["dec_guess"] if entry[:2] != [2, 1]]
    protocol = protocol_from_json(data)
    refusal = "decoder holds 1 guesses on output 2, fewer than the box's 2 outcomes"
    for evaluate in (per_message_success, exact_success, is_zero_error):
        with pytest.raises(ValueError, match=refusal):
            evaluate(channel, box, protocol)
    with pytest.raises(ValueError, match=refusal):
        monte_carlo_success(channel, box, protocol, 100, seed=1)
    assert protocol.decoder[2] == (1, (0,))


@pytest.mark.parametrize("guesses", [(), (0, 1)])
def test_skip_rule_without_exactly_one_guess_is_refused_at_every_entry_point(guesses):
    channel, box, base = make_nm(2), make_extremal_box(2, 2), make_theorem2_protocol(2)
    protocol = dataclasses.replace(base, decoder=((SKIP, guesses),) + base.decoder[1:])
    refusal = f"decoder skips the box on output 0 but holds {len(guesses)} guesses, not 1"
    for evaluate in (per_message_success, exact_success, is_zero_error):
        with pytest.raises(ValueError, match=refusal):
            evaluate(channel, box, protocol)
    with pytest.raises(ValueError, match=refusal):
        monte_carlo_success(channel, box, protocol, 100, seed=1)


def test_protocol_file_whose_skip_output_lacks_its_skip_guess_is_refused():
    data = protocol_to_json(make_theorem2_protocol(2))
    assert data["dec_box_input"][1] == "skip"
    data["dec_guess"] = [entry for entry in data["dec_guess"] if entry[:2] != [1, "skip"]]
    with pytest.raises(ValueError, match='output 1 skips the box but dec_guess has no "skip" entry for it'):
        protocol_from_json(data)
    data["dec_guess"].append([1, 0, 1])  # an outcome guess does not stand in for the skip guess
    with pytest.raises(ValueError, match='output 1 skips the box'):
        protocol_from_json(data)


def test_mixed_mode_promotes_to_float():
    value = exact_success(make_nm(3), make_cglmp_behavior(), make_theorem2_protocol(3))
    assert isinstance(value, float)
    assert value.hex() == "0x1.cd337c1dabbb6p-1"  # the float recorded before the integer box tables
    with pytest.raises(ValueError):
        is_zero_error(make_nm(3), make_cglmp_behavior(), make_theorem2_protocol(3))


def test_incompatible_protocol_rejected():
    with pytest.raises(ValueError):
        per_message_success(make_mm(3), make_extremal_box(3, 3), make_theorem3_protocol(3))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_signaling_box_rejected_at_every_entry_point(mode):
    box, channel, protocol = bob_copies_x(mode), make_nm(2), make_theorem2_protocol(2)
    with pytest.raises(ValueError, match="signaling"):
        per_message_success(channel, box, protocol)
    with pytest.raises(ValueError, match="signaling"):
        exact_success(channel, box, protocol)
    with pytest.raises(ValueError, match="signaling"):
        monte_carlo_success(channel, box, protocol, 100, seed=1)
    if mode == RATIONAL:
        with pytest.raises(ValueError, match="signaling"):
            is_zero_error(channel, box, protocol)
        with pytest.raises(ValueError, match="signaling"):
            exhaustive_assisted_search(channel, box, 2)


def test_float_signaling_check_has_tolerance():
    channel, protocol = make_nm(2), make_theorem2_protocol(2)
    for nudge in (1e-12, 1e-6):  # a PR box whose Alice marginal moves by nudge
        same = ((0.5 + nudge, 0.0), (0.0, 0.5 - nudge))
        box = Behavior(Scenario(2, 2, 2, 2), FLOAT, [[same, same], [same, ((0.0, 0.5), (0.5, 0.0))]])
        if nudge < 1e-9:
            assert per_message_success(channel, box, protocol) == pytest.approx([1.0, 1.0])
        else:
            with pytest.raises(ValueError, match="signaling"):
                per_message_success(channel, box, protocol)


def test_monte_carlo_reproducible_and_consistent():
    channel, box, protocol = make_nm(3), make_extremal_box(3, 3), make_theorem2_protocol(3)
    est1, err1 = monte_carlo_success(channel, box, protocol, 500, seed=42)
    est2, err2 = monte_carlo_success(channel, box, protocol, 500, seed=42)
    assert (est1, err1) == (est2, err2)
    assert est1 == 1.0 and err1 == 0.0  # zero-error scheme never misses
    with pytest.raises(ValueError):
        monte_carlo_success(channel, box, protocol, 0, seed=1)


def test_monte_carlo_tracks_exact_value():
    channel, box, protocol = make_mm(3), make_i3322_rational_table(), make_theorem3_protocol(3)
    exact = exact_success(channel, box, protocol)
    assert exact == Fraction(6, 7)
    est, err = monte_carlo_success(channel, box, protocol, 4000, seed=7)
    assert abs(est - float(exact)) < 5 * max(err, 1e-3)


@pytest.mark.parametrize("family, m, box_family, scheme, expected", [
    ("Mm", 3, "i3322", "theorem3", {11: (0.849, 0.01132249972400088), 2024: (0.861, 0.010939789760319894)}),
    ("Nm", 3, "pm", "theorem2", {11: (1.0, 0.0), 2024: (1.0, 0.0)}),
    ("Mm", 5, "rtilde", "theorem3", {11: (1.0, 0.0), 2024: (1.0, 0.0)}),
    ("Nm", 3, "cglmp", "theorem2", {11: (0.88, 0.010276186062932104), 2024: (0.903, 0.009359006357514668)}),
])
def test_monte_carlo_seeded_estimates(family, m, box_family, scheme, expected):
    # literal estimates pin the whole sampling path: message, box marginal and
    # conditional, and channel draws, in rational and float mode
    from zecomm.cli import BOX_FAMILIES, CHANNEL_FAMILIES
    from zecomm.protocols import SCHEMES

    channel, box, protocol = CHANNEL_FAMILIES[family](m), BOX_FAMILIES[box_family][1](m), SCHEMES[scheme][0](m)
    for seed, estimate in expected.items():
        assert monte_carlo_success(channel, box, protocol, 1000, seed) == estimate


def test_best_unassisted_optima():
    value, encoder = best_unassisted_success(make_nm(3), 2)
    assert value == Fraction(7, 8)
    assert len(encoder) == 2
    value, _ = best_unassisted_success(make_mm(3), 3)
    assert value == Fraction(17, 21)


def test_best_unassisted_identity_channel():
    value, encoder = best_unassisted_success(identity_channel(4), 4)
    assert value == 1
    assert sorted(encoder) == [0, 1, 2, 3]


def test_best_unassisted_limit():
    with pytest.raises(ValueError, match="encoder count 6\\^12 exceeds limit"):
        best_unassisted_success(make_mm(3), 12)


def prior_scaled_unassisted(c, k):
    """Reference: the earlier enumeration that weighted messages by a prior,
    at the uniform prior.  The prior is scaled to int weights, which multiply
    the channel numerators."""
    (weights,), scale = integer_rows([[Fraction(1, k)] * k], 1)
    scaled = [[[w * v for v in row] for row in c.weights] for w in weights]
    best = best_encoder = None
    for encoder in itertools.product(range(c.n_inputs), repeat=k):
        success = sum(map(max, zip(*(scaled[g][encoder[g]] for g in range(k)))))
        if best is None or success > best:
            best, best_encoder = success, encoder
    return Fraction(best, scale * c.denominator), best_encoder


@pytest.mark.parametrize("family", [make_nm, make_mm])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_best_unassisted_matches_prior_scaled_reference(family, k):
    c = family(3)
    assert best_unassisted_success(c, k) == prior_scaled_unassisted(c, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_best_unassisted_matches_prior_scaled_reference_on_random_channels(data):
    n_in, n_out, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    columns = [data.draw(st.lists(st.integers(0, 3), min_size=n_out, max_size=n_out).filter(any))
               for _ in range(n_in)]
    c = make_channel([[Fraction(w, sum(column)) for w in column] for column in columns],
                     IndexSpace((n_in,)), IndexSpace((n_out,)))
    assert best_unassisted_success(c, k) == prior_scaled_unassisted(c, k)


def test_tensor_protocols_two_perfect_bits():
    n2, p2 = make_nm(2), make_extremal_box(2, 2)
    base = make_theorem2_protocol(2)
    channel = tensor_channels(n2, n2)
    box = tensor_behaviors(p2, p2)
    protocol = tensor_protocols(base, base, n2, n2, p2, p2)
    assert protocol.message_count == 4
    assert is_zero_error(channel, box, protocol)


def test_exhaustive_search_finds_zero_error_protocol():
    found, protocol = exhaustive_assisted_search(make_nm(2), make_extremal_box(2, 2), 2)
    assert found
    assert is_zero_error(make_nm(2), make_extremal_box(2, 2), protocol)


def test_exhaustive_search_trivial_box_finds_nothing():
    trivial = uniform_behavior(Scenario(2, 2, 2, 2))
    found, protocol = exhaustive_assisted_search(make_nm(2), trivial, 2)
    assert not found and protocol is None


def test_exhaustive_search_branch_limit():
    with pytest.raises(SearchLimitExceeded):
        exhaustive_assisted_search(make_nm(2), make_extremal_box(2, 2), 2, max_branches=3)


@pytest.mark.parametrize("k", [0, -1])
def test_searches_refuse_fewer_than_one_message(k):
    with pytest.raises(ValueError, match=f"message count K = {k} must be at least 1"):
        exhaustive_assisted_search(make_nm(2), make_extremal_box(2, 2), k)
    with pytest.raises(ValueError, match=f"message count K = {k} must be at least 1"):
        best_unassisted_success(make_nm(2), k)


def test_exhaustive_search_requires_rational():
    with pytest.raises(ValueError):
        exhaustive_assisted_search(make_nm(3), make_cglmp_behavior(), 2)


def encoder_of(protocol):
    """The encoder of a protocol: its box inputs and its channel inputs in
    (message, outcome) order."""
    return protocol.enc_box_input, tuple(cin for _, cin in sorted(protocol.enc_channel_input.items()))


#: (family, m, box family, K, found, encoder) for the assisted cases of the
#: `search` benchmark workload and Mm(3)/rtilde K=3, as the per-leaf search
#: with a dict per encoder returned them
ASSISTED_ANSWERS = [
    ("Nm", 2, "pr", 2, True, ((0, 1), (0, 1, 2, 3))),
    ("Mm", 2, "rtilde", 2, True, ((0, 1), (0, 1, 2, 3))),
    ("Mm", 3, "rtilde", 2, True, ((0, 1), (0, 1, 2, 3))),
    ("Mm", 3, "pr", 2, True, ((0, 1), (0, 1, 2, 3))),
    ("Nm", 3, "pr", 2, True, ((0, 1), (0, 1, 3, 4))),
    ("Nm", 3, "rtilde", 2, True, ((0, 1), (0, 1, 3, 4))),
    ("Nm", 4, "pr", 2, True, ((0, 0), (1, 1, 6, 6))),
    ("Nm", 4, "rtilde", 2, True, ((0, 0), (1, 1, 6, 6))),
    ("Nm", 5, "pr", 2, True, ((0, 0), (1, 1, 7, 7))),
    ("Nm", 5, "rtilde", 2, True, ((0, 0), (1, 1, 7, 7))),
    ("Nm", 6, "pr", 2, True, ((0, 0), (1, 1, 8, 8))),
    ("Nm", 6, "rtilde", 2, True, ((0, 0), (1, 1, 8, 8))),
    ("Nm", 7, "pr", 2, True, ((0, 0), (1, 1, 9, 9))),
    ("Nm", 7, "rtilde", 2, True, ((0, 0), (1, 1, 9, 9))),
    ("Mm", 4, "rtilde", 2, True, ((0, 1), (0, 1, 2, 3))),
    ("Mm", 4, "pr", 2, True, ((0, 1), (0, 1, 2, 3))),
    ("Nm", 3, "pm", 2, True, ((0, 1), (0, 1, 2, 3, 4, 5))),
    ("Mm", 3, "i3322", 2, False, None),
    ("Nm", 2, "pr", 3, False, None),
    pytest.param("Mm", 3, "rtilde", 3, True, ((0, 1, 2), (0, 1, 2, 3, 4, 5)), marks=pytest.mark.slow),
]


@pytest.mark.parametrize("family, m, box_family, k, found, encoder", ASSISTED_ANSWERS)
def test_exhaustive_search_answers_are_pinned(family, m, box_family, k, found, encoder):
    from zecomm.cli import BOX_FAMILIES, CHANNEL_FAMILIES

    channel, box = CHANNEL_FAMILIES[family](m), BOX_FAMILIES[box_family][1](m)
    hit, protocol = exhaustive_assisted_search(channel, box, k)
    assert hit is found
    assert (encoder_of(protocol) if found else protocol) == encoder
    assert not found or is_zero_error(channel, box, protocol)


def reference_encoder(c, box, enc_box, enc_channel_flat):
    """Reference: the encoder's channel-input dict, and the (message,
    outcome) pairs reaching each output, as the earlier search built them."""
    s = box.scenario
    enc_channel = {}
    reach = {}  # output -> list of (message, a)
    for g in range(len(enc_box)):
        for a in range(s.a_card):
            cin = enc_channel_flat[g * s.a_card + a]
            enc_channel[(g, a)] = cin
            if box.alice[enc_box[g]][a]:
                for out in c.supports[cin]:
                    reach.setdefault(out, []).append((g, a))
    return enc_channel, reach


def reference_assisted_search(c, box, k):
    """Reference: the earlier search, which built the encoder's dicts and
    then the decoder, one output at a time, for every encoder in canonical
    order."""
    s = box.scenario
    for enc_box in itertools.product(range(s.x_card), repeat=k):
        for enc_channel_flat in itertools.product(range(c.n_inputs), repeat=k * s.a_card):
            enc_channel, reach = reference_encoder(c, box, enc_box, enc_channel_flat)
            assignment = reference_complete_decoder(box, enc_box, reach, c.n_outputs)
            if assignment is None:
                continue
            protocol = AssistedProtocol(k, enc_box, enc_channel, assignment)
            if is_zero_error(c, box, protocol):
                return True, protocol
    return False, None


def reference_complete_decoder(box, enc_box, reach, n_out):
    s = box.scenario
    rules = []
    for out in range(n_out):
        hitters = reach.get(out, [])
        messages = {g for g, _ in hitters}
        if len(messages) <= 1:
            rules.append((SKIP, (messages.pop() if messages else 0,)))
            continue
        choice = None
        for y in range(s.y_card):
            cells = {}
            ok = True
            for g, a in hitters:
                for b, w in enumerate(box.weights[enc_box[g]][y][a]):
                    if w and cells.setdefault(b, g) != g:
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
        rules.append((y, tuple(cells.get(b, 0) for b in range(s.b_card))))
    return tuple(rules)


#: most encoders a random search may visit, so that the reference stays fast
REFERENCE_LEAF_LIMIT = 4096


@st.composite
def search_cases(draw):
    """(channel, box, K) with K = 1..3, at most 4 channel inputs and at most 6
    outputs, sparse columns, and an extremal, rtilde, uniform or local
    deterministic box; a local deterministic box has ``alice[x][a] = 0`` for
    every a but one."""
    kind = draw(st.sampled_from(["extremal", "rtilde", "uniform", "local"]))
    if kind == "extremal":
        m = draw(st.integers(2, 3))
        box = make_extremal_box(m, draw(st.integers(2, m)))
    elif kind == "rtilde":
        box = make_rtilde_box(draw(st.integers(2, 3)))
    else:
        s = Scenario(draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        box = uniform_behavior(s) if kind == "uniform" else make_local_deterministic(
            [draw(st.integers(0, s.a_card - 1)) for _ in range(s.x_card)],
            [draw(st.integers(0, s.b_card - 1)) for _ in range(s.y_card)], s)
    k = draw(st.integers(1, 3))
    s = box.scenario
    n_in = draw(st.integers(1, max(n for n in range(1, 5)
                                   if n == 1 or s.x_card**k * n ** (k * s.a_card) <= REFERENCE_LEAF_LIMIT)))
    n_out = draw(st.integers(1, 6))
    columns = [draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n_out, max_size=n_out).filter(any))
               for _ in range(n_in)]
    c = make_channel([[Fraction(w, sum(column)) for w in column] for column in columns],
                     IndexSpace((n_in,)), IndexSpace((n_out,)))
    return c, box, k


@settings(max_examples=100, deadline=None)
@given(search_cases())
@example((make_nm(2), make_extremal_box(3, 2), 2))  # outcome b = 2 never occurs, so its guess is the default
def test_exhaustive_search_matches_reference_on_random_channels(case):
    c, box, k = case
    assert exhaustive_assisted_search(c, box, k) == reference_assisted_search(c, box, k)


def no_masks(box):
    """The masks of the empty block tuple, where the search starts."""
    return 0, 0, [0] * box.scenario.y_card, [0] * box.scenario.y_card


def whole_leaf_masks(leaf, y_card):
    """Reference: ``(hit, multi, seen, shared)`` of a block tuple, each bit
    set by counting the blocks that set it."""
    def either(masks):
        return functools.reduce(operator.or_, masks, 0)

    def twice(masks):
        return sum(1 << i for i in range(either(masks).bit_length()) if sum(mask >> i & 1 for mask in masks) >= 2)

    reaches = [reach for _, reach, _ in leaf]
    cells = [[block_cells[y] for _, _, block_cells in leaf] for y in range(y_card)]
    return either(reaches), twice(reaches), list(map(either, cells)), list(map(twice, cells))


def draw_leaf(c, box, k, data):
    s = box.scenario
    enc_box = tuple(data.draw(st.integers(0, s.x_card - 1)) for _ in range(k))
    return enc_box, tuple(data.draw(st.sampled_from(list(protocols._blocks(c, box, x)))) for x in enc_box)


@settings(max_examples=200, deadline=None)
@given(search_cases(), st.data())
def test_complete_decoder_matches_reference_on_random_encoders(case, data):
    # every encoder, not only the first hit: the decision and the decoder
    c, box, k = case
    enc_box, leaf = draw_leaf(c, box, k, data)
    *prefix, block = leaf
    masks = functools.reduce(protocols._extend, prefix, no_masks(box))
    enc_channel_flat = tuple(cin for cins, _, _ in leaf for cin in cins)
    _, reach = reference_encoder(c, box, enc_box, enc_channel_flat)
    assert (protocols._complete_decoder(masks, tuple(prefix), block, c.n_outputs, box.scenario.b_card)
            == reference_complete_decoder(box, enc_box, reach, c.n_outputs))


def test_complete_decoder_matches_reference_on_every_encoder_with_three_outcomes():
    # B = 3, which the random cases above rarely draw: a clash spread onto
    # bit out * B from the wrong bits would mark the neighbouring output.
    # Every encoder of the 3-input noiseless channel with K = 2 and the 2-2-3
    # extremal box: 2,916 encoders, of which 1,032 read the box.
    c, box = identity_channel(3), make_extremal_box(3, 3)
    s = box.scenario
    reads_box = 0  # decoders that read the box on some output
    for enc_box in itertools.product(range(s.x_card), repeat=2):
        first, last = (list(protocols._blocks(c, box, x)) for x in enc_box)
        for head in first:
            masks = protocols._extend(no_masks(box), head)
            for block in last:
                _, reach = reference_encoder(c, box, enc_box, head[0] + block[0])
                expected = reference_complete_decoder(box, enc_box, reach, c.n_outputs)
                assert protocols._complete_decoder(masks, (head,), block, c.n_outputs, s.b_card) == expected
                reads_box += expected is not None and any(y is not SKIP for y, _ in expected)
    assert reads_box == 1032


@settings(max_examples=100, deadline=None)
@given(search_cases(), st.data())
def test_masks_extended_block_by_block_match_the_whole_leaf(case, data):
    c, box, k = case
    _, leaf = draw_leaf(c, box, k, data)
    masks = no_masks(box)
    for n, block in enumerate(leaf, 1):
        masks = protocols._extend(masks, block)
        assert masks == whole_leaf_masks(leaf[:n], box.scenario.y_card)


@settings(max_examples=100, deadline=None)
@given(search_cases(), st.data())
def test_prefix_walk_then_last_table_walk_is_the_product(case, data):
    # the drawn box inputs, and all box inputs 0, where every position shares one table when K >= 2
    c, box, k = case
    s = box.scenario
    drawn = tuple(data.draw(st.integers(0, s.x_card - 1)) for _ in range(k))
    for enc_box in (drawn, (0,) * k):
        tables = [([], protocols._blocks(c, box, x)) for x in range(s.x_card)]
        *outer, last = [tables[x] for x in enc_box]
        walked = []
        for prefix, masks in protocols._prefixes(outer, (), no_masks(box)):
            assert masks == whole_leaf_masks(prefix, s.y_card)
            walked.extend(prefix + (block,) for block in protocols._walk(last))
        assert walked == list(itertools.product(*(list(protocols._blocks(c, box, x)) for x in enc_box)))


@pytest.fixture
def decoder_calls(monkeypatch):
    """The list that gets one entry per ``_complete_decoder`` call."""
    calls = []
    complete = protocols._complete_decoder

    def counting(*args):
        calls.append(1)
        return complete(*args)

    monkeypatch.setattr(protocols, "_complete_decoder", counting)
    return calls


#: Nm(3) with the PR box, K = 2: the first hit has box inputs (0, 1) and
#: channel inputs (0, 1, 3, 4) of 6, so its 1-based canonical rank is
#: 1 * 6**4 + (0 * 6**3 + 1 * 6**2 + 3 * 6 + 4) + 1
NM3_PR_RANK = 1355
#: the whole space of Mm(3) with the i3322 table, K = 2: 3**2 box inputs
#: times 6**4 channel inputs
MM3_I3322_LEAVES = 11664


def test_exhaustive_search_decides_each_encoder_once(decoder_calls):
    found, protocol = exhaustive_assisted_search(make_nm(3), make_extremal_box(2, 2), 2)
    assert found and encoder_of(protocol) == ((0, 1), (0, 1, 3, 4))
    assert len(decoder_calls) == NM3_PR_RANK
    decoder_calls.clear()
    assert exhaustive_assisted_search(make_mm(3), make_i3322_rational_table(), 2) == (False, None)
    assert len(decoder_calls) == MM3_I3322_LEAVES


def test_exhaustive_search_builds_only_the_blocks_it_reaches(monkeypatch):
    built = []
    blocks = protocols._blocks

    def counting(*args):
        for block in blocks(*args):
            built.append(block)
            yield block

    monkeypatch.setattr(protocols, "_blocks", counting)
    c, box = make_nm(5), make_extremal_box(5, 5)  # 10**5 encoder blocks per box input
    found, protocol = exhaustive_assisted_search(c, box, 1)
    assert found and encoder_of(protocol) == ((0,), (0, 0, 0, 0, 0))
    assert len(built) == 1
    built.clear()
    with pytest.raises(SearchLimitExceeded):
        exhaustive_assisted_search(c, box, 2, max_branches=100)
    assert len(built) == 101  # the encoders (block 0, block j) for j = 0..100


def test_exhaustive_search_budget_counts_encoders():
    c, box = make_nm(3), make_extremal_box(2, 2)
    with pytest.raises(SearchLimitExceeded) as stop:
        exhaustive_assisted_search(c, box, 2, max_branches=NM3_PR_RANK - 1)
    assert (stop.value.branches, stop.value.enc_box) == (NM3_PR_RANK - 1, (0, 1))
    found, protocol = exhaustive_assisted_search(c, box, 2, max_branches=NM3_PR_RANK)
    assert found and encoder_of(protocol) == ((0, 1), (0, 1, 3, 4))
    c, box = make_mm(3), make_i3322_rational_table()
    with pytest.raises(SearchLimitExceeded) as stop:
        exhaustive_assisted_search(c, box, 2, max_branches=MM3_I3322_LEAVES - 1)
    assert (stop.value.branches, stop.value.enc_box) == (MM3_I3322_LEAVES - 1, (2, 2))
    assert exhaustive_assisted_search(c, box, 2, max_branches=MM3_I3322_LEAVES) == (False, None)


def test_protocol_json_roundtrip():
    # every builder's protocols load back equal, also from files whose
    # dec_guess and enc_channel_input entries come in another order
    from zecomm.cli import BOX_FAMILIES, CHANNEL_FAMILIES

    t2, pm2 = make_theorem2_protocol(2), make_extremal_box(2, 2)
    built = [make_theorem2_protocol(m) for m in range(2, 7)] + [make_theorem3_protocol(m) for m in range(2, 7)]
    built.append(tensor_protocols(t2, t2, make_nm(2), make_nm(2), pm2, pm2))
    built.append(tensor_protocols(make_theorem3_protocol(3), t2, make_mm(3), make_nm(2), make_rtilde_box(3), pm2))
    for family, m, box_family in (("Nm", 2, "pr"), ("Mm", 3, "rtilde"), ("Nm", 3, "pm")):
        found, protocol = exhaustive_assisted_search(CHANNEL_FAMILIES[family](m), BOX_FAMILIES[box_family][1](m), 2)
        assert found
        built.append(protocol)
    rng = random.Random(18)
    for protocol in built:
        data = protocol_to_json(protocol)
        assert protocol_from_json(data) == protocol
        for _ in range(3):
            shuffled = {**data, "dec_guess": list(data["dec_guess"]), "enc_channel_input": list(data["enc_channel_input"])}
            rng.shuffle(shuffled["dec_guess"])
            rng.shuffle(shuffled["enc_channel_input"])
            assert shuffled["dec_guess"] != data["dec_guess"]
            assert protocol_from_json(shuffled) == protocol
    data = protocol_to_json(make_theorem2_protocol(3))
    entry = next(entry for entry in data["dec_guess"] if entry[2] == 0)
    entry[2] = 2  # a raw guess outside the messages, folded back by the remap
    data["guess_remap"] = [[2, 0]]
    assert protocol_from_json(data) == make_theorem2_protocol(3)
    assert SKIP is None
