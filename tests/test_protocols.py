import functools
import itertools
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cumulative_table, dense_numerators, sample_column
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
    wilson_interval,
)
from zecomm.numeric import FLOAT, RATIONAL, integer_rows
from zecomm.quantum import make_cglmp_behavior, make_i3322_rational_table


def bob_copies_x(mode):
    """Signaling 2-2-2-2 box: a is uniform and b = x, so Bob's marginal
    reveals Alice's input."""
    half = Fraction(1, 2) if mode == RATIONAL else 0.5
    block = {0: ((half, 0), (half, 0)), 1: ((0, half), (0, half))}
    return Behavior(Scenario(2, 2, 2, 2), mode, [[block[x]] * 2 for x in range(2)])


@pytest.mark.parametrize("m", range(2, 13))
def test_one_bit_scheme_is_perfect(m):
    per = per_message_success(make_nm(m), make_extremal_box(m, m), make_theorem2_protocol(m))
    assert per == [Fraction(1), Fraction(1)]


@pytest.mark.parametrize("m", range(2, 10))
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


def with_decoder(base, decoder):
    """``base`` with its decoder replaced, through the constructor's checks."""
    return AssistedProtocol(base.message_count, base.enc_box_input, base.enc_channel_input, decoder)


def test_decoder_guesses_that_are_not_messages_are_refused():
    base = make_theorem2_protocol(2)
    y, guesses = base.decoder[5]
    assert y is not SKIP and len(guesses) == 2
    refusal = r"^decoder guesses \[7\] are not messages 0\.\.1$"
    with pytest.raises(ValueError, match=refusal):
        with_decoder(base, base.decoder[:5] + ((y, (7, 7)),) + base.decoder[6:])
    data = protocol_to_json(base)
    for entry in data["dec_guess"]:
        if entry[0] == 5:
            entry[2] = 7
    with pytest.raises(ValueError, match=refusal):
        protocol_from_json(data)


@pytest.mark.parametrize("guess", [True, 1.0], ids=["bool", "float"])
def test_decoder_guesses_equal_to_a_message_but_not_int_are_refused(guess):
    # True == 1 == 1.0, so only the type tells these guesses from message 1
    base = make_theorem2_protocol(2)
    y, _ = base.decoder[5]
    refusal = rf"^decoder guesses \[{guess!r}\] are not messages 0\.\.1$"
    with pytest.raises(ValueError, match=refusal):
        with_decoder(base, base.decoder[:5] + ((y, (0, guess)),) + base.decoder[6:])
    data = protocol_to_json(base)
    for entry in data["dec_guess"]:
        if entry[:2] == [5, 1]:
            entry[2] = guess
    with pytest.raises(ValueError, match=refusal):
        protocol_from_json(data)
    with pytest.raises(ValueError, match=r"^decoder guesses \[7, True\] are not messages 0\.\.1$"):
        with_decoder(base, base.decoder[:5] + ((y, (7, True)),) + base.decoder[6:])


@pytest.mark.parametrize("field, index, value, refusal", [
    ("dec_box_input", 2, True, "decoder box input True on output 2 is not a box input 0..1"),
    ("enc_box_input", 1, True, "enc_box_input[1] = True is not a box input 0..1"),
    ("enc_channel_input", 1, [0, 1, 1.0], "enc_channel_input[0, 1] = 1.0 is not a channel input 0..3"),
], ids=["decoder-box-input-bool", "encoder-box-input-bool", "channel-input-float"])
def test_protocol_inputs_that_are_not_ints_are_refused_by_entry(field, index, value, refusal):
    # True == 1 == 1.0, so only the type tells these entries from input 1
    data = protocol_to_json(make_theorem2_protocol(2))
    data[field][index] = value
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        exact_success(make_nm(2), make_extremal_box(2, 2), protocol_from_json(data))


@pytest.mark.parametrize("k, refusal", [
    (True, "message count K must be an int, got True"),
    (2.0, "message count K must be an int, got 2.0"),
    (0, "message count K = 0 must be at least 1"),
], ids=["bool", "float", "zero"])
def test_protocol_message_counts_that_are_not_positive_ints_are_refused(k, refusal):
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        AssistedProtocol(k, (0,), {}, ())
    data = protocol_to_json(make_theorem2_protocol(2))
    data["message_count"] = k
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        protocol_from_json(data)


def test_tensor_protocols_refuses_a_box_that_does_not_fit_its_factor():
    # theorem 2 for m = 2 sends channel inputs on outcomes 0 and 1 only, so a
    # 3-outcome box leaves enc_channel_input[(0, 2)] undefined
    c, p = make_nm(2), make_theorem2_protocol(2)
    fitting, wide = make_extremal_box(2, 2), make_extremal_box(3, 3)
    with pytest.raises(ValueError, match=r"^enc_channel_input missing \(0,2\)$"):
        tensor_protocols(p, p, c, c, fitting, wide)
    with pytest.raises(ValueError, match=r"^enc_channel_input missing \(0,2\)$"):
        tensor_protocols(p, p, c, c, wide, fitting)
    with pytest.raises(ValueError, match="^decoder must be total on channel outputs$"):
        tensor_protocols(p, p, make_nm(3), c, fitting, fitting)
    assert is_zero_error(tensor_channels(c, c), tensor_behaviors(fitting, fitting),
                         tensor_protocols(p, p, c, c, fitting, fitting))


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
    protocol = with_decoder(base, ((SKIP, guesses),) + base.decoder[1:])
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


@pytest.mark.parametrize("field, entry, refusal", [
    # with the last entry winning, this file reloaded as a scheme of success 5/6
    ("enc_channel_input", [0, 0, 3], r"^enc_channel_input entry \[0, 0, 3\] repeats the key \(0, 0\)$"),
    ("dec_guess", [2, 1, 0], r"^dec_guess entry \[2, 1, 0\] repeats the key \(2, 1\)$"),
    ("dec_guess", [0, "skip", 1], r"^dec_guess entry \[0, 'skip', 1\] repeats the key \(0, 'skip'\)$"),
    ("dec_guess", [6, 0, 0], r"^dec_guess entry \[6, 0, 0\] names output 6, not one of the 6 outputs"),
    ("dec_guess", [-1, "skip", 0], r"^dec_guess entry \[-1, 'skip', 0\] names output -1, not one of the 6"),
])
def test_protocol_file_with_a_repeated_key_or_a_stray_output_is_refused(field, entry, refusal):
    data = protocol_to_json(make_theorem2_protocol(2))
    assert len(data["dec_box_input"]) == 6
    data[field].append(entry)
    with pytest.raises(ValueError, match=refusal):
        protocol_from_json(data)


@pytest.mark.parametrize("field, entry, refusal", [
    # each of these was dropped without a word, and the file reloaded as the perfect scheme
    ("dec_guess", [1, 0, 1], r"^dec_guess entry \[1, 0, 1\] is never read: output 1 skips the box$"),
    ("dec_guess", [2, 5, 1], r"^dec_guess entry \[2, 5, 1\] is never read: output 2 stops at outcome 2, "
                             r"the first it lacks$"),
    ("dec_guess", [2, "skip", 0], r"^dec_guess entry \[2, 'skip', 0\] is never read: output 2 stops at outcome 2"),
    ("enc_channel_input", [7, 0, 3], r"^enc_channel_input entry \[7, 0, 3\] names message 7, not one of the 2 "
                                     r"messages$"),
])
def test_protocol_file_with_an_entry_it_never_reads_is_refused(field, entry, refusal):
    data = protocol_to_json(make_theorem2_protocol(2))
    assert data["dec_box_input"][1] == "skip" and data["dec_box_input"][2] == 1 and data["message_count"] == 2
    assert exact_success(make_nm(2), make_extremal_box(2, 2), protocol_from_json(data)) == 1
    data[field].append(entry)
    with pytest.raises(ValueError, match=refusal):
        protocol_from_json(data)


def test_scheme_with_encoder_keys_outside_messages_times_outcomes_is_refused():
    # the file reloads, since it does not know the box; each evaluation refuses it
    data = protocol_to_json(make_theorem2_protocol(2))
    data["enc_channel_input"] += [[0, 5, 3], [1, -1, 0]]
    protocol = protocol_from_json(data)
    assert len(protocol.enc_channel_input) == 6
    refusal = r"^enc_channel_input holds keys outside messages 0\.\.1 x box outcomes 0\.\.1: \(0, 5\), \(1, -1\)$"
    with pytest.raises(ValueError, match=refusal):
        exact_success(make_nm(2), make_extremal_box(2, 2), protocol)
    del protocol.enc_channel_input[0, 0]
    with pytest.raises(ValueError, match=r"^enc_channel_input missing \(0,0\)$"):
        exact_success(make_nm(2), make_extremal_box(2, 2), protocol)


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


def monte_carlo_reference(c, box, p, trials, seed):
    """``monte_carlo_success`` on the reference sampler: the same draws in
    the same order, each by multiply and compare on a cumulative table."""
    rational = box.mode == RATIONAL
    dense = dense_numerators(c)
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        g = sample_column(cumulative_table([1] * p.message_count, p.message_count), rng)
        x = p.enc_box_input[g]
        a = sample_column(cumulative_table(box.alice[x], box.denominator if rational else None), rng)
        cin = p.enc_channel_input[(g, a)]
        y, guesses = p.decoder[sample_column(cumulative_table(dense[cin], c.denominator), rng)]
        if y is SKIP:
            guess = guesses[0]
        else:
            cell, pa = box.weights[x][y][a], box.alice[x][a]
            table = cumulative_table(cell, pa) if rational else cumulative_table([w / pa for w in cell])
            guess = guesses[sample_column(table, rng)]
        hits += guess == g
    estimate = hits / trials
    return estimate, (estimate * (1 - estimate) / trials) ** 0.5


def _family_case(family, m, box_family, scheme):
    from zecomm.cli import BOX_FAMILIES, CHANNEL_FAMILIES
    from zecomm.protocols import SCHEMES

    return CHANNEL_FAMILIES[family](m), BOX_FAMILIES[box_family][1](m), SCHEMES[scheme][0](m)


def _tensor_rtilde_case():
    c, box, p = make_mm(3), make_rtilde_box(3), make_theorem3_protocol(3)
    return tensor_channels(c, c), tensor_behaviors(box, box), tensor_protocols(p, p, c, c, box, box)


@pytest.mark.parametrize("case", [
    functools.partial(_family_case, "Mm", 3, "i3322", "theorem3"),
    functools.partial(_family_case, "Nm", 3, "pm", "theorem2"),
    functools.partial(_family_case, "Mm", 5, "rtilde", "theorem3"),
    functools.partial(_family_case, "Nm", 3, "cglmp", "theorem2"),
    functools.partial(_family_case, "Mm", 3, "i3322-float", "theorem3"),
    _tensor_rtilde_case,
], ids=["i3322", "pm", "rtilde", "cglmp", "i3322-float", "rtilde-squared"])
def test_monte_carlo_matches_the_reference_sampler(case):
    channel, box, protocol = case()
    for seed in range(30):
        assert monte_carlo_success(channel, box, protocol, 200, seed) == \
            monte_carlo_reference(channel, box, protocol, 200, seed)


def exact_reference(c, box, p):
    """``per_message_success`` summed entry by entry over ``c.prob`` and
    ``box.prob``, with p(a|x) as the sum of p(a,b|x,0) over b."""
    results = []
    for g, x in enumerate(p.enc_box_input):
        total = 0
        for a in range(box.scenario.a_card):
            cin = p.enc_channel_input[(g, a)]
            for out, (y, guesses) in enumerate(p.decoder):
                if y is SKIP:
                    hit = sum(box.prob(x, 0, a, b) for b in range(box.scenario.b_card)) if guesses[0] == g else 0
                else:
                    hit = sum(box.prob(x, y, a, b) for b, guess in enumerate(guesses) if guess == g)
                total += c.prob(out, cin) * hit
        results.append(total)
    return results


@st.composite
def evaluation_cases(draw):
    """``(channel, box, protocol)``: a search case's channel (numerators
    other than 1 included) and box, with a random protocol for its K whose
    decoder skips the box on some outputs."""
    c, box, k = draw(search_cases())
    s, messages = box.scenario, st.integers(0, k - 1)
    enc_box = tuple(draw(st.integers(0, s.x_card - 1)) for _ in range(k))
    enc_channel = {(g, a): draw(st.integers(0, c.n_inputs - 1)) for g in range(k) for a in range(s.a_card)}
    decoder = tuple((SKIP, (draw(messages),)) if draw(st.booleans())
                    else (draw(st.integers(0, s.y_card - 1)), tuple(draw(messages) for _ in range(s.b_card)))
                    for _ in range(c.n_outputs))
    return c, box, AssistedProtocol(k, enc_box, enc_channel, decoder)


@settings(max_examples=100, deadline=None)
@given(evaluation_cases(), st.integers(0, 2**32))
def test_exact_and_monte_carlo_evaluation_match_the_references_on_random_protocols(case, seed):
    c, box, protocol = case
    assert per_message_success(c, box, protocol) == exact_reference(c, box, protocol)
    assert monte_carlo_success(c, box, protocol, 50, seed) == monte_carlo_reference(c, box, protocol, 50, seed)


@pytest.mark.parametrize("trials, seed, refused", [
    (True, 1, "trials"), (2.5, 1, "trials"), ("10", 1, "trials"),
    (10, None, "seed"), (10, False, "seed"), (10, 1.0, "seed"), (10, "1", "seed"),
    (10, -5, "seed"),  # random.Random seeds with |seed|, so -5 would draw as 5 does
])
def test_monte_carlo_refuses_non_int_trials_and_seed(trials, seed, refused):
    channel, box, protocol = make_nm(2), make_extremal_box(2, 2), make_theorem2_protocol(2)
    with pytest.raises(ValueError, match=f"^{refused} must be (an int|non-negative)"):
        monte_carlo_success(channel, box, protocol, trials, seed)


@pytest.mark.parametrize("hits, trials", [(0, 10), (10, 10), (50, 100), (849, 1000), (1, 1), (0, 1), (500, 500)])
def test_wilson_interval_solves_the_score_equation(hits, trials):
    # each endpoint p of a Wilson interval solves (estimate - p)**2 = z**2 p (1 - p) / trials
    z = protocols.WILSON_Z
    estimate = hits / trials
    lo, hi = wilson_interval(estimate, trials)
    assert 0.0 <= lo <= estimate <= hi <= 1.0 and lo < hi
    for p in (lo, hi):
        assert (estimate - p) ** 2 == pytest.approx(z * z * p * (1 - p) / trials, abs=1e-12)
    if hits == trials:
        assert hi == 1.0 and lo == pytest.approx(trials / (trials + z * z), abs=1e-15)
    if hits == 0:
        assert lo == 0.0 and hi == pytest.approx(z * z / (trials + z * z), abs=1e-15)


@pytest.mark.parametrize("estimate, trials, problem", [
    (1.5, 10, "estimate must lie in [0, 1], got 1.5"), (-0.1, 10, "estimate must lie in [0, 1], got -0.1"),
    (float("nan"), 10, "estimate must lie in [0, 1], got nan"), (0.5, 0, "trials must be at least 1, got 0"),
    (0.5, -4, "trials must be at least 1, got -4"), (0.5, True, "trials must be an int, got True"),
    (0.5, 10.0, "trials must be an int, got 10.0"), (0.5, "10", "trials must be an int, got '10'"),
])
def test_wilson_interval_refuses_inputs_outside_its_domain(estimate, trials, problem):
    # outside its domain the formula returns complex or NaN endpoints, or divides by zero
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        wilson_interval(estimate, trials)


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
    # the walk visits C(6 + K, K) - 1 codeword tuples on Mm(3)'s six inputs:
    # 9,366,818 at K = 40, and K = 41 is the first beyond the limit
    # (10,737,572); K = 12, once 6^12 ordered encoders, is 18,563
    with pytest.raises(ValueError, match=re.escape("C(6 + 41, 41) - 1 walk nodes exceed limit 10000000")):
        best_unassisted_success(make_mm(3), 41)
    assert best_unassisted_success(make_mm(3), 12) == (Fraction(1, 4), (0,) * 8 + (1, 2, 3, 4))


def test_best_unassisted_limit_refuses_a_large_k_without_building_n_to_the_k():
    # 6**(10**7) alone takes seconds to build; the node count is built only
    # until it passes the limit
    with pytest.raises(ValueError, match=re.escape("C(6 + 10000000, 10000000) - 1 walk nodes exceed limit")):
        best_unassisted_success(make_mm(3), 10**7)


def test_best_unassisted_limit_counts_a_one_input_channel_as_two_inputs():
    # one encoder, but it reads K codewords: K = 10**6 is refused before
    # any is read, and C(2 + 23, 23) - 1 = 299 is within the limit
    with pytest.raises(ValueError, match=re.escape("K = 1000000 messages on a one-input channel count as two "
                                                   "inputs: C(2 + 1000000, 1000000) - 1 walk nodes, beyond")):
        best_unassisted_success(identity_channel(1), 10**6)
    assert best_unassisted_success(identity_channel(1), 23) == (Fraction(1, 23), (0,) * 23)


def test_best_unassisted_walks_deeper_than_the_recursion_limit():
    # C(2 + 1100, 1100) - 1 = 606,650 nodes on two noiseless inputs: two
    # messages decode, and the first such encoder sends input 1 last
    k = 1100
    assert k > sys.getrecursionlimit()
    assert best_unassisted_success(identity_channel(2), k) == (Fraction(2, k), (0,) * (k - 1) + (1,))


@pytest.mark.parametrize("m, value, encoder", [
    (6, Fraction(161, 186), (0, 2, 4, 6, 8, 10)),
    (7, Fraction(265, 301), (0, 2, 4, 6, 8, 10, 12)),
])
def test_best_unassisted_reaches_mm_m_with_m_messages(m, value, encoder):
    # m^(2m) ordered encoders, beyond the reach of a walk over all of them
    c = make_mm(m)
    assert best_unassisted_success(c, m) == (value, encoder)
    assert list(encoder) == sorted(encoder)
    score = sum(map(max, zip(*(dense_numerators(c)[cin] for cin in encoder))))
    assert Fraction(score, m * c.denominator) == value


def prior_scaled_unassisted(c, k):
    """Reference: the earlier enumeration that weighted messages by a prior,
    at the uniform prior.  The prior is scaled to int weights, which multiply
    the channel numerators."""
    (weights,), scale = integer_rows([[Fraction(1, k)] * k], 1)
    scaled = [[[w * v for v in row] for row in dense_numerators(c)] for w in weights]
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


@pytest.mark.parametrize("family, m", [(make_mm, 4), (make_nm, 4), (make_nm, 5)])
def test_best_unassisted_matches_prior_scaled_reference_beyond_m_3(family, m):
    c = family(m)
    assert best_unassisted_success(c, 4) == prior_scaled_unassisted(c, 4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_best_unassisted_matches_prior_scaled_reference_on_random_channels(data):
    n_in, n_out, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
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
    ("Mm", 3, "rtilde", 3, True, ((0, 1, 2), (0, 1, 2, 3, 4, 5))),
]


@pytest.mark.parametrize("family, m, box_family, k, found, encoder", ASSISTED_ANSWERS)
def test_exhaustive_search_answers_are_pinned(family, m, box_family, k, found, encoder):
    check_answer(family, m, box_family, k, found, encoder)


def check_answer(family, m, box_family, k, found, encoder):
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


def reference_assisted_search(c, box, k, max_branches=None):
    """Reference: the earlier search, which built the encoder's dicts and
    then the decoder, one output at a time, for every encoder in canonical
    order.  With ``max_branches``, raises SearchLimitExceeded on the first
    encoder beyond it."""
    s = box.scenario
    branches = 0
    for enc_box in itertools.product(range(s.x_card), repeat=k):
        for enc_channel_flat in itertools.product(range(c.n_inputs), repeat=k * s.a_card):
            if branches == max_branches:
                raise SearchLimitExceeded(branches, enc_box)
            branches += 1
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
    outputs, sparse columns, and an extremal (2-2-m, m up to 4, so up to 16
    outcome patterns per box input), rtilde, uniform or local deterministic
    box; a local deterministic box has ``alice[x][a] = 0`` for every a but
    one.  The channel input count is drawn from 1 up to the most that
    ``REFERENCE_LEAF_LIMIT`` allows."""
    kind = draw(st.sampled_from(["extremal", "rtilde", "uniform", "local"]))
    if kind == "extremal":
        m = draw(st.integers(2, 4))
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
    return 0, 0, [(0, 0)] * box.scenario.y_card


def whole_leaf_masks(leaf, y_card):
    """Reference: ``(hit, multi, pairs)`` of a block tuple, with ``pairs[y]
    = (shared[y], seen[y])``, each bit set by counting the blocks that set
    it."""
    def either(masks):
        return functools.reduce(operator.or_, masks, 0)

    def twice(masks):
        return sum(1 << i for i in range(either(masks).bit_length()) if sum(mask >> i & 1 for mask in masks) >= 2)

    reaches = [reach for _, reach, _ in leaf]
    cells = [[block_cells[y] for _, _, block_cells in leaf] for y in range(y_card)]
    return either(reaches), twice(reaches), list(zip(map(twice, cells), map(either, cells)))


def block_table(c, box, x):
    """Every block of box input x's table, built by index."""
    a_card = box.scenario.a_card
    return list(map(protocols._block_builder(c, box, x, a_card), range(c.n_inputs**a_card)))


def draw_leaf(c, box, k, data):
    s = box.scenario
    enc_box = tuple(data.draw(st.integers(0, s.x_card - 1)) for _ in range(k))
    indices = [data.draw(st.integers(0, c.n_inputs**s.a_card - 1)) for _ in enc_box]
    return enc_box, tuple(protocols._block_builder(c, box, x, s.a_card)(j) for x, j in zip(enc_box, indices))


def passing_bits(c, box, x, masks):
    """The search's passing bit of each block of box input x's table, after
    a prefix with masks ``masks``."""
    return list(protocols._passing_bits(masks, protocols._window(c, box, x), box.scenario.b_card))


def block_index(c, block):
    """Index of a block in its table: its channel inputs as base-n digits."""
    return functools.reduce(lambda rank, cin: rank * c.n_inputs + cin, block[0], 0)


@settings(max_examples=200, deadline=None)
@given(search_cases(), st.data())
def test_complete_decoder_matches_reference_on_random_encoders(case, data):
    # every encoder, not only the first hit: the decision and the decoder
    c, box, k = case
    enc_box, leaf = draw_leaf(c, box, k, data)
    *prefix, block = leaf
    masks = functools.reduce(protocols._extend, prefix, no_masks(box))
    passes = passing_bits(c, box, enc_box[-1], masks)[block_index(c, block)]
    enc_channel_flat = tuple(cin for cins, _, _ in leaf for cin in cins)
    _, reach = reference_encoder(c, box, enc_box, enc_channel_flat)
    assert (protocols._complete_decoder(passes, masks, tuple(prefix), block, c.n_outputs, box.scenario.b_card)
            == reference_complete_decoder(box, enc_box, reach, c.n_outputs))


def test_complete_decoder_matches_reference_on_every_encoder_with_three_outcomes():
    # B = 3, which the random cases above rarely draw: an outcome's cell
    # bitset read at the wrong output or outcome would fail some encoder.
    # Every encoder of the 3-input noiseless channel with K = 2 and the 2-2-3
    # extremal box: 2,916 encoders, of which 1,032 read the box.
    c, box = identity_channel(3), make_extremal_box(3, 3)
    s = box.scenario
    reads_box = 0  # decoders that read the box on some output
    for enc_box in itertools.product(range(s.x_card), repeat=2):
        first, last = (block_table(c, box, x) for x in enc_box)
        for head in first:
            masks = protocols._extend(no_masks(box), head)
            for block, passes in zip(last, passing_bits(c, box, enc_box[-1], masks), strict=True):
                _, reach = reference_encoder(c, box, enc_box, head[0] + block[0])
                expected = reference_complete_decoder(box, enc_box, reach, c.n_outputs)
                assert protocols._complete_decoder(passes, masks, (head,), block, c.n_outputs, s.b_card) == expected
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
        builders = [functools.cache(protocols._block_builder(c, box, x, s.a_card)) for x in range(s.x_card)]
        *outer, last = enc_box
        walked = []
        for prefix, masks in protocols._prefixes([builders[x] for x in outer], c.n_inputs**s.a_card, no_masks(box)):
            assert masks == whole_leaf_masks(prefix, s.y_card)
            walked.extend(prefix + (block,) for block in block_table(c, box, last))
        assert walked == list(itertools.product(*(block_table(c, box, x) for x in enc_box)))


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


@pytest.fixture
def built_blocks(monkeypatch):
    """The list that gets ``(x, j)`` for each call of a ``_block_builder``
    of a whole block (width A): block j of box input x built."""
    built = []
    block_builder = protocols._block_builder

    def counting(c, box, x, width):
        build = block_builder(c, box, x, width)
        if width < box.scenario.a_card:  # a window's leads
            return build
        return lambda j: built.append((x, j)) or build(j)

    monkeypatch.setattr(protocols, "_block_builder", counting)
    return built


def test_exhaustive_search_builds_only_the_blocks_it_reaches(built_blocks):
    c, box = make_nm(5), make_extremal_box(5, 5)  # 10**5 encoder blocks per box input
    found, protocol = exhaustive_assisted_search(c, box, 1)
    assert found and encoder_of(protocol) == ((0,), (0, 0, 0, 0, 0))
    assert len(built_blocks) == 1
    built_blocks.clear()
    # the prefix's block 0 alone: no last block of the first 100 encoders
    # passes, so none is built
    with pytest.raises(SearchLimitExceeded):
        exhaustive_assisted_search(c, box, 2, max_branches=100)
    assert built_blocks == [(0, 0)]
    built_blocks.clear()
    with pytest.raises(SearchLimitExceeded):  # 12**6 blocks per box input
        exhaustive_assisted_search(make_nm(6), make_extremal_box(6, 6), 2, max_branches=300_000)
    assert built_blocks == [(0, 0)]


def test_exhaustive_search_builds_each_table_once_whichever_positions_share_it(built_blocks):
    # a refutation walks every box-input tuple, so each box input's table is
    # read at every prefix position; each block is still built once, through
    # the box input's cache, and no last block passes: x_card tables of
    # n_in**A blocks each
    assert exhaustive_assisted_search(make_mm(3), make_i3322_rational_table(), 2) == (False, None)
    assert sorted(built_blocks) == list(itertools.product(range(3), range(6**2)))
    built_blocks.clear()
    assert exhaustive_assisted_search(make_nm(2), make_extremal_box(2, 2), 3) == (False, None)
    assert sorted(built_blocks) == list(itertools.product(range(2), range(4**2)))


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


def test_exhaustive_search_walks_prefixes_deeper_than_the_recursion_limit():
    # 1,499 prefix tables, one per message but the last; no encoder of 1,500
    # messages on two noiseless inputs is zero-error, so the budget stops it
    c, box = identity_channel(2), uniform_behavior(Scenario(1, 1, 1, 1))
    with pytest.raises(SearchLimitExceeded) as stop:
        exhaustive_assisted_search(c, box, 1500, max_branches=5)
    assert (stop.value.branches, stop.value.enc_box) == (5, (0,) * 1500)


@pytest.mark.parametrize("k", [True, False, 2.0, "2", None])
def test_searches_refuse_a_message_count_that_is_not_an_int(k):
    with pytest.raises(ValueError, match=f"message count K must be an int, got {k!r}"):
        exhaustive_assisted_search(make_nm(2), make_extremal_box(2, 2), k)
    with pytest.raises(ValueError, match=f"message count K must be an int, got {k!r}"):
        best_unassisted_success(make_nm(2), k)


@pytest.mark.parametrize("budget, problem", [
    (True, "an int, got True"), (False, "an int, got False"), (5.0, "an int, got 5.0"), ("5", "an int, got '5'"),
    (None, "an int, got None"), (0, "at least 1, got 0"), (-3, "at least 1, got -3"),
])
def test_exhaustive_search_refuses_a_budget_that_is_not_a_positive_int(budget, problem):
    with pytest.raises(ValueError, match=f"max_branches must be {problem}"):
        exhaustive_assisted_search(make_nm(2), make_extremal_box(2, 2), 2, max_branches=budget)


def search_outcome(search, c, box, k, max_branches):
    """The answer of a budgeted search, or where its budget stopped it."""
    try:
        return search(c, box, k, max_branches)
    except SearchLimitExceeded as stop:
        return "stopped", stop.branches, stop.enc_box


def canonical_rank(c, box, protocol):
    """1-based rank of a protocol's encoder in the search's canonical order."""
    enc_box, flat = encoder_of(protocol)
    box_rank = functools.reduce(lambda rank, x: rank * box.scenario.x_card + x, enc_box, 0)
    channel_rank = functools.reduce(lambda rank, cin: rank * c.n_inputs + cin, flat, 0)
    return box_rank * c.n_inputs ** len(flat) + channel_rank + 1


#: every table boundary is swept over the first this many encoders, and
#: only the box-input tuple boundaries beyond: the whole of Nm(2)/pr K=2, the
#: first box-input tuple of Mm(3)/i3322 K=2 and the first prefixes of the
#: second (each tuple's first prefix walks its last table fresh, the others
#: the whole table) and the first 87 prefixes of Nm(2)/pr K=3
SWEEP_TABLE_ENCODERS = 1400


@pytest.mark.parametrize("family, m, box_family, k", [
    ("Nm", 2, "pr", 2), ("Nm", 2, "pr", 3), ("Mm", 3, "i3322", 2),
])
def test_exhaustive_search_budget_sweep_matches_the_per_encoder_reference(family, m, box_family, k):
    # every budget at a table boundary (the end of one prefix's walk of the
    # last table) and at a box-input tuple boundary, +-1, and at the hit's
    # rank (or the whole space) +-1
    from zecomm.cli import BOX_FAMILIES, CHANNEL_FAMILIES

    c, box = CHANNEL_FAMILIES[family](m), BOX_FAMILIES[box_family][1](m)
    s = box.scenario
    table = c.n_inputs ** s.a_card
    per_tuple = table**k
    space = s.x_card**k * per_tuple
    found, protocol = exhaustive_assisted_search(c, box, k)
    ends = {canonical_rank(c, box, protocol) if found else space}
    ends.update(range(table, min(space, SWEEP_TABLE_ENCODERS) + 1, table))
    ends.update(range(per_tuple, space + 1, per_tuple))
    for budget in sorted({end + step for end in ends for step in (-1, 0, 1)} - {0}):
        assert (search_outcome(exhaustive_assisted_search, c, box, k, budget)
                == search_outcome(reference_assisted_search, c, box, k, budget)), budget


@settings(max_examples=100, deadline=None)
@given(search_cases(), st.data())
def test_exhaustive_search_matches_the_per_encoder_reference_on_random_budgets(case, data):
    c, box, k = case
    s = box.scenario
    budget = data.draw(st.integers(1, s.x_card**k * c.n_inputs ** (k * s.a_card) + 1))
    assert (search_outcome(exhaustive_assisted_search, c, box, k, budget)
            == search_outcome(reference_assisted_search, c, box, k, budget))


#: PASSING_WINDOW values the windowed tests patch in: one block, small
#: sizes that split most tables into many windows (a window is the largest
#: power of n that fits), and the default, under which each table is one
WINDOW_SIZES = [1, 2, 3, 5, protocols.PASSING_WINDOW]


@settings(max_examples=100, deadline=None)
@given(search_cases(), st.sampled_from(WINDOW_SIZES))
@example((make_channel([[Fraction(1, 2), Fraction(1, 2)]], IndexSpace((1,)), IndexSpace((2,))),
          make_extremal_box(2, 2), 2), 2)  # one channel input
@example((make_nm(2), uniform_behavior(Scenario(2, 2, 1, 2)), 2), 3)  # one outcome
@example((identity_channel(3), make_extremal_box(3, 3), 2), 5)  # three outcomes
@example((make_nm(2), make_local_deterministic([1, 2], [0, 2], Scenario(2, 2, 3, 3)), 2), 3)  # unused outcomes
def test_window_bitsets_match_the_built_blocks(case, window):
    # each block j is the lead of window j // size plus the window bits set
    # at j % size, and its channel inputs are the j-th product tuple
    c, box, _ = case
    s = box.scenario
    digits = max(d for d in range(s.a_card + 1) if c.n_inputs**d <= window)
    products = list(itertools.product(range(c.n_inputs), repeat=s.a_card))
    for x in range(s.x_card):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocols, "PASSING_WINDOW", window)
            leads, count, size, reach, cells, _ = protocols._window(c, box, x)
        blocks = block_table(c, box, x)
        assert size == c.n_inputs**digits and count * size == len(blocks)
        for index, (cins, block_reach, block_cells) in enumerate(blocks):
            assert cins == products[index]
            lead_cins, lead_reach, lead_cells = leads(index // size)
            j = index % size
            assert lead_cins == cins[:s.a_card - digits]
            assert block_reach == lead_reach | sum(1 << out * s.b_card + s.b_card - 1
                                                   for out, bits in enumerate(reach) if bits >> j & 1)
            assert block_cells == tuple(lead | sum(1 << cell for cell, bits in enumerate(row) if bits >> j & 1)
                                        for lead, row in zip(lead_cells, cells, strict=True))


def reference_passing_bits(masks, window, b_card):
    """Reference: the passing bits of ``_passing_bits``, window by window,
    with each union of cell bitsets ORed outcome by outcome from ``cells``
    and no early stop over the outputs."""
    leads, count, size, reach, cells, _ = window
    hit, multi, pairs = masks
    full = (1 << size) - 1
    group = (1 << b_card) - 1
    bits = []
    for lead in range(count):
        _, lead_reach, lead_cells = leads(lead)
        multi_lead = multi | hit & lead_reach
        clashes = [both | seen & cell for (both, seen), cell in zip(pairs, lead_cells)]
        fail = 0
        for out in range(len(reach)):
            shift = out * b_card
            if not hit >> shift + b_card - 1 & 1:
                continue
            failing = full if multi_lead >> shift + b_card - 1 & 1 else reach[out]
            for clash, (_, seen), row in zip(clashes, pairs, cells):
                if clash >> shift & group:
                    continue
                union = 0
                for b in range(b_card):
                    if seen >> shift + b & 1:
                        union |= row[shift + b]
                failing &= union
            fail |= failing
        bits += [(full & ~fail) >> j & 1 for j in range(size)]
    return bits


@settings(max_examples=150, deadline=None)
@given(search_cases(), st.sampled_from(WINDOW_SIZES), st.data())
def test_outcome_unions_and_passing_bits_match_the_per_outcome_or(case, window, data):
    # the passing bits of a random prefix first, while the unions are fresh,
    # then every union entry, read in a drawn order, since an entry is made
    # when first read
    c, box, k = case
    s = box.scenario
    enc_box, leaf = draw_leaf(c, box, max(k, 2), data)
    masks = functools.reduce(protocols._extend, leaf[:-1], no_masks(box))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "PASSING_WINDOW", window)
        built = protocols._window(c, box, enc_box[-1])
    assert list(protocols._passing_bits(masks, built, s.b_card)) == reference_passing_bits(masks, built, s.b_card)
    *_, cells, unions = built
    assert len(unions) == s.y_card
    for pattern in data.draw(st.permutations(range(1 << s.b_card))):
        for row, by_pattern in zip(cells, unions):
            assert by_pattern[pattern] == [
                functools.reduce(operator.or_, (row[out * s.b_card + b] for b in range(s.b_card) if pattern >> b & 1), 0)
                for out in range(c.n_outputs)]


@pytest.mark.parametrize("window", WINDOW_SIZES)
@settings(max_examples=150, deadline=None)
@given(case=search_cases(), data=st.data())
def test_windowed_search_matches_the_per_encoder_reference(window, case, data):
    c, box, k = case
    s = box.scenario
    budget = data.draw(st.integers(1, s.x_card**k * c.n_inputs ** (k * s.a_card) + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "PASSING_WINDOW", window)
        assert (search_outcome(exhaustive_assisted_search, c, box, k, budget)
                == search_outcome(reference_assisted_search, c, box, k, budget))


@pytest.mark.parametrize("window", WINDOW_SIZES)
@pytest.mark.parametrize("family, m, box_family, k, found, encoder", [
    answer for answer in ASSISTED_ANSWERS if answer[:4] in {("Nm", 2, "pr", 2), ("Nm", 3, "pm", 2),
                                                            ("Mm", 3, "i3322", 2), ("Nm", 2, "pr", 3)}])
def test_windowed_search_answers_are_pinned(window, family, m, box_family, k, found, encoder, monkeypatch):
    # hits whose last message shares outputs with the others, and refutations
    monkeypatch.setattr(protocols, "PASSING_WINDOW", window)
    check_answer(family, m, box_family, k, found, encoder)


@pytest.fixture
def built_windows(monkeypatch):
    """The list that gets the box input of each ``_window`` built."""
    built = []
    window = protocols._window

    def counting(c, box, x):
        built.append(x)
        return window(c, box, x)

    monkeypatch.setattr(protocols, "_window", counting)
    return built


def test_one_message_search_builds_one_block_and_no_bitset(built_blocks, built_windows):
    from zecomm.cli import BOX_FAMILIES

    c, box = make_nm(5), BOX_FAMILIES["pm"][1](5)
    found, protocol = exhaustive_assisted_search(c, box, 1)
    assert found and encoder_of(protocol) == ((0,), (0, 0, 0, 0, 0))
    assert (len(built_blocks), built_windows) == (1, [])


def test_bitsets_are_built_once_per_box_input_walked_last(built_windows):
    # box input 1 is not walked at all before the hit in (0, 0), nor before
    # the budget stops inside the 16**3 encoders of (0, 0, 0)
    found, _ = exhaustive_assisted_search(make_nm(4), make_extremal_box(2, 2), 2)
    assert found and built_windows == [0]
    built_windows.clear()
    c, box = make_nm(2), make_extremal_box(2, 2)
    with pytest.raises(SearchLimitExceeded):
        exhaustive_assisted_search(c, box, 3, max_branches=100)
    assert built_windows == [0]
    built_windows.clear()
    assert exhaustive_assisted_search(c, box, 3) == (False, None)
    assert built_windows == [0, 1]


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
