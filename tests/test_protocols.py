from fractions import Fraction

import pytest

from zecomm.behaviors import (
    Behavior,
    Scenario,
    make_extremal_box,
    make_rtilde_box,
    tensor_behaviors,
    uniform_behavior,
)
from zecomm.channels import identity_channel, make_mm, make_nm, tensor_channels
from zecomm.protocols import (
    SKIP,
    AssistedProtocol,
    MessagePrior,
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
    uniform_prior,
)
from zecomm.numeric import FLOAT, RATIONAL
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
        AssistedProtocol(2, (0,), {}, (), {}, {})
    with pytest.raises(ValueError):
        AssistedProtocol(2, (0, 1), {}, (), {}, {1: 0})  # remap moves a message


def test_priors():
    assert sum(uniform_prior(3).weights) == 1
    assert MessagePrior((0, 1, 0)).weights[1] == 1
    with pytest.raises(ValueError):
        MessagePrior((Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ValueError):
        MessagePrior((Fraction(3, 2), Fraction(-1, 2)))


def test_exact_success_with_prior():
    channel, box, protocol = make_nm(3), make_extremal_box(3, 3), make_theorem2_protocol(3)
    per = per_message_success(channel, box, protocol)
    assert exact_success(channel, box, protocol, MessagePrior((0, 1))) == per[1]
    assert exact_success(channel, box, protocol, MessagePrior((1, 0))) == per[0]
    with pytest.raises(ValueError):
        exact_success(channel, box, protocol, uniform_prior(3))


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
        monte_carlo_success(channel, box, protocol, None, 100, seed=1)
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
    est1, err1 = monte_carlo_success(channel, box, protocol, None, 500, seed=42)
    est2, err2 = monte_carlo_success(channel, box, protocol, None, 500, seed=42)
    assert (est1, err1) == (est2, err2)
    assert est1 == 1.0 and err1 == 0.0  # zero-error scheme never misses
    with pytest.raises(ValueError):
        monte_carlo_success(channel, box, protocol, None, 0, seed=1)


def test_monte_carlo_tracks_exact_value():
    channel, box, protocol = make_mm(3), make_i3322_rational_table(), make_theorem3_protocol(3)
    exact = exact_success(channel, box, protocol)
    assert exact == Fraction(6, 7)
    est, err = monte_carlo_success(channel, box, protocol, None, 4000, seed=7)
    assert abs(est - float(exact)) < 5 * max(err, 1e-3)


@pytest.mark.parametrize("family, m, box_family, scheme, expected", [
    ("Mm", 3, "i3322", "theorem3", {11: (0.849, 0.01132249972400088), 2024: (0.861, 0.010939789760319894)}),
    ("Nm", 3, "pm", "theorem2", {11: (1.0, 0.0), 2024: (1.0, 0.0)}),
    ("Mm", 5, "rtilde", "theorem3", {11: (1.0, 0.0), 2024: (1.0, 0.0)}),
    ("Nm", 3, "cglmp", "theorem2", {11: (0.88, 0.010276186062932104), 2024: (0.903, 0.009359006357514668)}),
])
def test_monte_carlo_seeded_estimates(family, m, box_family, scheme, expected):
    # literal estimates pin the whole sampling path: prior, box marginal and
    # conditional, and channel draws, in rational and float mode
    from zecomm.cli import _build_behavior, _build_channel, _scheme_protocol

    channel, box, protocol = _build_channel(family, m), _build_behavior(box_family, m), _scheme_protocol(scheme, m)
    for seed, estimate in expected.items():
        assert monte_carlo_success(channel, box, protocol, None, 1000, seed) == estimate


def test_monte_carlo_seeded_estimate_with_prior():
    prior = MessagePrior((Fraction(1, 3), Fraction(2, 3), Fraction(0)))
    channel, box, protocol = make_mm(3), make_i3322_rational_table(), make_theorem3_protocol(3)
    assert monte_carlo_success(channel, box, protocol, prior, 1000, 5) == (0.87, 0.010634848376916336)


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
    with pytest.raises(ValueError):
        best_unassisted_success(make_mm(3), 12, limit=100)


def test_tensor_protocols_two_perfect_bits():
    n2, p2 = make_nm(2), make_extremal_box(2, 2)
    base = make_theorem2_protocol(2)
    channel = tensor_channels(n2, n2)
    box = tensor_behaviors(p2, p2)
    protocol = tensor_protocols(base, base, n2, n2, p2, p2)
    assert protocol.message_count == 4
    assert is_zero_error(channel, box, protocol)


@pytest.mark.slow
def test_exhaustive_search_finds_zero_error_protocol():
    found, protocol = exhaustive_assisted_search(make_nm(2), make_extremal_box(2, 2), 2)
    assert found
    assert is_zero_error(make_nm(2), make_extremal_box(2, 2), protocol)


@pytest.mark.slow
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


def test_protocol_json_roundtrip():
    for protocol in (make_theorem2_protocol(3), make_theorem3_protocol(3)):
        again = protocol_from_json(protocol_to_json(protocol))
        assert again == protocol
    assert SKIP is None
