import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from zecomm import reference
from zecomm.behaviors import Scenario, behavior_to_json, is_no_signaling, make_behavior, validate_behavior
from zecomm.numeric import RATIONAL
from zecomm.quantum import (
    I3322_ALICE_ANGLES,
    I3322_BOB_ANGLES,
    PSD_TOL,
    QuantumModel,
    QuantumValidationError,
    _as_matrix,
    _is_psd,
    behavior_from_quantum,
    cglmp_assisted_success_closed_form,
    check_density_matrix,
    check_measurement,
    make_cglmp_behavior,
    make_i3322_model,
    make_i3322_rational_table,
    make_singlet,
    planar_qubit_projectors,
)


def max_entangled(d):
    """Density matrix of (1/sqrt(d)) sum_i |ii>."""
    psi = np.zeros(d * d, dtype=complex)
    psi[::d + 1] = 1 / math.sqrt(d)
    return np.outer(psi, psi.conj())


def test_planar_projectors():
    for theta in (0.0, math.pi / 3, 1.234):
        p0, p1 = map(np.asarray, planar_qubit_projectors(theta))
        assert np.allclose(p0 + p1, np.eye(2))
        assert np.allclose(p0 @ p0, p0)
        assert np.allclose(p1 @ p1, p1)
        assert abs(np.trace(p0) - 1) < 1e-12


def test_state_constructors():
    for rho in (make_singlet(), max_entangled(2), max_entangled(3)):
        check_density_matrix(rho)


def test_density_matrix_validation():
    with pytest.raises(QuantumValidationError):
        check_density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(QuantumValidationError):
        check_density_matrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(QuantumValidationError):
        check_density_matrix(np.diag([1.5, -0.5]))  # not PSD


def test_measurement_validation():
    eye = np.eye(2)
    check_measurement([eye / 2, eye / 2])
    with pytest.raises(QuantumValidationError):
        check_measurement([eye, eye])  # sums to 2I
    with pytest.raises(QuantumValidationError):
        check_measurement([np.diag([2.0, -1.0]), np.diag([-1.0, 2.0])])


def test_singlet_anticorrelation_at_equal_angles():
    p0, p1 = planar_qubit_projectors(0.7)
    model = QuantumModel(make_singlet(), ((p0, p1),), ((p0, p1),))
    beh = behavior_from_quantum(model)
    assert abs(beh.prob(0, 0, 0, 0)) < 1e-12
    assert abs(beh.prob(0, 0, 0, 1) - 0.5) < 1e-12


def test_i3322_model_scenario_and_ns():
    beh = behavior_from_quantum(make_i3322_model())
    s = beh.scenario
    assert (s.x_card, s.y_card, s.a_card, s.b_card) == (3, 3, 2, 2)
    assert validate_behavior(beh) == []
    ok, violation = is_no_signaling(beh)
    assert ok and violation <= 1e-9
    assert len(I3322_ALICE_ANGLES) == len(I3322_BOB_ANGLES) == 3


def test_i3322_rational_table_matches_reference():
    table = make_i3322_rational_table()
    for x in range(3):
        for y in range(3):
            for a in range(2):
                for b in range(2):
                    assert table.prob(x, y, a, b) == reference.singlet_reference_prob(x, y, a, b)
    assert validate_behavior(table) == []
    ok, violation = is_no_signaling(table)
    assert ok and violation == 0


def reference_i3322_table():
    """The published table built from Fractions through ``make_behavior``,
    as ``make_i3322_rational_table`` built it before its integer table."""
    p00 = (
        (Fraction(3, 8), Fraction(3, 8), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 8), Fraction(3, 8)),
        (Fraction(3, 8), Fraction(1, 2), Fraction(1, 8)),
    )
    return make_behavior(Scenario(3, 3, 2, 2), RATIONAL,
                         [[((p, Fraction(1, 2) - p), (Fraction(1, 2) - p, p)) for p in row] for row in p00])


def test_i3322_integer_table_equals_the_fraction_route():
    table, reference_table = make_i3322_rational_table(), reference_i3322_table()
    assert table == reference_table and table.denominator == reference_table.denominator == 8
    assert table.weights == reference_table.weights and table.alice == reference_table.alice
    assert behavior_to_json(table) == behavior_to_json(reference_table)


def test_i3322_kernel_vs_table_single_column_discrepancy():
    # the reference table and the stated angles agree except at (x,y) = (2,1),
    # where the table entry is the outcome swap of what the singlet produces;
    # the table entry there is not quantum-realizable at all
    kernel = behavior_from_quantum(make_i3322_model())
    table = make_i3322_rational_table()
    for x in range(3):
        for y in range(3):
            for a in range(2):
                for b in range(2):
                    k = kernel.prob(x, y, a, b)
                    t = float(table.prob(x, y, a, b))
                    if (x, y) == (2, 1):
                        assert abs(k - float(table.prob(x, y, a, 1 - b))) < 1e-12
                    else:
                        assert abs(k - t) < 1e-12


def test_cglmp_behavior_structure():
    beh = make_cglmp_behavior()
    s = beh.scenario
    assert (s.x_card, s.y_card, s.a_card, s.b_card) == (2, 2, 3, 3)
    # csc^2(pi/12) + csc^2(pi/4) + csc^2(5pi/12) = 18, so rows normalize exactly
    csc2 = lambda t: 1 / math.sin(t) ** 2
    assert abs(csc2(math.pi / 12) + csc2(math.pi / 4) + csc2(5 * math.pi / 12) - 18) < 1e-9
    assert abs(beh.prob(0, 0, 0, 0) - csc2(math.pi / 12) / 54) < 1e-15
    assert abs(beh.prob(0, 0, 0, 1) - csc2(5 * math.pi / 12) / 54) < 1e-15
    assert abs(beh.prob(1, 1, 0, 0) - csc2(math.pi / 4) / 54) < 1e-15
    assert validate_behavior(beh) == []
    ok, violation = is_no_signaling(beh, tol=1e-12)
    assert ok


def test_cglmp_closed_form_value():
    value = cglmp_assisted_success_closed_form()
    assert abs(value - 0.9008) < 5e-5


def test_quantum_model_dimension_check():
    p0, p1 = planar_qubit_projectors(0.0)
    with pytest.raises(QuantumValidationError):
        QuantumModel(max_entangled(3), ((p0, p1),), ((p0, p1),))


# --- the kernel against numpy, which only the tests load


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    m = random_complex(rng, d)
    return (m + m.conj().T) / 2


def random_unitary(rng, d):
    return np.linalg.qr(random_complex(rng, d))[0]


def test_psd_check_matches_eigvalsh_on_random_hermitian_matrices():
    rng = np.random.default_rng(20261019)
    decided = {True: 0, False: 0}
    for d in range(1, 17):
        for _ in range(40):
            h = random_hermitian(rng, d)
            # Shift the smallest eigenvalue to a random point around -PSD_TOL,
            # on a log scale from 1e-12 to 10 away from it.
            offset = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-12, 1)
            m = h - (np.linalg.eigvalsh(h).min() + PSD_TOL - offset) * np.eye(d)
            smallest = np.linalg.eigvalsh(m).min()
            if abs(smallest + PSD_TOL) < 1e-9:
                continue
            expected = bool(smallest >= -PSD_TOL)
            assert _is_psd(_as_matrix(m)) == expected, (d, smallest)
            decided[expected] += 1
    assert min(decided.values()) > 100


@pytest.mark.parametrize("d", [1, 4, 16])
def test_psd_check_draws_the_line_at_minus_psd_tol(d):
    # A known spectrum, rotated: the smallest eigenvalue half a tolerance on
    # either side of -PSD_TOL, far beyond the rounding of the rotation.
    rng = np.random.default_rng(d)
    q = random_unitary(rng, d)
    for smallest, expected in ((-0.5 * PSD_TOL, True), (-1.5 * PSD_TOL, False)):
        spectrum = np.concatenate([[smallest], rng.uniform(0.1, 1, d - 1)])
        m = q @ np.diag(spectrum) @ q.conj().T
        assert _is_psd(_as_matrix(m)) == expected


def random_projective_measurement(rng, d, outcomes):
    """Projectors onto ``outcomes`` groups of the columns of a random unitary."""
    q = random_unitary(rng, d)
    cuts = np.array_split(np.arange(d), outcomes)
    return [q[:, cols] @ q[:, cols].conj().T for cols in cuts]


def random_state(rng, d):
    g = random_complex(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d", [2, 3])
def test_behavior_from_quantum_matches_numpy_trace(d):
    rng = np.random.default_rng(d)
    for state in (max_entangled(d), random_state(rng, d * d)):
        alice = [random_projective_measurement(rng, d, d) for _ in range(2)]
        bob = [random_projective_measurement(rng, d, 2) for _ in range(3)]
        beh = behavior_from_quantum(QuantumModel(state, alice, bob))
        for x, y, a, b in itertools.product(range(2), range(3), range(d), range(2)):
            expected = np.trace(np.kron(alice[x][a], bob[y][b]) @ state).real
            assert abs(beh.prob(x, y, a, b) - expected) < 1e-12


@pytest.mark.parametrize("m, message", [
    ([1.0, 0.0], "expected a square matrix"),
    (np.eye(2)[0], "expected a square matrix"),
    ([[1.0, 0.0], [0.0]], "expected a square matrix"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "expected a square matrix"),
    (np.eye(17), "kernel limited to dimension 16"),
])
def test_as_matrix_refusals(m, message):
    with pytest.raises(QuantumValidationError, match=f"^{message}$"):
        _as_matrix(m)


def test_as_matrix_accepts_nested_sequences_and_arrays():
    assert _as_matrix([[1, 2j], [-2j, 3]]) == ((1 + 0j, 2j), (-2j, 3 + 0j))
    assert _as_matrix(np.eye(16)) == tuple(tuple(complex(i == j) for j in range(16)) for i in range(16))
