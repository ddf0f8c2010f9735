import math

import numpy as np
import pytest

from zecomm import reference
from zecomm.behaviors import is_no_signaling, validate_behavior
from zecomm.quantum import (
    I3322_ALICE_ANGLES,
    I3322_BOB_ANGLES,
    QuantumModel,
    QuantumValidationError,
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
        p0, p1 = planar_qubit_projectors(theta)
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
