"""Small-dimension quantum kernel: states and measurements to behaviors, plus
the two concrete entangled correlations used by the protocol evaluations.

All linear algebra is double-precision numpy on dimensions <= 16.  Behaviors
produced here are float mode; the dyadic singlet table additionally has an
exact-rational twin for zero-error bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .behaviors import Behavior, Scenario, make_behavior
from .numeric import FLOAT, RATIONAL

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-10


class QuantumValidationError(ValueError):
    pass


def _as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QuantumValidationError("expected a square matrix")
    if arr.shape[0] > 16:
        raise QuantumValidationError("kernel limited to dimension 16")
    return arr


def check_density_matrix(rho) -> np.ndarray:
    rho = _as_matrix(rho)
    if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
        raise QuantumValidationError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > HERMITIAN_TOL:
        raise QuantumValidationError("state trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -PSD_TOL:
        raise QuantumValidationError("state is not positive semidefinite")
    return rho


def check_measurement(elements) -> list[np.ndarray]:
    mats = [_as_matrix(e) for e in elements]
    d = mats[0].shape[0]
    for e in mats:
        if e.shape[0] != d:
            raise QuantumValidationError("measurement elements of mixed dimension")
        if np.max(np.abs(e - e.conj().T)) > HERMITIAN_TOL:
            raise QuantumValidationError("measurement element is not Hermitian")
        if np.linalg.eigvalsh(e).min() < -PSD_TOL:
            raise QuantumValidationError("measurement element is not PSD")
    if np.max(np.abs(sum(mats) - np.eye(d))) > COMPLETENESS_TOL:
        raise QuantumValidationError("measurement elements do not sum to identity")
    return mats


@dataclass(frozen=True)
class QuantumModel:
    """Bipartite state with per-input measurement collections for each party."""

    state: np.ndarray  # density matrix on d_A * d_B
    alice_meas: tuple  # alice_meas[x][a] on d_A
    bob_meas: tuple  # bob_meas[y][b] on d_B

    def __post_init__(self):
        check_density_matrix(self.state)
        for meas in self.alice_meas:
            check_measurement(meas)
        for meas in self.bob_meas:
            check_measurement(meas)
        da = self.alice_meas[0][0].shape[0]
        db = self.bob_meas[0][0].shape[0]
        if self.state.shape[0] != da * db:
            raise QuantumValidationError("state dimension does not factor over the parties")

    @property
    def scenario(self) -> Scenario:
        return Scenario(
            len(self.alice_meas), len(self.bob_meas), len(self.alice_meas[0]), len(self.bob_meas[0])
        )


def behavior_from_quantum(q: QuantumModel) -> Behavior:
    """p(a,b|x,y) = Re Tr[(A_x^a kron B_y^b) rho], float mode."""
    s = q.scenario
    table = [[[[0.0] * s.b_card for _ in range(s.a_card)] for _ in range(s.y_card)] for _ in range(s.x_card)]
    for x, y, a, b in itertools.product(range(s.x_card), range(s.y_card), range(s.a_card), range(s.b_card)):
        value = np.trace(np.kron(q.alice_meas[x][a], q.bob_meas[y][b]) @ q.state)
        if abs(value.imag) > PSD_TOL:
            raise QuantumValidationError(f"non-real probability at ({x},{y},{a},{b})")
        table[x][y][a][b] = value.real
    return make_behavior(s, FLOAT, table)


def make_max_entangled(d: int) -> np.ndarray:
    """Density matrix of (1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ValueError("require d >= 2")
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + i] = 1 / math.sqrt(d)
    return np.outer(psi, psi.conj())


def make_singlet() -> np.ndarray:
    """Density matrix of (|01> - |10>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1 / math.sqrt(2)
    psi[2] = -1 / math.sqrt(2)
    return np.outer(psi, psi.conj())


def planar_qubit_projectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors (I +/- (sin(theta) X + cos(theta) Z)) / 2.

    The projector along the +Bloch direction is labeled outcome 0.
    """
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    n = math.sin(theta) * x + math.cos(theta) * z
    eye = np.eye(2, dtype=complex)
    return (eye + n) / 2, (eye - n) / 2


#: planar measurement angles (radians from the Z axis) for the singlet model
I3322_ALICE_ANGLES = (0.0, math.pi / 3, 2 * math.pi / 3)
I3322_BOB_ANGLES = (4 * math.pi / 3, 2 * math.pi / 3, math.pi)


def make_i3322_model() -> QuantumModel:
    """Singlet with three planar measurement directions per party."""
    alice = tuple(planar_qubit_projectors(t) for t in I3322_ALICE_ANGLES)
    bob = tuple(planar_qubit_projectors(t) for t in I3322_BOB_ANGLES)
    return QuantumModel(make_singlet(), alice, bob)


def make_i3322_rational_table() -> Behavior:
    """Published dyadic-rational table of the three-input two-outcome
    correlation used for exact protocol evaluation.

    This is a literal transcription, not derived from :func:`make_i3322_model`.
    The two agree entrywise except at the input pair (x, y) = (2, 1), where
    the published table has perfect correlation (p(0,0) = p(1,1) = 1/2) while
    the stated singlet angles force perfect anti-correlation; the table entry
    there is in fact not realizable by any quantum model (the perfect
    correlations at (0,2), (1,0) and (2,1) would force equal correlators at
    (1,1) and (2,0), which the table breaks).  The transcription keeps the
    published values, which are the ones the exact 6/7 success rests on.
    """
    p00 = (
        (Fraction(3, 8), Fraction(3, 8), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 8), Fraction(3, 8)),
        (Fraction(3, 8), Fraction(1, 2), Fraction(1, 8)),
    )
    return make_behavior(Scenario(3, 3, 2, 2), RATIONAL,
                         [[((p, Fraction(1, 2) - p), (Fraction(1, 2) - p, p)) for p in row] for row in p00])


#: cosecant-squared angle pattern of the optimal two-qutrit correlation,
#: keyed by measurement pair and (b - a) mod 3
_CGLMP_ANGLE = {
    (0, 0): (1, 5, 3),
    (0, 1): (1, 3, 5),
    (1, 0): (1, 3, 5),
    (1, 1): (3, 1, 5),
}


def make_cglmp_behavior() -> Behavior:
    """Closed-form two-qutrit correlation maximally violating the two-input
    three-outcome CGLMP functional.

    Entries are csc^2(k*pi/12)/54 for k in {1, 3, 5}, arranged by (b - a) mod 3
    per measurement pair; rows normalize exactly because
    csc^2(pi/12) + csc^2(pi/4) + csc^2(5pi/12) = 18.
    """
    eta = 1 / 54
    return make_behavior(Scenario(2, 2, 3, 3), FLOAT, [
        [[[eta / math.sin(_CGLMP_ANGLE[(x, y)][(b - a) % 3] * math.pi / 12) ** 2 for b in range(3)] for a in range(3)]
         for y in range(2)]
        for x in range(2)
    ])


def cglmp_assisted_success_closed_form() -> float:
    """Closed-form one-bit success of the adapted decoding protocol with the
    CGLMP correlation: (1 + csc^2(pi/4)/36 + csc^2(5pi/12)/18 + csc^2(pi/12)/6) / 4.
    """
    csc2 = lambda t: 1 / math.sin(t) ** 2
    return (1 + csc2(math.pi / 4) / 36 + csc2(5 * math.pi / 12) / 18 + csc2(math.pi / 12) / 6) / 4

