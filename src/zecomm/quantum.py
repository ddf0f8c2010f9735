"""Small-dimension quantum kernel: states and measurements to behaviors, plus
the two concrete entangled correlations used by the protocol evaluations.

A matrix is a tuple of complex rows, of dimension at most 16, and all
linear algebra is plain double-precision loops over them: Hermitian, trace
and completeness checks entry by entry, positive semidefiniteness as a
Cholesky pass, and Tr[(A kron B) rho] as an explicit index sum.  Behaviors
produced here are float mode; the dyadic singlet table additionally has an
exact-rational twin for zero-error bookkeeping.
"""

from __future__ import annotations

import itertools
import math

from .behaviors import Behavior, Scenario, make_behavior
from .numeric import FLOAT, RATIONAL, Frozen

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-10


class QuantumValidationError(ValueError):
    pass


def _as_matrix(m) -> tuple:
    """``m``, any square nested sequence of numbers (a numpy array included),
    as a tuple of complex rows."""
    try:
        rows = tuple(tuple(map(complex, row)) for row in m)
    except TypeError:  # not a sequence of sequences of numbers
        rows = ()
    d = len(rows)
    if not d or any(len(row) != d for row in rows):
        raise QuantumValidationError("expected a square matrix")
    if d > 16:
        raise QuantumValidationError("kernel limited to dimension 16")
    return rows


def _is_hermitian(m: tuple) -> bool:
    return all(abs(v - m[j][i].conjugate()) <= HERMITIAN_TOL for i, row in enumerate(m) for j, v in enumerate(row))


def _is_psd(m: tuple) -> bool:
    """Whether the Hermitian ``m`` plus ``PSD_TOL`` times the identity has a
    Cholesky factor, that is, in exact arithmetic, whether the smallest
    eigenvalue of ``m`` is at least ``-PSD_TOL``.

    Gaussian elimination keeps the lower triangle of the Schur complement;
    a PSD matrix has a positive pivot or, if the pivot is zero, a zero
    column below it.
    """
    d = len(m)
    a = [[m[i][j] + (PSD_TOL if i == j else 0.0) for j in range(i + 1)] for i in range(d)]
    for k in range(d):
        pivot = a[k][k].real
        column = [a[i][k] for i in range(k + 1, d)]
        if pivot <= 0:
            if pivot < 0 or any(column):
                return False
            continue
        for i, aik in enumerate(column, k + 1):
            f = aik / pivot
            row = a[i]
            for j in range(k + 1, i + 1):
                row[j] -= f * a[j][k].conjugate()
    return True


def check_density_matrix(rho) -> tuple:
    rho = _as_matrix(rho)
    if not _is_hermitian(rho):
        raise QuantumValidationError("state is not Hermitian")
    if abs(sum(rho[i][i] for i in range(len(rho))).real - 1.0) > HERMITIAN_TOL:
        raise QuantumValidationError("state trace is not 1")
    if not _is_psd(rho):
        raise QuantumValidationError("state is not positive semidefinite")
    return rho


def check_measurement(elements) -> tuple:
    mats = tuple(_as_matrix(e) for e in elements)
    d = len(mats[0])
    for e in mats:
        if len(e) != d:
            raise QuantumValidationError("measurement elements of mixed dimension")
        if not _is_hermitian(e):
            raise QuantumValidationError("measurement element is not Hermitian")
        if not _is_psd(e):
            raise QuantumValidationError("measurement element is not PSD")
    if any(abs(sum(e[i][j] for e in mats) - (i == j)) > COMPLETENESS_TOL for i in range(d) for j in range(d)):
        raise QuantumValidationError("measurement elements do not sum to identity")
    return mats


class QuantumModel(Frozen):
    """Bipartite state with per-input measurement collections for each party,
    each matrix stored as a tuple of complex rows once it is validated."""

    _fields = ("state", "alice_meas", "bob_meas")

    def __init__(self, state: tuple, alice_meas: tuple, bob_meas: tuple):
        object.__setattr__(self, "state", check_density_matrix(state))  # density matrix on d_A * d_B
        object.__setattr__(self, "alice_meas", tuple(map(check_measurement, alice_meas)))  # alice_meas[x][a] on d_A
        object.__setattr__(self, "bob_meas", tuple(map(check_measurement, bob_meas)))  # bob_meas[y][b] on d_B
        da = len(self.alice_meas[0][0])
        db = len(self.bob_meas[0][0])
        if len(self.state) != da * db:
            raise QuantumValidationError("state dimension does not factor over the parties")

    @property
    def scenario(self) -> Scenario:
        return Scenario(
            len(self.alice_meas), len(self.bob_meas), len(self.alice_meas[0]), len(self.bob_meas[0])
        )


def behavior_from_quantum(q: QuantumModel) -> Behavior:
    """p(a,b|x,y) = Re Tr[(A_x^a kron B_y^b) rho], float mode.

    Row (i, k) of the Kronecker product is i * d_B + k, so the trace is the
    sum over (i, k) and (j, l) of A[i][j] B[k][l] rho[(j, l)][(i, k)].
    """
    s = q.scenario
    rho = q.state
    da, db = len(q.alice_meas[0][0]), len(q.bob_meas[0][0])
    ik = [(i, k, i * db + k) for i in range(da) for k in range(db)]
    table = [[[[0.0] * s.b_card for _ in range(s.a_card)] for _ in range(s.y_card)] for _ in range(s.x_card)]
    for x, y, a, b in itertools.product(range(s.x_card), range(s.y_card), range(s.a_card), range(s.b_card)):
        am, bm = q.alice_meas[x][a], q.bob_meas[y][b]
        value = sum(am[i][j] * bm[k][l] * rho[c][r] for i, k, r in ik for j, l, c in ik)
        if abs(value.imag) > PSD_TOL:
            raise QuantumValidationError(f"non-real probability at ({x},{y},{a},{b})")
        table[x][y][a][b] = value.real
    return make_behavior(s, FLOAT, table)


def make_singlet() -> tuple:
    """Density matrix of (|01> - |10>)/sqrt(2)."""
    psi = (0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)
    return tuple(tuple(complex(u * v) for v in psi) for u in psi)


def planar_qubit_projectors(theta: float) -> tuple[tuple, tuple]:
    """Rank-1 projectors (I +/- (sin(theta) X + cos(theta) Z)) / 2.

    The projector along the +Bloch direction is labeled outcome 0.
    """
    c, s = math.cos(theta), math.sin(theta)
    return (
        ((complex((1 + c) / 2), complex(s / 2)), (complex(s / 2), complex((1 - c) / 2))),
        ((complex((1 - c) / 2), complex(-s / 2)), (complex(-s / 2), complex((1 + c) / 2))),
    )


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
    p00 = ((3, 3, 4), (4, 1, 3), (3, 4, 1))  # numerators of p(0,0|x,y) = p(1,1|x,y) over 8
    return Behavior(Scenario(3, 3, 2, 2), RATIONAL, [[((p, 4 - p), (4 - p, p)) for p in row] for row in p00], 8)


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

