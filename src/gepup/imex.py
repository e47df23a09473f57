"""Additive Runge-Kutta (ERK/ESDIRK) time integration for the projection scheme.

The diffusion term is integrated by the ESDIRK half of the pair, everything
else (convection, pressure gradient, forcing) by the ERK half.  Both halves
share the weights b and abscissae c; the ESDIRK half is stiffly accurate
(b equals its last row), so the end-of-step correction only involves the
explicit loads.

Tableau coefficients are shipped as exact rationals with a SHA-256 checksum
over their canonical form (the order and the two tables), and everything
else is derived from them: c as the exact row sums of the explicit table,
b as the last implicit row (stiff accuracy) and gamma as its last diagonal
entry; ``load_tableau`` refuses corrupted data and
``validate_tableau`` re-derives the structural and order conditions.  The
checksum stays although the constants sit next to it: ``validate_tableau``
checks the order conditions only through order 3, and the full set of
additive order conditions through order 5 is checked only by the test
suite, so while the program runs the checksum is the one guard of the
order-4 and order-5 coefficients.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction as _F

import numpy as np

from .linsolve import SolverError
from .operators import CaseDefinition, GepupOperators, GepupState

__all__ = [
    "ButcherTableau",
    "StepperConfig",
    "load_tableau",
    "validate_tableau",
    "advance_step",
    "courant_dt",
    "TABLEAU_IDS",
]


@dataclass(frozen=True)
class ButcherTableau:
    """Paired explicit/implicit coefficients of an ERK-ESDIRK method."""

    name: str
    order: int
    n_stages: int
    a_explicit: np.ndarray
    a_implicit: np.ndarray
    b: np.ndarray
    c: np.ndarray
    gamma: float


# Six-stage, fourth-order ERK-ESDIRK pair; L-stable, stiffly accurate,
# gamma = 1/4 (Kennedy & Carpenter, Appl. Numer. Math. 44, 2003).
_ARK4_EXPLICIT = (
    (),
    (_F(1, 2),),
    (_F(13861, 62500), _F(6889, 62500)),
    (
        _F(-116923316275, 2393684061468),
        _F(-2731218467317, 15368042101831),
        _F(9408046702089, 11113171139209),
    ),
    (
        _F(-451086348788, 2902428689909),
        _F(-2682348792572, 7519795681897),
        _F(12662868775082, 11960479115383),
        _F(3355817975965, 11060851509271),
    ),
    (
        _F(647845179188, 3216320057751),
        _F(73281519250, 8382639484533),
        _F(552539513391, 3454668386233),
        _F(3354512671639, 8306763924573),
        _F(4040, 17871),
    ),
)
_ARK4_IMPLICIT = (
    (),
    (_F(1, 4), _F(1, 4)),
    (_F(8611, 62500), _F(-1743, 31250), _F(1, 4)),
    (_F(5012029, 34652500), _F(-654441, 2922500), _F(174375, 388108), _F(1, 4)),
    (
        _F(15267082809, 155376265600),
        _F(-71443401, 120774400),
        _F(730878875, 902184768),
        _F(2285395, 8070912),
        _F(1, 4),
    ),
    (
        _F(82889, 524892),
        _F(0),
        _F(15625, 83664),
        _F(69875, 102672),
        _F(-2260, 8211),
        _F(1, 4),
    ),
)

# Eight-stage, fifth-order ERK-ESDIRK pair; L-stable, stiffly accurate,
# gamma = 41/200 (Kennedy & Carpenter, Appl. Numer. Math. 44, 2003).
_ARK5_EXPLICIT = (
    (),
    (_F(41, 100),),
    (_F(367902744464, 2072280473677), _F(677623207551, 8224143866563)),
    (_F(1268023523408, 10340822734521), _F(0), _F(1029933939417, 13636558850479)),
    (
        _F(14463281900351, 6315353703477),
        _F(0),
        _F(66114435211212, 5879490589093),
        _F(-54053170152839, 4284798021562),
    ),
    (
        _F(14090043504691, 34967701212078),
        _F(0),
        _F(15191511035443, 11219624916014),
        _F(-18461159152457, 12425892160975),
        _F(-281667163811, 9011619295870),
    ),
    (
        _F(19230459214898, 13134317526959),
        _F(0),
        _F(21275331358303, 2942455364971),
        _F(-38145345988419, 4862620318723),
        _F(-1, 8),
        _F(-1, 8),
    ),
    (
        _F(-19977161125411, 11928030595625),
        _F(0),
        _F(-40795976796054, 6384907823539),
        _F(177454434618887, 12078138498510),
        _F(782672205425, 8267701900261),
        _F(-69563011059811, 9646580694205),
        _F(7356628210526, 4942186776405),
    ),
)
_ARK5_IMPLICIT = (
    (),
    (_F(41, 200), _F(41, 200)),
    (_F(41, 400), _F(-567603406766, 11931857230679), _F(41, 200)),
    (_F(683785636431, 9252920307686), _F(0), _F(-110385047103, 1367015193373), _F(41, 200)),
    (
        _F(3016520224154, 10081342136671),
        _F(0),
        _F(30586259806659, 12414158314087),
        _F(-22760509404356, 11113319521817),
        _F(41, 200),
    ),
    (
        _F(218866479029, 1489978393911),
        _F(0),
        _F(638256894668, 5436446318841),
        _F(-1179710474555, 5321154724896),
        _F(-60928119172, 8023461067671),
        _F(41, 200),
    ),
    (
        _F(1020004230633, 5715676835656),
        _F(0),
        _F(25762820946817, 25263940353407),
        _F(-2161375909145, 9755907335909),
        _F(-211217309593, 5846859502534),
        _F(-4269925059573, 7827059040749),
        _F(41, 200),
    ),
    (
        _F(-872700587467, 9133579230613),
        _F(0),
        _F(0),
        _F(22348218063261, 9555858737531),
        _F(-1143369518992, 8141816002931),
        _F(-39379526789629, 19018526304540),
        _F(32727382324388, 42900044865799),
        _F(41, 200),
    ),
)

_TABLEAU_DATA = {
    "ark4": {
        "order": 4,
        "explicit": _ARK4_EXPLICIT,
        "implicit": _ARK4_IMPLICIT,
        "sha256": "d2af7423e62c0a7de40cad2a7577d017ee9b8cbaa3c04a95fe37735a18e22844",
    },
    "ark5": {
        "order": 5,
        "explicit": _ARK5_EXPLICIT,
        "implicit": _ARK5_IMPLICIT,
        "sha256": "67a4831169f302f9f23533e1c9ef3e18fa8eb563fef36b0d73d7d8ed19535c72",
    },
}

TABLEAU_IDS = tuple(sorted(_TABLEAU_DATA))


def _canonical_digest(data: dict) -> str:
    parts = [str(data["order"])]
    for key in ("explicit", "implicit"):
        for row in data[key]:
            parts.append(",".join(f"{f.numerator}/{f.denominator}" for f in row))
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


def _to_square(rows, n) -> np.ndarray:
    A = np.zeros((n, n))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            A[i, j] = float(v)
    return A


def load_tableau(name: str) -> ButcherTableau:
    """Tableau by one of ``TABLEAU_IDS``; verifies the data checksum and the order conditions."""
    if name not in _TABLEAU_DATA:
        raise ValueError(f"unknown tableau {name!r}; available: {', '.join(TABLEAU_IDS)}")
    data = _TABLEAU_DATA[name]
    digest = _canonical_digest(data)
    if digest != data["sha256"]:
        raise ValueError(f"tableau {name!r} failed its checksum: {digest}")
    n = len(data["implicit"])
    AE = _to_square(data["explicit"], n)
    AI = _to_square(data["implicit"], n)
    c = np.array([float(sum(row)) for row in data["explicit"]])  # exact row sums, rounded once
    tab = ButcherTableau(
        name=name,
        order=data["order"],
        n_stages=n,
        a_explicit=AE,
        a_implicit=AI,
        b=AI[-1].copy(),  # stiffly accurate
        c=c,
        gamma=float(AI[-1, -1]),
    )
    problems = validate_tableau(tab)
    if problems:
        raise ValueError(f"tableau {name!r} failed validation: {problems}")
    return tab


TABLEAU_TOL = 1e-13  # largest deviation of a tableau entry or order condition from its exact value


def validate_tableau(tab: ButcherTableau) -> list[str]:
    """Structural, stiff-accuracy and order checks; returns violations (never raises)."""
    out = []
    n = tab.n_stages
    AE, AI, b, c = tab.a_explicit, tab.a_implicit, tab.b, tab.c

    if n < 2:
        out.append("ESDIRK structure needs at least 2 stages (explicit first stage plus implicit ones)")
        return out
    if abs(c[0]) > TABLEAU_TOL:
        out.append(f"c[0] = {c[0]:.2e} != 0")
    if np.any(np.abs(np.triu(AE)) > TABLEAU_TOL):
        out.append("explicit table is not strictly lower triangular")
    if np.any(np.abs(np.triu(AI, 1)) > TABLEAU_TOL):
        out.append("implicit table is not lower triangular")
    if np.any(np.abs(AI[0, :]) > TABLEAU_TOL):
        out.append("implicit table must have a zero first row (explicit first stage)")
    diag = np.diag(AI)[1:]
    if np.any(np.abs(diag - tab.gamma) > TABLEAU_TOL):
        out.append("implicit diagonal is not the constant gamma from stage 2 on")
    for tag, A in (("explicit", AE), ("implicit", AI)):
        err = np.abs(A.sum(axis=1) - c).max()
        if err > TABLEAU_TOL:
            out.append(f"{tag} row sums differ from c by {err:.2e}")
    if np.abs(b - AI[-1, :]).max() > TABLEAU_TOL:
        out.append("not stiffly accurate: b differs from the last implicit row")

    def check(value, target, label):
        if abs(value - target) > TABLEAU_TOL:
            out.append(f"{label}: {value - target:+.2e} off")

    check(b.sum(), 1.0, "sum(b) = 1")
    check(float(b @ c), 0.5, "sum(b c) = 1/2")
    if tab.order >= 3:
        check(float(b @ c**2), 1.0 / 3.0, "sum(b c^2) = 1/3")
        for tag, A in (("explicit", AE), ("implicit", AI)):
            check(float(b @ (A @ c)), 1.0 / 6.0, f"sum(b A{tag[0]} c) = 1/6")
    return out


@dataclass
class StepperConfig:
    """Time-integration settings: tableau id, Courant number, largest step.

    Every linear solve is direct, and its normwise backward error
    ||b - K x|| / (||b|| + ||K|| ||x||) must not exceed the fixed
    ``linsolve.REL_TOL``; a solve above it, or with a NaN or infinite
    result, raises SolverError.
    """

    tableau: str = "ark4"
    courant: float = 0.8
    dt_max: float = 1.0

    def __post_init__(self):
        if not 0 < self.courant < math.inf:
            raise ValueError(f"courant: the Courant number must be positive and finite, got {self.courant}")
        if not self.dt_max > 0:
            raise ValueError(f"dt_max: must be positive, got {self.dt_max}")


SPEED_FLOOR = 1e-12  # below this sampled speed the flow counts as at rest


def courant_dt(space, speed_sq: float, courant: float, dt_max: float) -> float:
    """Convection-limited step size from the largest speed squared.

    ``run_simulation`` passes the larger of the state's
    ``GepupState.speed_sq`` (the largest Euclidean velocity magnitude
    squared at the support points and the volume quadrature points) and the
    largest |g|^2 of the wall data on the boundary ring at the step's start,
    so that walls that set a resting flow in motion bound its first step.
    The element size is max(hx, hy).  Returns dt_max when the flow and its
    walls are essentially at rest.
    """
    umax = np.sqrt(speed_sq)
    if umax < SPEED_FLOOR:
        return dt_max
    return min(courant * space.h_max / (space.degree * umax), dt_max)


def advance_step(
    state: GepupState,
    dt: float,
    tableau: ButcherTableau,
    case: CaseDefinition,
    ops: GepupOperators,
) -> GepupState:
    """One ERK-ESDIRK step of the fully discrete scheme.

    Stage s solves (M + nu dt gamma A) W_d = M W^n_d + dt sum_j aE[s,j] F_j
    - nu dt sum_j aI[s,j] (A W_j) with the boundary rows pinned to g at the
    stage time (one ``momentum_operator`` for the step's dt serves every
    stage), then runs the potential/velocity/pressure chain at that
    time.  The end-of-step update projects the explicitly corrected field
    and replaces W with the projected velocity.  Every stage's explicit
    load F_s comes from the ``pressure`` call of its projected velocity;
    the first stage's is the one ``state`` carries, and the end-of-step
    state (``GepupOperators.state_at``) forms the next state's.  M W_d and
    A W_d come from the ``XPass`` the momentum solve returns (for W^n, from
    one pass at the start).  No stage's F_j or A W_j is kept: per
    component, one (n, N) array holds the right-hand sides of stages
    1..n-1 and the end-of-step load, each a running sum that starts from
    M W^n (the end-of-step load from zero, M W_{n-1} added last), and
    stage j's terms are added into the rows of the later targets, in place
    (each weighted term formed in one step-owned work vector, zero weights
    skipped), as soon as they are known.  A
    SolverError leaves with the stage (or the end-of-step projection) and
    its time.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = tableau.n_stages
    AE, AI, b, c = tableau.a_explicit, tableau.a_implicit, tableau.b, tableau.c
    nu = case.nu
    momentum = ops.momentum_operator(nu * dt * tableau.gamma)

    t0 = state.t
    t1 = t0 + dt
    # row r of a component's sums is the right-hand side of stage r + 1, the
    # last row the end-of-step load; column j of a weight table weights the
    # stage-j term in each row, and only rows j..n-1 take stage j's terms
    weights_F = dt * np.vstack([AE[1:], b - AE[n - 1]])
    weights_AW = -nu * dt * np.vstack([AI[1:], np.zeros(n)])
    sums = np.empty((2, n, ops.space.n_dofs))
    work = np.empty(ops.space.n_dofs)

    def add(j, weights, terms):
        for d in range(2):
            for r in range(j, n):
                if weights[r, j] != 0.0:
                    sums[d, r] += np.multiply(terms[d], weights[r, j], out=work)

    phase, t_phase = "stage 0", t0
    try:
        W = [ops.x_pass(w) for w in state.W]
        for d in range(2):
            sums[d, : n - 1] = W[d].mass
        sums[:, n - 1] = 0.0
        add(0, weights_AW, [w.stiffness for w in W])
        del W
        add(0, weights_F, state.F)

        for s in range(1, n):
            ts = t0 + c[s] * dt
            phase, t_phase = f"stage {s}", ts
            gb = ops.boundary_values(case, ts)
            W = [momentum.solve(sums[d, s - 1], gb[d]) for d in range(2)]
            add(s, weights_AW, [w.stiffness for w in W])
            U_s, _ = ops.leray_project(W, case, ts)
            MW_s = [w.mass for w in W]
            # a pass holds several fields: drop the passes of W_s and W* once read
            del W
            add(s, weights_F, ops.pressure(U_s, case, ts, False)[1])

        phase, t_phase = "end-of-step projection", t1
        W_star = []
        for d in range(2):
            sums[d, n - 1] += MW_s[d]
            W_star.append(ops.solve_mass(sums[d, n - 1]))
        U1, Phi1 = ops.leray_project(W_star, case, t1)
        del W_star
        state1 = ops.state_at(t1, U1, Phi1, case)
        if not all(np.all(np.isfinite(u)) for u in U1):
            raise SolverError("non-finite velocity")
    except SolverError as exc:
        exc.phase, exc.t = phase, t_phase
        raise
    return state1
