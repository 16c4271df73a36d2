"""Finite-difference PDE systems with built-in sigma decompositions.

Each generator returns the linear system of a discretized 1D PDE together
with a sigma decomposition obtained from the recursive block structure of
the matrix, so the term count grows with the logarithm of the grid sizes
instead of the grid sizes themselves:

* Poisson (Dirichlet):  tridiagonal (2, -1) stencil, 2I minus the
  increment operator |i+1><i| and its transpose: 2s + 1 terms for
  n_x = 2**s grid points.
* Heat (Robin/Neumann): implicit Euler in time over a diffusion stencil,
  at most (t + 1) + (4s + 6) terms for n_t = 2**t time steps.
* Wave (Neumann):       first-order system on a doubled spatial register,
  at most (t + 1) + 2(2(s + 1) + 4) terms.

Grids use n_x = 2**s points with spacing dx = length / n_x (Poisson:
dx = length / (n_x + 1)) and n_t = 2**t time levels with dt = T / (n_t - 1).
Registers order time qubits first (most significant), then space.

The returned matrix is the exact reconstruction of the decomposition; with
integer-scaled physical parameters (the defaults) it also equals the
directly assembled difference operator entry for entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrices import SparseMatrix
from .sigma import Decomposition, SigmaFactor, SigmaTerm, reconstruct

I = SigmaFactor.IDENT
P = SigmaFactor.SPLUS
M = SigmaFactor.SMINUS
A = SigmaFactor.SPSM
B = SigmaFactor.SMSP


@dataclass(frozen=True)
class PdeSystem:
    """Linear system A u = b with a sigma decomposition of A.

    ``rhs`` is None when the forcing term is unspecified (Poisson without
    a source function).  ``reconstruct(decomposition)`` equals ``matrix``
    exactly, and the term count never exceeds ``predicted_term_count``.
    """

    matrix: SparseMatrix
    rhs: Optional[np.ndarray]
    decomposition: Decomposition
    predicted_term_count: int


def _require_positive(params: dict[str, Optional[float]]) -> None:
    """Refuse, by name, each given parameter that is not positive and finite."""
    for name, value in params.items():
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class HeatParams:
    """Discretization and material parameters for the heat system.

    ``robin_w1`` and ``robin_w2`` weigh the boundary condition
    w1 * u + w2 * du/dx = flux; (0, 1) is Neumann, w2 = 0 is Dirichlet.
    """

    s: int
    t: int
    alpha: float = 1.0
    length: Optional[float] = None  # default: n_x, giving dx = 1
    T: Optional[float] = None  # default: n_t - 1, giving dt = 1
    q_flux: float = 1.0
    k_cond: float = 1.0
    robin_w1: float = 0.0
    robin_w2: float = 1.0

    def __post_init__(self) -> None:
        if self.s < 1 or self.t < 1:
            raise ValueError("s and t must be >= 1")
        _require_positive(
            {"alpha": self.alpha, "k_cond": self.k_cond, "length": self.length, "final time T": self.T}
        )
        for name, w in (("robin_w1", self.robin_w1), ("robin_w2", self.robin_w2)):
            if not math.isfinite(w):
                raise ValueError(f"{name} must be finite, got {w}")
        if self.robin_w1 == 0 and self.robin_w2 == 0:
            raise ValueError("robin weights cannot both be zero")
        denominator = self.robin_w1 * self.dx + self.robin_w2
        if denominator == 0:
            raise ValueError("robin weights give w1 * dx + w2 = 0, dividing the corner value by zero")
        if not math.isfinite(denominator):  # the corner value would read 0
            raise ValueError(f"robin weights give w1 * dx + w2 = {denominator}, outside floating-point range")

    @property
    def n_x(self) -> int:
        return 1 << self.s

    @property
    def n_t(self) -> int:
        return 1 << self.t

    @property
    def dx(self) -> float:
        length = self.length if self.length is not None else float(self.n_x)
        return length / self.n_x

    @property
    def dt(self) -> float:
        final = self.T if self.T is not None else float(self.n_t - 1)
        return final / (self.n_t - 1)

    @property
    def corner_value(self) -> float:
        """Boundary correction added at both diagonal corners of the
        diffusion stencil: w2 / (w1 * dx + w2)."""
        return self.robin_w2 / (self.robin_w1 * self.dx + self.robin_w2)


def _increment(n: int) -> list[str]:
    """Factor strings of the +1 shift |i+1><i| on n qubits, one per bit k
    that rises (s-) while every lower bit falls (s+)."""
    return [I * k + M + P * (n - 1 - k) for k in range(n)]


def _poisson_terms(s: int) -> list[SigmaTerm]:
    """Terms of the (2, -1) tridiagonal operator on 2**s points: 2I minus
    the increment operator and minus its transpose."""
    shift = _increment(s)
    transpose = str.maketrans("PM", "MP")
    return [
        SigmaTerm(2.0, I * s),
        *(SigmaTerm(-1.0, f) for f in shift),
        *(SigmaTerm(-1.0, f.translate(transpose)) for f in shift),
    ]


def poisson_1d(s: int) -> PdeSystem:
    """Dirichlet Poisson system on n_x = 2**s interior grid points.

    The matrix is tridiagonal with 2 on the diagonal and -1 off it; the
    decomposition has exactly 2s + 1 terms.  No right-hand side is
    attached since the source samples are left unspecified.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    decomposition = Decomposition.build(s, _poisson_terms(s))
    return PdeSystem(
        matrix=reconstruct(decomposition),
        rhs=None,
        decomposition=decomposition,
        predicted_term_count=2 * s + 1,
    )


def ode_extended_a1(t: int, s: int) -> Decomposition:
    """Time-stepping block of an extended Euler system.

    Block-bidiagonal matrix with identity blocks of size 2**s on the
    diagonal and negated identities on the subdiagonal, over 2**t blocks:
    I minus the time register's increment operator, times I on space;
    exactly t + 1 terms.
    """
    if t < 1 or s < 0:
        raise ValueError("need t >= 1 and s >= 0")
    return _time_stepped(t, s, [], 0.0)


def _time_stepped(t: int, s: int, spatial_terms: list[SigmaTerm], scale: float) -> Decomposition:
    """The time-stepping block of :func:`ode_extended_a1` plus the spatial
    terms on s qubits, scaled and lifted onto all time blocks except the
    first: identity prefix minus the all-|0><0| prefix selecting block zero."""
    terms = [SigmaTerm(1.0, I * (t + s)), *(SigmaTerm(-1.0, f + I * s) for f in _increment(t))]
    for term in spatial_terms:
        terms.append(SigmaTerm(scale * term.coeff, I * t + term.factors))
        terms.append(SigmaTerm(-(scale * term.coeff), A * t + term.factors))
    return Decomposition.build(t + s, terms)


def _diffusion_terms(s: int, corner: float) -> list[SigmaTerm]:
    """Terms of the diffusion stencil: negated Poisson stencil plus the
    two corner projectors scaled by the boundary correction."""
    terms = [SigmaTerm(-t.coeff, t.factors) for t in _poisson_terms(s)]
    if corner != 0.0:
        terms.append(SigmaTerm(corner, A * s))
        terms.append(SigmaTerm(corner, B * s))
    return terms


def _square(name: str, x: float) -> float:
    """x**2, refused unless it is positive and finite: a tiny grid spacing
    would otherwise divide by zero, and a huge one or a huge wave speed
    overflow."""
    try:
        square = x**2
    except OverflowError:
        square = math.inf
    if not 0 < square < math.inf:
        raise ValueError(f"{name} = {x} squares to {square}, outside floating-point range")
    return square


def heat_1d(p: HeatParams) -> PdeSystem:
    """Implicit-Euler heat system over n_t * n_x unknowns.

    The matrix couples the time-stepping block with the diffusion stencil
    scaled by alpha * dt / dx**2; the right-hand side carries the initial
    condition (all ones) followed by the boundary-flux forcing
    q * dt / (k * dx) in the first component of every later block.
    """
    s, t = p.s, p.t
    gamma = p.alpha * p.dt / _square("grid spacing dx", p.dx)
    decomposition = _time_stepped(t, s, _diffusion_terms(s, p.corner_value), -gamma)

    conduction = p.k_cond * p.dx  # positive unless the product underflows
    flux = p.q_flux * p.dt / conduction if conduction else math.inf
    if not math.isfinite(flux):
        raise ValueError(f"boundary flux q * dt / (k * dx) = {flux} is not finite")
    matrix = reconstruct(decomposition)  # refuses a register too wide before rhs is allocated
    rhs = np.zeros(p.n_t * p.n_x, dtype=complex)
    rhs[: p.n_x] = 1.0
    rhs[p.n_x :: p.n_x] = flux

    predicted = (t + 1) + (4 * s + 6)
    return PdeSystem(matrix, rhs, decomposition, predicted)


def wave_1d(
    s: int, t: int, c: float = 1.0, length: Optional[float] = None, T: Optional[float] = None
) -> PdeSystem:
    """Explicit-Euler wave system on a doubled spatial register.

    The first-order form stacks displacement and velocity, so space takes
    s + 1 qubits; the off-diagonal generator couples velocity to the
    Neumann diffusion stencil scaled by c**2 / dx**2.  The right-hand side
    holds the all-ones initial state in the first time block.
    """
    grid = HeatParams(s, t, length=length, T=T)  # checks s, t, length and T; gives dx and dt
    _require_positive({"wave speed c": c})
    speed = _square("wave speed c", c) / _square("grid spacing dx", grid.dx)
    generator = [
        SigmaTerm(speed * term.coeff, M + term.factors)
        for term in _diffusion_terms(s, corner=1.0)
    ]
    generator.append(SigmaTerm(1.0, P + I * s))

    decomposition = _time_stepped(t, s + 1, generator, -grid.dt)
    matrix = reconstruct(decomposition)

    rhs = np.zeros(grid.n_t * 2 * grid.n_x, dtype=complex)
    rhs[: 2 * grid.n_x] = 1.0

    predicted = (t + 1) + 2 * (2 * (s + 1) + 4)
    return PdeSystem(matrix, rhs, decomposition, predicted)
