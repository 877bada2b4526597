"""Hamiltonian builders: driven collective-spin (LMG-type) model and variants.

Everything is expressed in units of the resonator frequency (nu = 1): energies
and rates in nu, times in 1/nu.  The driven-spin effective Hamiltonian is

    H = alpha * (epsilon * beta1 * beta2 * J_z + beta1^2 * J_x^2 + beta2^2 * J_y^2)

with alpha = 2 eta^2 delta / (delta^2 - 1), epsilon = 2 / (alpha * delta),
beta1 = omega1 - omega2 and beta2 = omega1 + omega2.  Builders evaluate the
J_z coefficient through the identity alpha * epsilon == 2 / delta; at
alpha == 0 (zero coupling) the collective model is taken as absent and every
term vanishes.

Special drive patterns reduce this to the exactly solvable forms:
omega2 = 0 gives the isotropic model alpha*beta^2*(epsilon J_z + J² - J_z²),
omega1 = omega2 the one-axis form alpha*beta2^2*J_y², and omega1 = -omega2
its x-axis twin.  alpha < 0 is the ferromagnetic (FI) regime, alpha > 0 the
antiferromagnetic (AFI) one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DimensionMismatchError, ResonantDetuningError, ValidationError
from .operators import (
    FockSpace,
    SpinRegister,
    boson_operator,
    collective_operator,
    embed_single_spin,
)

RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Raw drive inputs plus the derived coefficients of the collective model."""

    eta: float
    delta: float
    omega1: float
    omega2: float
    alpha: float
    epsilon: float
    beta1: float
    beta2: float

    @property
    def jz_coefficient(self) -> float:
        """alpha * epsilon * beta1 * beta2, via alpha * epsilon == 2 / delta.

        At alpha == 0 (zero coupling) the stored epsilon is infinite and the
        whole collective model is taken as absent, so the product is zero
        rather than the finite drive-shift limit.
        """
        if self.alpha == 0.0:
            return 0.0
        return 2.0 * self.beta1 * self.beta2 / self.delta


def effective_coefficients(eta: float, delta: float, omega1: float, omega2: float) -> EffectiveCoefficients:
    """Evaluate the effective coefficients for given coupling, detuning and drives.

    ``delta`` is signed; its sign selects the interaction regime through
    sign(alpha) = sign(delta * (delta^2 - 1)).  Raises
    :class:`ResonantDetuningError` when |delta| = 1 within tolerance.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if abs(abs(delta) - 1.0) <= RESONANCE_TOL:
        raise ResonantDetuningError(
            f"|delta| = {abs(delta)} is resonant with the mechanical mode"
        )
    alpha = 2.0 * eta**2 * delta / (delta**2 - 1.0)
    if alpha != 0.0:
        epsilon = 2.0 / (alpha * delta)
    else:
        # limiting sign as eta -> 0: sign(epsilon) = sign(delta^2 - 1)
        epsilon = math.copysign(math.inf, delta**2 - 1.0)
    return EffectiveCoefficients(
        eta=eta,
        delta=delta,
        omega1=omega1,
        omega2=omega2,
        alpha=alpha,
        epsilon=epsilon,
        beta1=omega1 - omega2,
        beta2=omega1 + omega2,
    )


@dataclass(frozen=True)
class DisorderProfile:
    """Per-spin coupling deviations delta_lambda_j expressed as fractions of lambda.

    The deviations generate the Ising term -sum_j M_j sigma_z^j J_z with
    M_j = eta * delta_lambda_j / 4 = fractions_j * eta^2 / 4 (nu units,
    since lambda = eta * nu).
    """

    fractions: tuple
    eta: float
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        if any(abs(f) > 0.5 for f in self.fractions):
            raise ValueError(
                f"|delta lambda_j|/lambda must be <= 0.5, got {self.fractions}"
            )
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")

    @property
    def n_spins(self) -> int:
        return len(self.fractions)

    def ising_coefficients(self) -> np.ndarray:
        """M_j in nu units."""
        return np.asarray(self.fractions) * self.eta**2 / 4.0


@functools.lru_cache(maxsize=2)
def _collective_products(n_spins: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_z, J_x^2 and J_y^2 of an n-spin register, built once and read-only.

    Every sweep Hamiltonian of a register (one per ensemble member) shares
    them.  Two registers are kept: at N = 10 the three matrices take 48 MB.
    """
    reg = SpinRegister(n_spins)
    jz, jx, jy = (collective_operator(reg, which) for which in "zxy")
    products = (jz, jx @ jx, jy @ jy)
    for product in products:
        product.flags.writeable = False
    return products


@functools.lru_cache(maxsize=2)
def _ising_diagonals(n_spins: int) -> np.ndarray:
    """(N, 2^N) read-only diagonals of sigma_z^j J_z, j = 1..N."""
    reg = SpinRegister(n_spins)
    jz = collective_operator(reg, "z").diagonal().real
    diagonals = np.stack([embed_single_spin(reg, j, "z").diagonal().real * jz
                          for j in range(1, n_spins + 1)])
    diagonals.flags.writeable = False
    return diagonals


def build_disorder_term(reg: SpinRegister, profile: DisorderProfile) -> np.ndarray:
    """Disorder Hamiltonian -sum_j M_j sigma_z^j J_z (diagonal in the z basis)."""
    if profile.n_spins != reg.n_spins:
        raise DimensionMismatchError(
            f"profile has {profile.n_spins} entries for a register of {reg.n_spins} spins"
        )
    diagonal = np.zeros(reg.dim)
    for m_j, ising in zip(profile.ising_coefficients(), _ising_diagonals(reg.n_spins)):
        diagonal -= m_j * ising
    return np.diag(diagonal).astype(np.complex128)


@dataclass(frozen=True)
class LinearHamiltonian:
    """H(t) = sum_k coefficients(t)[k] * terms[k] with Hermitian terms and real coefficients.

    This is the representation the integrator kernels consume: the constant
    term stack is combined with a coefficient table tabulated once on the
    half-step grid, so no Python callable runs inside the step loop.  The
    kernels build the Hamiltonians of many steps with one matrix product,
    and the master-equation kernel keeps them real when every term is real
    (as the LMG terms are in the z basis), so the series of its step
    exponentials is summed in real arithmetic too.
    """

    terms: np.ndarray  # (K, d, d) complex128, each Hermitian
    coefficients: Callable[[np.ndarray], np.ndarray]  # (T,) times -> (T, K) float64

    @property
    def dim(self) -> int:
        return self.terms.shape[1]

    def coefficient_table(self, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        table = np.asarray(self.coefficients(times), dtype=np.float64)
        if table.shape != (times.size, self.terms.shape[0]):
            raise DimensionMismatchError(
                f"coefficient table shape {table.shape} does not match "
                f"{(times.size, self.terms.shape[0])}"
            )
        return table

    def matrix(self, t: float) -> np.ndarray:
        c = self.coefficient_table(np.array([float(t)]))[0]
        return np.einsum("k,kij->ij", c, self.terms)


def build_effective_lmg(reg: SpinRegister, c: EffectiveCoefficients) -> np.ndarray:
    """Collective-spin Hamiltonian for one set of effective coefficients."""
    jz, jx2, jy2 = _collective_products(reg.n_spins)
    return c.jz_coefficient * jz + (c.alpha * c.beta1**2) * jx2 + (c.alpha * c.beta2**2) * jy2


def lmg_sweep_hamiltonian(
    reg: SpinRegister,
    eta: float,
    delta: float,
    omega1: Callable[[np.ndarray], np.ndarray],
    omega2: Callable[[np.ndarray], np.ndarray],
    disorder: Optional[DisorderProfile] = None,
) -> LinearHamiltonian:
    """Time-dependent collective Hamiltonian for drive envelopes omega1/2(t).

    The static checks (resonance, eta >= 0) run once up front; the returned
    object evaluates only the drive-dependent coefficients per time.
    """
    base = effective_coefficients(eta, delta, 0.0, 0.0)
    alpha = base.alpha
    term_list = list(_collective_products(reg.n_spins))
    has_disorder = disorder is not None
    if has_disorder:
        term_list.append(build_disorder_term(reg, disorder))
    terms = np.ascontiguousarray(np.stack(term_list))

    jz_scale = 0.0 if alpha == 0.0 else 2.0 / delta

    def coefficients(times: np.ndarray) -> np.ndarray:
        om1 = np.asarray(omega1(times), dtype=np.float64)
        om2 = np.asarray(omega2(times), dtype=np.float64)
        b1 = om1 - om2
        b2 = om1 + om2
        cols = [jz_scale * b1 * b2, alpha * b1**2, alpha * b2**2]
        if has_disorder:
            cols.append(np.ones_like(b1))
        return np.stack(cols, axis=-1)

    return LinearHamiltonian(terms=terms, coefficients=coefficients)


@dataclass(frozen=True)
class FullModelParams:
    """Inputs of the interaction-picture spin+resonator model (constant drives)."""

    n_spins: int
    fock_cutoff: int
    eta: float
    delta: float
    omega1: float
    omega2: float
    nbar: float = 20.0

    def __post_init__(self) -> None:
        if self.eta > 0 and self.fock_cutoff < 3:
            raise ValidationError(
                f"fock_cutoff must be >= 3 when eta > 0, got {self.fock_cutoff}"
            )
        if self.nbar < 0:
            raise ValidationError(f"nbar must be >= 0, got {self.nbar}")

    @property
    def lamb_dicke_indicator(self) -> float:
        """(nbar + 1) * eta^2; the expansion is trustworthy only when << 1."""
        return (self.nbar + 1.0) * self.eta**2


def full_interaction_hamiltonian(p: FullModelParams) -> LinearHamiltonian:
    """Interaction-picture spin ⊗ resonator Hamiltonian on the joint space.

    H(t) = J_+ [1 + eta (a† e^{i t} - a e^{-i t})] (Omega1 e^{i delta t}
    + Omega2 e^{-i delta t}) + h.c., with the drive phases already reduced to
    the signed detuning.  Each non-Hermitian product C_k with complex envelope
    z_k(t) is stored as the Hermitian pair C_k + C_k†, i(C_k - C_k†) with real
    coefficients Re z_k, Im z_k.

    With one tone the time dependence is a rotation: H(t) = e^{iKt} H(0)
    e^{-iKt} with K = s delta J_z ⊗ 1 + 1 ⊗ a†a, s = +1 for an omega1-only
    drive and -1 for an omega2-only one (see :func:`full_interaction_frame`).
    """
    reg = SpinRegister(p.n_spins)
    fock = FockSpace(p.fock_cutoff)
    jp = collective_operator(reg, "+")
    a = boson_operator(fock, "a")
    adag = a.conj().T
    eye_f = np.eye(fock.cutoff, dtype=np.complex128)

    products = [np.kron(jp, eye_f), np.kron(jp, adag), np.kron(jp, a)]
    term_list = []
    for c in products:
        term_list.append(c + c.conj().T)
        term_list.append(1.0j * (c - c.conj().T))
    terms = np.ascontiguousarray(np.stack(term_list))
    eta, delta, om1, om2 = p.eta, p.delta, p.omega1, p.omega2

    def coefficients(times: np.ndarray) -> np.ndarray:
        drive = om1 * np.exp(1.0j * delta * times) + om2 * np.exp(-1.0j * delta * times)
        z = np.stack(
            [drive, eta * np.exp(1.0j * times) * drive, -eta * np.exp(-1.0j * times) * drive],
            axis=-1,
        )
        out = np.empty((times.size, 6), dtype=np.float64)
        out[:, 0::2] = z.real
        out[:, 1::2] = z.imag
        return out

    return LinearHamiltonian(terms=terms, coefficients=coefficients)


def full_interaction_frame(p: FullModelParams) -> Optional[np.ndarray]:
    """Diagonal of the frame K in which the one-tone full Hamiltonian is constant.

    K = s delta J_z ⊗ 1 + 1 ⊗ a†a with s = +1 when ``omega2 == 0`` and s = -1
    when ``omega1 == 0``: J_+ picks up e^{i s delta t} and a† picks up
    e^{i t} under e^{iKt}, so the interaction-picture H(t) equals
    e^{iKt} H(0) e^{-iKt}, also in the truncated Fock space.  Two tones
    rotate J_+ at both +delta and -delta, so no such frame exists and the
    result is None.
    """
    if p.omega2 == 0.0:
        sign = 1.0
    elif p.omega1 == 0.0:
        sign = -1.0
    else:
        return None
    jz = collective_operator(SpinRegister(p.n_spins), "z").diagonal().real
    return np.add.outer(sign * p.delta * jz, np.arange(p.fock_cutoff, dtype=np.float64)).ravel()


def isotropic_spectrum(n: int, alpha_beta_sq: float, epsilon: float):
    """Exact maximal-J spectrum of the isotropic model.

    Returns the N+1 pairs (m, E) with E = alpha_beta_sq * (epsilon*m - m^2
    + J(J+1)), J = N/2, m ascending from -J to +J.
    """
    j = n / 2.0
    out = []
    for k in range(n + 1):
        m = -j + k
        out.append((m, alpha_beta_sq * (epsilon * m - m * m + j * (j + 1.0))))
    return out


@dataclass(frozen=True)
class GroundStatePrediction:
    """Closed-form ground space: Dicke weights in one product basis."""

    basis: str  # 'z', 'x' or 'y'
    weights: tuple
    label: str


@dataclass(frozen=True)
class LmgRegime:
    """Classification of one coefficient set: model form, sign regime, ground space."""

    form: str  # 'isotropic' | 'one-axis-y' | 'one-axis-x' | 'general'
    magnetism: str  # 'FI' | 'AFI' | 'none'
    prediction: Optional[GroundStatePrediction]
    note: str = ""

    @property
    def degeneracy(self) -> Optional[int]:
        return None if self.prediction is None else len(self.prediction.weights)


def _arrow_label(n: int, up: bool) -> str:
    return "|" + ("↑" if up else "↓") * n + ">"


def classify_lmg(c: EffectiveCoefficients, n: int) -> LmgRegime:
    """Identify the model form from the drive pattern and predict its ground space.

    A drive coefficient (omega2, beta1 or beta2) counts as zero when it is at
    most ``form_rtol`` = 1e-3 of the larger drive amplitude.  The prediction
    covers the closed-form rows: the isotropic model with |epsilon| > N
    (unique polarized state) and the one-axis models (degenerate
    |+-...+->_{x,y} pair for FI; |m=0> or the |m=+-1/2> pair for AFI).  Other
    parameter sets come back with ``prediction=None`` and an explanatory note.
    """
    j = n / 2.0
    form_rtol = 1e-3
    scale = max(abs(c.omega1), abs(c.omega2))
    magnetism = "FI" if c.alpha < 0 else ("AFI" if c.alpha > 0 else "none")
    if scale == 0.0:
        return LmgRegime("general", magnetism, None, "both drives vanish: H = 0")
    if abs(c.omega2) <= form_rtol * scale:
        form = "isotropic"
    elif abs(c.beta1) <= form_rtol * scale:
        form = "one-axis-y"
    elif abs(c.beta2) <= form_rtol * scale:
        form = "one-axis-x"
    else:
        form = "general"

    if form == "isotropic":
        if magnetism == "none":
            return LmgRegime(form, magnetism, None, "alpha = 0: flat spectrum")
        if abs(c.epsilon) <= n:
            return LmgRegime(
                form, magnetism, None,
                f"|epsilon| = {abs(c.epsilon):.3g} <= N: ground state not covered by the closed-form table",
            )
        # alpha < 0 grounds at the epsilon-aligned pole, alpha > 0 at the opposite one
        up = (c.epsilon > 0) == (c.alpha < 0)
        pred = GroundStatePrediction("z", (j if up else -j,), _arrow_label(n, up))
        return LmgRegime(form, magnetism, pred)

    if form in ("one-axis-y", "one-axis-x"):
        basis = form[-1]
        if magnetism == "FI":
            pred = GroundStatePrediction(
                basis, (j, -j), f"|+...+>_{basis} , |-...->_{basis}"
            )
        elif magnetism == "AFI":
            if n % 2 == 0:
                pred = GroundStatePrediction(basis, (0.0,), f"|m_{basis}=0>")
            else:
                pred = GroundStatePrediction(basis, (0.5, -0.5), f"|m_{basis}=+-1/2>")
        else:
            return LmgRegime(form, magnetism, None, "alpha = 0: flat spectrum")
        return LmgRegime(form, magnetism, pred)

    return LmgRegime(form, magnetism, None, "general drive pattern: no closed-form ground state")
