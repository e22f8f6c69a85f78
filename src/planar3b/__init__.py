"""Planar three-body effective potentials and bound-state spectra.

Born-Oppenheimer treatment of two heavy particles exchanging a light one in
two space dimensions: effective potential branches from s- and p-wave
resonant heavy-light scattering, WKB quantization of the resulting
quasi-Coulomb spectrum, an independent Numerov oracle, and atom-molecule
scattering observables.  Natural units hbar = mu = r1 = 1 throughout the
core (energies in hbar^2/(mu r1^2), lengths in r1).
"""

__version__ = "0.1.0"

from .potentials import (
    Branch,
    PotentialCurve,
    RootResult,
    UnifiedPotential,
    determinant_residual,
    light_wavefunction,
    solve_pwave_I,
    solve_pwave_II,
    solve_swave,
    swave_asymptote,
    sweep_branch,
    v_unified,
    xi_I0_closed,
    xi_II0_closed,
)
from .radial import (
    BoundStates,
    WavefunctionSample,
    bound_states_numerov,
    count_negative_levels,
    numerov_integrate,
    zero_energy_exact,
)
from .scattering import (
    ResonanceTable,
    atom_molecule_A0,
    cross_section,
    resonance_positions,
)
from .specfun import EULER_GAMMA, bessel_j, bessel_k, bessel_y
from .twobody import (
    MassConfig,
    TwoBodyDerived,
    TwoBodyParams,
    cot_delta0,
    cot_delta1,
    dimer_energies,
    t_matrix,
)
from .wkb import (
    SpectrumResult,
    WkbConfig,
    count_bound_states,
    n_max,
    phi_correction,
    quantize_spectrum,
    turning_point,
    wkb_phase,
    wkb_phase_approx,
)

__all__ = [
    "Branch",
    "BoundStates",
    "EULER_GAMMA",
    "MassConfig",
    "PotentialCurve",
    "ResonanceTable",
    "RootResult",
    "SpectrumResult",
    "TwoBodyDerived",
    "TwoBodyParams",
    "UnifiedPotential",
    "WavefunctionSample",
    "WkbConfig",
    "__version__",
    "atom_molecule_A0",
    "bessel_j",
    "bessel_k",
    "bessel_y",
    "bound_states_numerov",
    "cot_delta0",
    "cot_delta1",
    "count_bound_states",
    "count_negative_levels",
    "cross_section",
    "determinant_residual",
    "dimer_energies",
    "light_wavefunction",
    "n_max",
    "numerov_integrate",
    "phi_correction",
    "quantize_spectrum",
    "resonance_positions",
    "solve_pwave_I",
    "solve_pwave_II",
    "solve_swave",
    "swave_asymptote",
    "sweep_branch",
    "t_matrix",
    "turning_point",
    "v_unified",
    "wkb_phase",
    "wkb_phase_approx",
    "xi_I0_closed",
    "xi_II0_closed",
    "zero_energy_exact",
]
