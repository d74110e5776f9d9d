"""Forward and inverse Dirichlet-to-Neumann engine for nodal curves."""

from .model import (AdmissibleFamily, AnnulusDomain, BoundaryCurve, DiskDomain,
                    NodalDomainModel, finest_zero_sum_partition,
                    is_generic_family)
from .greens import GreenKernel, disk_green
from .dirichlet import (DNDatum, HarmonicDistribution, Prescription, apply_dn,
                        build_dn_datum, compute_theta, solve_nodal_dirichlet)
from .moments import (FiberWindow, MomentEngine, ReconstructedCurve, WindowPlan,
                      recover_fibers, recover_form_quotient, sweep_windows)
from .nodes import (branch_residues, classify_and_partition,
                    energy_growth_reports, locate_singularities)
from .characterize import (characterize, green_identity_residual,
                           orientation_probe, shock_residual)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
