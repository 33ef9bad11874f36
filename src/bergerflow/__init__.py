"""Gradient flows of the spinorial energy on Berger spheres.

The 3-sphere, viewed as a circle bundle over the 2-sphere, carries metrics
described by a fiber scale and a base scale.  Two planar ODE systems move
those scales: the unnormalized flow, under which the sphere collapses, and
the volume-normalized flow, which has the round unit-volume sphere as an
attracting equilibrium.  This package evaluates the fields and all
associated geometric diagnostics, integrates them adaptively with event
detection, and certifies the trapping regions that box trajectories in.
"""

from .dynamics import (
    Equilibrium,
    closed_form,
    curve_point,
    curve_speed,
    curve_tangent,
    equilibria,
    explicit_rhs,
    initial_state,
    tangency_residual,
    vector_field,
)
from .integrate import (
    IntegratorConfig,
    StepBudgetError,
    TerminationEvent,
    Trajectory,
    integrate,
    integrate_reduced,
)
from .model import (
    FlowKind,
    FlowParams,
    GeometryScalars,
    State,
    energy,
    energy_density_sixth,
    geometry_scalars,
    normalizing_constant,
    q1_collapse_components,
    q1_normalized_components,
    spinor_coefficients,
    volume,
)
from .phase import (
    Region,
    containment_report,
    inward_flux_check,
    portrait_rows,
    region_contains,
    region_for_initial,
    sample_portrait,
)

__all__ = [
    "Equilibrium",
    "FlowKind",
    "FlowParams",
    "GeometryScalars",
    "IntegratorConfig",
    "Region",
    "State",
    "StepBudgetError",
    "TerminationEvent",
    "Trajectory",
    "closed_form",
    "containment_report",
    "curve_point",
    "curve_speed",
    "curve_tangent",
    "energy",
    "energy_density_sixth",
    "equilibria",
    "explicit_rhs",
    "geometry_scalars",
    "initial_state",
    "integrate",
    "integrate_reduced",
    "inward_flux_check",
    "normalizing_constant",
    "portrait_rows",
    "q1_collapse_components",
    "q1_normalized_components",
    "region_contains",
    "region_for_initial",
    "sample_portrait",
    "spinor_coefficients",
    "tangency_residual",
    "vector_field",
    "volume",
]
