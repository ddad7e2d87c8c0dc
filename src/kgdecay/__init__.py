"""Desk-scale numerical verification of dispersive decay for the linear
Klein-Gordon equation: exact multiplier propagation, dyadic frequency
decomposition, unit-ball partitions of unity, hyperboloidal energies, and a
decay harness measuring empirical constants and fitted exponents."""

from .bands import LOW_PASS_BAND, LittlewoodPaleyBank
from .bumps import bump_derivative_field, bump_field, bump_profile, mollifier, smoothstep
from .config import RunConfig, load_config
from .decay import (
    DecayCurve, DecayReport, FitResult, fit_exponent, highfreq_check,
    interpolation_check, lowfreq_check, localized_decay_check, sup_norms,
)
from .errors import ConfigurationError, GridMismatchError, InvariantError
from .grid import (
    Field, Grid, SpectralField, coordinate_field, forward_transform,
    inverse_transform, l1_norm, l2_norm, laplacian, linf_norm, multi_indices,
    partial_derivative, sobolev_h_norm, sobolev_order, sobolev_w_k1_norm,
    spatial_derivative,
)
from .hyperboloid import (
    HyperboloidSlice, SliceBound, build_slice, boost_values, energy,
    global_sobolev_check, pointwise_energy_check, sample_on_slice, slice_integral,
)
from .partition import UnitBallPartition, build_partition, overlap_bound, w_k1_comparability
from .plan import RunPlan
from .propagator import (
    CauchyData, boost_commuted_data, data_support_radius, evaluate_at_points,
    flat_energy, jet_columns,
)

__all__ = [name for name in dir() if not name.startswith("_")]
