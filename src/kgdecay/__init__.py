"""Desk-scale numerical verification of dispersive decay for the linear
Klein-Gordon equation: exact multiplier propagation, dyadic frequency
decomposition, unit-ball partitions of unity, hyperboloidal energies, and a
decay harness measuring empirical constants and fitted exponents.

The names below and the modules themselves are resolved on first access
(PEP 562), so importing the package, or one of its modules, loads only the
modules that are used: a single-suite run loads its own suite's layers."""

import importlib

# module -> the names it exports at the package level
_EXPORTS = {
    "bands": "LOW_PASS_BAND LittlewoodPaleyBank",
    "bumps": "bump_derivative_field bump_field bump_profile mollifier smoothstep",
    "config": "RunConfig load_config",
    "decay": "DecayCurve DecayReport FitResult fit_exponent highfreq_check "
    "interpolation_check lowfreq_check localized_decay_check sup_norms",
    "errors": "ConfigurationError GridMismatchError InvariantError",
    "grid": "Field Grid SpectralField coordinate_field forward_transform "
    "inverse_transform l1_norm l2_norm laplacian linf_norm multi_indices "
    "partial_derivative sobolev_h_norm sobolev_order sobolev_w_k1_norm spatial_derivative",
    "hyperboloid": "HyperboloidSlice SliceBound build_slice boost_values energy "
    "global_sobolev_check pointwise_energy_check sample_on_slice slice_integral",
    "partition": "UnitBallPartition build_partition overlap_bound w_k1_comparability",
    "plan": "RunPlan",
    "propagator": "CauchyData boost_commuted_data data_support_radius "
    "evaluate_at_points flat_energy jet_columns",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
