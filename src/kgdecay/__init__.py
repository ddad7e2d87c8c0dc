"""Desk-scale numerical verification of dispersive decay for the linear
Klein-Gordon equation: exact multiplier propagation, dyadic frequency
decomposition, unit-ball partitions of unity, hyperboloidal energies, and a
decay harness measuring empirical constants and fitted exponents.

The package's interface is its modules (``from kgdecay import grid``), so
importing the package, or one of its modules, loads only the modules that
are used: a single-suite run loads its own suite's layers."""
