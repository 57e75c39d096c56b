"""Stability laboratory for explicit transport schemes on an interval.

The package studies one-step explicit finite-difference schemes for the
transport equation with a Dirichlet inflow boundary and an order-k
extrapolation outflow boundary: iteration-matrix assembly, spectral radii
and power bounds, wave-packet experiments, and pinned reference bundles.

The public API is each submodule's __all__: stencil, boundary, operators,
spectral, simulate and experiments; import them by name, as in
``from advstab import operators``. Importing the package imports none of
them and no numpy, so the command line can cap BLAS threads from
ADVSTAB_THREADS before any numeric import happens.
"""

__version__ = "0.1.0"
