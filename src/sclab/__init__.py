"""Numerical laboratory for spectral-cluster densities on the 2-sphere.

Subpackages by role:

- :mod:`sclab.sphere_basis`   stable associated-Legendre evaluation, special
  values at the equator, Gauss quadrature grids, spectral counting
- :mod:`sclab.wkb_engine`     oscillatory-regime approximants, action
  integrals, rigorous error envelopes
- :mod:`sclab.expsum`         exponential-sum bounds for monotone separated
  phase increments, and the cluster phase sums
- :mod:`sclab.cluster_density` extremal order windows, densities and their
  L^{p/2} norms, exponent tables, semiclassical comparison
- :mod:`sclab.schatten_lab`   Schatten norms of compressed projectors and
  discretized oscillatory integral operators
- :mod:`sclab.experiments`    configuration-driven sweeps, slope fits,
  CSV/JSON reports
- :mod:`sclab.acceptance`     the 13-criterion acceptance suite, one table
  of criteria over the experiment runners and basis checks
- :mod:`sclab.cli`            the ``sclab`` command line: run, check, dump-wkb
"""

__version__ = "0.1.0"
