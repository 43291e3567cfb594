"""Numerical laboratory for a two-dimensional sticky random walk.

The package has five parts: the transition kernel and Monte Carlo sampler
(`kernel`), the exact finite-n Fourier/generating-function engine with its
enumeration oracles (`exact`), the error-function and quadrature substrate
(`specfun`), the closed-form scaling limits (`limits`, which imports only
`specfun`, so it is independent of the finite-n engine and the sampler), and
the experiment harness plus CLI (`harness`, `cli`).  Import names from those
submodules; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
