"""Asymptotic inference for sample optimal portfolios.

Builds the augmented second-moment matrix from returns, reads the
optimal portfolio and precision matrix off its inverse, and delivers
delta-method covariances (plain, kernel-robust, or Gaussian closed
form) for every derived quantity, plus constrained variants, linear
hypothesis statistics, and Monte Carlo validation of the laws.

Importing the package loads none of its modules: each is imported where
it is first read, as `portinf.moments` or `from portinf import moments`,
so that a command pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "asymptotics", "cli", "constraints", "errors", "gaussian", "harness", "kernels", "mglh",
    "moments", "oracles", "selftest", "simulate",
})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
