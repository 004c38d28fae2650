"""Finite difference solvers for one-dimensional space-fractional
boundary-value and diffusion problems with boundary weak singularities,
plus a two-grid extrapolation correction that restores second-order
accuracy for non-smooth solutions.  The API is the modules, such as
:mod:`fracbvp.study`; importing the package loads none of them."""

__version__ = "0.1.0"
