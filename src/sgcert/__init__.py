"""Stochastic-game equilibrium evaluation, improvement-map fixed points,
and certified approximate-equilibrium search."""

__version__ = "0.1.0"
