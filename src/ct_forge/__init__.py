"""Exact verification of constant-term identities.

The package computes iterated constant terms of factored rational functions
over exact rationals, evaluates the matching Gamma-product closed forms, and
cross-checks both against a floating-point contour oracle.
"""

__version__ = "0.1.0"
