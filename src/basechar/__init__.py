"""Exact base sizes and regular-orbit counts of permutation groups.

The formula lane computes base sizes and regular-orbit counts of
symmetric-group actions from exact character inner products; the oracle
lane recomputes the same quantities by brute force on explicit small
permutation groups.  The test suite checks every formula against the
oracle where the groups are small enough to tabulate, and past that
against the plain enumerations and sympy class data in
tests/reference_impls.py.
"""

__version__ = "0.1.0"
