"""Exact simulation and verification of single-node and distributed
quantum discrete-logarithm solvers.

The library pairs a dense state-vector backend with closed-form outcome
distributions so the two can check each other, adds the classical
alignment routine that stitches distributed measurements together, and
ships the property suites and CLI used to validate the whole stack.
"""

__version__ = "0.1.0"
