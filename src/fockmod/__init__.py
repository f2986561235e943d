"""Exact engine for fermionic Fock bimodules over a twisted Weyl algebra.

Everything is computed in closed form over finitely generated pieces:
Weyl elements are finite linear combinations of group monomials,
module vectors are finite sums e_b * A, and Fock vectors live in the
whole antisymmetric Fock space over the finite grid's one-particle
space, whose levels stop at its dimension.  No floating point linear algebra
enters an algebraic identity; numerics appear only where a claim is a
numerical claim (norm estimates, positivity).

The package itself holds only ``__version__``; import the submodules
(``fockmod.weyl``, ``bimodule``, ``fock``, ``models``, ``oracle``, ``cli``).
"""

__version__ = "0.1.0"
