"""Exact combinatorics of Hecke-algebra representation theory.

Subpackages by topic: laurent (the coefficient ring), coxeter (finite Weyl
groups), klcells (Kazhdan-Lusztig bases, the a-function and the asymptotic
ring), schur (partition combinatorics and Schur-element invariants), fock
(crystal graphs of level-r Fock spaces), basicsets (canonical basic sets and
decomposition-matrix verification), cli (command-line front end).
"""

from .laurent import LaurentPoly, NotDivisible, DivisionByZero, ZeroPolynomial
from .coxeter import CoxeterType, WeylGroup, WeightFunction, build, weight_from_ab
from .klcells import HeckeAlgebra, KLData, JRing, PropertyFailure
from .schur import (Bipartition, InvariantPair, Partition,
                    invariants_A, invariants_B, invariants_asymptotic,
                    invariants_azero, schur_element_B,
                    g2_schur, g2_invariants, f4_invariants, l_good)
from .fock import (CrystalGraph, FockParams, Multipartition, crystal,
                   flotw_member, kleshchev_member, uryu_set)
from .basicsets import (BasicSetResult, DecompMatrix, SpecParams,
                        basic_set_B, basic_set_D, basic_set_sym,
                        e_value, fn_zero, verify_decomp)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
