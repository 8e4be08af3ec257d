"""shortloc: exact-arithmetic tools for short local algebras (J^3 = 0).

The package models finite-dimensional local algebras with radical cube
zero and their finite-length modules, entirely in exact arithmetic, and
computes the homological invariants that govern them: syzygies, duals,
transposes, Ext groups, Betti numbers, minimal left approximations and
their cokernels, Gorenstein-projective-style predicates, and the
dimension-vector calculus that ties them together.

The paper's claims (``CLAIMS``, ``run_suite``, module ``verify``) load on
first use, so importing the engine does not compile the claim suite.
"""

import importlib as _importlib

from .algebra import AlgebraReport, ShortAlgebra, algebra_from_relations
from .errors import (AlgebraMismatch, BadParams, DimensionMismatch, HypothesisNotMet,
                     InvariantViolation, LoewyTooLong, NotSelfInjective,
                     ResourceCapExceeded, ShortlocError, SurjectivityViolation,
                     WrongHilbertType, ZeroModule)
from .explorer import (ComplexClassification, PathRecord, PathStep, classify_complex,
                       cv_sequence_check, mho_path, omega_path, periodicity_detect)
from .homology import (BettiTable, BoundedVerdict, Presentation, a_dual, betti, dual_data,
                       eval_map, ext_dim, ext_dims, is_gp, is_inf_torsionfree, is_reflexive,
                       is_semi_gp, is_torsionless, mho_step, minimal_left_approximation,
                       projective_cover, resolution, stable_hom_dim, syzygy, syzygy_power,
                       transpose)
from .kronecker import (KroneckerRep, hom_decomposition_check, kronecker_hom_dim,
                        multiplication_form, push_down, rep_as_module, rep_dual,
                        sigma_reflection, tilde, verify_sigma_omega)
from .linalg import (QQ, Field, Fp, Matrix, Subspace, kernel_basis, kernel_subspace,
                     random_matrix, rank, rref, solve)
from .modules import (AModule, DimVec, HomSpace, IsoSearch, ModuleMap,
                      cyclic_submodule, dim_vector, direct_sum, end_dim,
                      find_isomorphism, free_module, generated_submodule, hom_basis,
                      hom_dim, hom_space, is_bipartite, is_isomorphic, is_solid,
                      left_regular_module, m_alpha, mod_j_squared,
                      module_from_subspace, quotient, radical_module, random_module,
                      semisimple_module, simple_module, simple_multiplicity,
                      submodule, validate_module, zero_module)
from .numerics import (BSequence, MainLemmaWitness, RecursionCheck, b_closed_form,
                       b_sequence, classify_dimvec, defect, is_aligned,
                       main_lemma_witness, omega_transform, q_form, recursion_check)
from .presets import preset, preset_names

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["CLAIMS", "run_suite", "verify"])
__version__ = "0.1.0"


def __getattr__(name: str):
    """``verify`` and the names read from it, imported on first read (PEP 562)."""
    if name in ("CLAIMS", "run_suite", "verify"):
        verify = _importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
