"""Groebner bases under weight-composite monomial orders, initial ideals,
and homological invariants (dimension, depth, regularity, Betti tables,
Hilbert series) of the resulting monomial degenerations."""

from .errors import (BudgetExceededError, GBDepthError, InternalInvariantError,
                     LatticeError, NotCohenMacaulayError, OrderError,
                     ParseError, RingMismatchError)
from .rings import (GF, Ideal, MonomialIdeal, PolyRing, Polynomial, QQ,
                    format_mono, mono_degree, mono_divides, mono_div,
                    mono_gcd, mono_lcm, mono_mul, mono_support, unit_mono)
from .orders import (LexOrder, MonomialOrder, WeightOrder, block_weight_order,
                     compare, validate_order, weight_of)
from .groebner import (GroebnerBasis, GBVerification, buchberger, divmod_poly,
                       ideal_member, initial_ideal, normal_form, s_polynomial,
                       verify_gb)
from .invariants import (BettiTable, InvariantReport, SimplicialComplex,
                         betti_table, h_polynomial, hilbert_numerator,
                         invariant_report, krull_dimension,
                         kunneth_convolution, lcm_lattice,
                         reduced_homology_dims, reg_via_h_polynomial,
                         upper_koszul_complex)
from .taylor import taylor_betti_table
from .family import (DepthRangeResult, DistributiveLattice, ExplorationResult,
                     FamilyInstance, VerificationReport, build_family,
                     chain_lattice, claimed_basis, divisor_lattice,
                     expected_initial, explore_orders, grid_lattice,
                     join_meet_ideal, verify_depth_range, verify_one)
from .parsing import (format_ideal, format_order, format_polynomial,
                      parse_ideal_text, parse_inline_ideal,
                      parse_lattice_text, parse_monomial_list, parse_order,
                      parse_polynomial)

__version__ = "0.1.0"
