"""Exhaustive finite-model verification of ideal and Lie-ideal lattices of
algebra-valued function algebras.

Everything is exact (rational arithmetic; the CLI decides a subspace with
non-real entries through its realification) and every value type is
immutable, so the library is safe to drive from concurrent callers.
"""

from .decomposition import Decomposition, decompose, evaluate, verify_theorem
from .fdalgebra import (
    AlgebraSpec,
    Element,
    block_ideal_subspace,
    centre,
    enumerate_ideals,
)
from .fixtures import load_fixture
from .function_algebra import (
    FunctionAlgebra,
    FunctionElement,
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
    ideal_from_Y_and_I,
    pointwise_subspace,
    product_subspace,
    recover_S,
    theta,
)
from .lattice import (
    BoundedLattice,
    ClosedFamily,
    LimitExceeded,
    compute_gamma,
    enumerate_compatible_families,
    is_compatible,
    union_over_gamma,
    validate_lattice,
)
from .lie import (
    LieCandidate,
    check_cqp,
    commutator_ideal_span,
    cqp_sides,
    cqp_transfer_check,
    is_lie_ideal,
    lie_normalizer,
    sandwich_witness,
    weak_centrality,
)
from .linalg import Subspace, annihilator, intersect, rref

__version__ = "0.1.0"
