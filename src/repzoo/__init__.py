"""Exact character-degree computations for matrix groups over finite quotient rings."""

from .characters import (
    CharacterTableModP,
    DegreeMultiset,
    character_degrees,
    character_table_modp,
)
from .clifford import (
    CliffordReport,
    DualGroup,
    clifford_dimirr,
    default_normal_subgroup,
    orbits_and_stabilizers,
)
from .groups import (
    ConjugacyClassData,
    CosetGroup,
    FiniteMatrixGroup,
    GroupScheme,
    SubgroupView,
    build_group,
    center,
    congruence_kernel,
    conjugacy_classes,
    coset_group,
    predicted_order,
    scheme_order_poly,
)
from .harness import (
    CompareReport,
    ExperimentConfig,
    FitReport,
    compare_rings,
    compute_clifford_report,
    compute_degrees,
    fit_polynomials,
    run_dimirr,
)
from .lietype import (
    CandidateSet,
    RootDatum,
    TwistedWeylGroup,
    candidate_set,
    center_order_poly,
    dl_degree,
    order_polynomial,
    root_datum,
    torus_order,
    verify_containment,
    weyl_group,
)
from .localring import QuotientRing, RingSpec, iso_check_truncated, make_ring
from .polynomials import RationalPoly, SamplePointSet, interpolate

__all__ = [name for name in dir() if not name.startswith("_")]
