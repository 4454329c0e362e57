"""Exact arithmetic for Genocchi and poly-Bernoulli numbers, enumeration
of (m-barred) Callan sequences and Dumont permutations, and the
structural bijections connecting them.

The package re-exports the names the README's library section documents;
everything else is reached through its module (``callan.combinat`` ...)."""

from .errors import ConsistencyError, DomainError
from .numbers import (
    genocchi,
    genocchi_list,
    poly_bernoulli_b,
    poly_bernoulli_c,
    c_number,
    c_table,
)
from .combinat import (
    MBarredSequence,
    validate_mbarred,
    enumerate_callan,
    enumerate_mbarred,
    enumerate_dumont,
    count_mbarred,
    to_json_dict,
    from_json_dict,
    canonical_json,
)
from .bijections import (
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    psi_b,
    psi_r,
    relabel_max_min,
)
from .harness import (
    certify_phi,
    certify_psi,
    certify_relabel,
    run_claim,
)

__version__ = "0.1.0"
