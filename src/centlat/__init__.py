"""Centralizer lattices of small finite groups.

Groups are validated multiplication tables; the package computes
centralizer lattices, decides whether surjections respect centralizers
(by definition and by the central-kernel commutator criterion), builds the
induced maps between lattices, and ships batch verification suites behind
the ``centlat`` command.
"""

import types

from .core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SubgroupSet,
    all_subgroups,
    center,
    centralizer,
    closure,
    commutator_set,
    from_multiplication_table,
    group_from_json,
    group_to_json,
)
from .families import (
    CatalogEntry,
    CoverGroup,
    catalog,
    cover_group,
    direct_product,
    make_family,
    semidirect_cyclic,
)
from .homs import (
    CentralKernelVerdict,
    CrhVerdict,
    CrhWitness,
    GroupHom,
    compose,
    crh_central_kernel_criterion,
    group_isomorphic,
    hom_from_json,
    hom_from_map,
    hom_to_json,
    identity_hom,
    is_centralizer_respecting,
    is_surjective,
    kernel,
    quotient,
)
from .lattice import (
    CentralizerLattice,
    FunctorialityVerdict,
    LatticeHomVerdict,
    LatticeMap,
    build_centralizer_lattice,
    compose_lattice_maps,
    induced_map,
    invert_lattice_map,
    is_lattice_hom,
    lattice_of,
    lattice_to_dot,
    lattice_to_json,
    lattices_isomorphic,
    verify_functoriality,
)
from .expr import EvalResult, eval_group_expr, parse_group_expr, pretty, resolve_word

__version__ = "0.1.0"

# the import block above is the one list of public names
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
