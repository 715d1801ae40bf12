"""Batch verification suites behind `centlat verify`.

Each suite returns a deterministic report dict::

    {"suite": <name>, "cases": [{"name", "pass", "detail"}, ...], "pass": <bool>}

Every suite quotients and decides the centralizer-respecting property
through one kernel sweep, :func:`_projections`: it runs every decision
route that applies to each kernel, and disagreement raises
:class:`~centlat.errors.InternalInconsistencyError` instead of trusting
either one.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .core import (
    FiniteGroup,
    SubgroupSet,
    _center_mask,
    all_subgroups,
    center,
    closure,
    commutator_set,
)
from .errors import InternalInconsistencyError
from .families import catalog, cover_group, make_family, semidirect_cyclic
from .homs import (
    CentralKernelVerdict,
    CrhVerdict,
    GroupHom,
    _crh_routes,
    group_isomorphic,
    identity_hom,
    kernel,
    quotient,
)
from .lattice import (
    compose_lattice_maps,
    induced_map,
    invert_lattice_map,
    is_lattice_hom,
    lattice_of,
    lattices_isomorphic,
    verify_functoriality,
)

#: Catalog orders covered by the central-quotient sweep and the functor laws.
SWEEP_MAX_ORDER = 32
#: Chained quotient pairs the composition law collects, and the fewest it accepts.
COMPOSABLE_PAIRS_TARGET = 40
MIN_COMPOSABLE_PAIRS = 25


def _case(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _finish(suite: str, cases: list[dict]) -> dict:
    return {"suite": suite, "cases": cases, "pass": all(c["pass"] for c in cases)}


# ---------------------------------------------------------------------------
# the kernel sweep shared by every suite


def _central_subgroups(g: FiniteGroup) -> list[SubgroupSet]:
    zmask = _center_mask(g)
    return [sub for sub in all_subgroups(g) if sub.mask & ~zmask == 0]


class ProjectionRecord(NamedTuple):
    """One quotient of a named group, with its crh verdicts; the group and
    its quotient are ``projection.source`` and ``.target``.  ``criterion``
    is None when the kernel is not central, as the criterion then does not apply."""

    group_name: str
    kernel: SubgroupSet
    projection: GroupHom
    definitional: CrhVerdict
    criterion: CentralKernelVerdict | None


def _projections(name: str, group: FiniteGroup, kernels: Iterable[SubgroupSet]) -> Iterator[ProjectionRecord]:
    """The kernel sweep: quotient ``group`` by each normal subgroup in
    ``kernels``, lazily, and run every crh route that applies
    (:func:`~centlat.homs._crh_routes`).
    Disagreement raises before the projection is yielded."""
    for sub in kernels:
        _, proj = quotient(group, sub)
        routes = _crh_routes(proj)
        if not routes.agree:
            raise InternalInconsistencyError(
                f"crh routes disagree on {name} with kernel {list(sub.members)}: "
                f"criterion={bool(routes.criterion)}, definitional={bool(routes.definitional)}"
            )
        yield ProjectionRecord(name, sub, proj, routes.definitional, routes.criterion)


@cache
def central_quotient_sweep() -> tuple[ProjectionRecord, ...]:
    """Quotient every catalog group up to ``SWEEP_MAX_ORDER`` by each of its
    central subgroups, through :func:`_projections`.  Disagreement raises
    immediately; the records are computed once."""
    return tuple(r for name, g in catalog(SWEEP_MAX_ORDER) for r in _projections(name, g, _central_subgroups(g)))


def central_kernel_sweep_report() -> dict:
    cases = []
    for name, recs in groupby(central_quotient_sweep(), key=attrgetter("group_name")):  # group by group
        recs = list(recs)
        crh = sum(1 for r in recs if r.definitional.ok)
        cases.append(
            _case(
                f"{name}: commutator criterion agrees with the definitional check",
                True,
                f"{len(recs)} central kernels, {crh} centralizer-respecting",
            )
        )
    return _finish("theoremc-sweep", cases)


# ---------------------------------------------------------------------------
# the worked example


def worked_example_report() -> dict:
    """The order-16 twisted product with a central order-2 kernel whose
    quotient is the quaternion group of order 8."""
    cases = []
    g = semidirect_cyclic(4, 4, 3)
    z = center(g)
    cases.append(
        _case(
            "base group has order 16 with center of order 4",
            g.order == 16 and len(z) == 4,
            f"order={g.order}, center={[g.label(a) for a in z]}",
        )
    )
    lat = lattice_of(g)
    cases.append(
        _case(
            "centralizer lattice has 5 nodes of orders [4, 8, 8, 8, 16]",
            lat.node_orders() == (4, 8, 8, 8, 16),
            f"node orders {list(lat.node_orders())}",
        )
    )
    gens = dict(g.generator_names)
    x2y2 = g.mul(g.power(gens["x"], 2), g.power(gens["y"], 2))
    (worked,) = _projections("semidirect(4,4,3)", g, [closure(g, [x2y2])])
    q, proj = worked.projection.target, worked.projection
    ker_members = kernel(proj).members
    comms = commutator_set(g)
    cases.append(
        _case(
            "kernel is central of order 2 and avoids nontrivial commutators",
            len(ker_members) == 2
            and all(k == g.identity or k not in comms for k in ker_members)
            and all(z.mask >> k & 1 for k in ker_members),
            f"kernel={[g.label(a) for a in ker_members]}, "
            f"commutators={sorted(g.label(c) for c in comms)}",
        )
    )
    q8 = make_family("quaternion", 8)
    iso = group_isomorphic(q, q8)
    cases.append(
        _case(
            "quotient is isomorphic to quaternion(8)",
            q.order == 8 and iso is not None,
            f"quotient order {q.order}",
        )
    )
    cases.append(
        _case(
            "projection respects centralizers (both routes)",
            bool(worked.criterion) and bool(worked.definitional),
            "commutator criterion and definitional sweep both pass",
        )
    )
    ind = induced_map(proj)
    hom_verdict = is_lattice_hom(ind)
    cases.append(
        _case(
            "induced lattice map is a bijective lattice isomorphism",
            ind.is_bijective() and bool(hom_verdict),
            f"quotient lattice node orders {list(ind.target.node_orders())}, "
            f"node map {list(ind.node_map)}",
        )
    )
    return _finish("figure3", cases)


# ---------------------------------------------------------------------------
# family lattices agree, directly and through the covers


def _cover_route(kind: str, n: int, first_family: str, second_family: str, fams: dict, cases: list[dict]):
    """Verify one cover: both projections crh by both routes, both induced
    maps bijective, and the composite lattice isomorphism between the two
    family groups in ``fams``.  Returns the composite map, or None when a step fails."""
    cov = cover_group(kind, n)
    legs = []
    sweep = _projections(f"{kind}(n={n})", cov.group, (cov.z_first, cov.z_second))
    for r, family in zip(sweep, (first_family, second_family)):
        z, proj = r.kernel, r.projection
        mod = f"mod {cov.group.label(z.members[-1])}"
        cases.append(
            _case(
                f"{kind}(n={n}): projection {mod} passes the commutator criterion",
                bool(r.criterion),
                f"kernel {[cov.group.label(a) for a in z.members]}",
            )
        )
        ind = induced_map(proj)
        bridge_iso = group_isomorphic(proj.target, fams[family])
        if bridge_iso is None:
            cases.append(
                _case(f"{kind}(n={n}): quotient is {family}({1 << n})", False, "no isomorphism")
            )
            return None
        bridge = induced_map(bridge_iso)
        leg = compose_lattice_maps(bridge, ind)
        cases.append(
            _case(
                f"{kind}(n={n}): induced map onto the {family}({1 << n}) lattice "
                "is a bijective lattice homomorphism",
                leg.is_bijective() and bool(is_lattice_hom(leg)),
                f"{len(leg.source.nodes)} nodes",
            )
        )
        legs.append(leg)
    route = compose_lattice_maps(legs[1], invert_lattice_map(legs[0]))
    cases.append(
        _case(
            f"{kind}(n={n}): composite {first_family}({1 << n}) ~ {second_family}({1 << n}) "
            "lattice isomorphism verified",
            route.is_bijective() and bool(is_lattice_hom(route)),
            f"node map {list(route.node_map)}",
        )
    )
    return route


def family_lattice_report(n: int) -> dict:
    """dihedral(2^n), quaternion(2^n) (and semidihedral(2^n) for n >= 4)
    carry isomorphic centralizer lattices: checked directly and re-derived
    through the two covers."""
    cases: list[dict] = []
    order = 1 << n
    fam_names = ["dihedral", "quaternion"] + (["semidihedral"] if n >= 4 else [])
    fams = {name: make_family(name, order) for name in fam_names}
    for i, a in enumerate(fam_names):
        for b in fam_names[i + 1 :]:
            found = lattices_isomorphic(lattice_of(fams[a]), lattice_of(fams[b]))
            cases.append(
                _case(
                    f"direct search: {a}({order}) and {b}({order}) lattices isomorphic",
                    found is not None,
                    f"{len(lattice_of(fams[a]).nodes)} nodes each",
                )
            )
    routes = [_cover_route("dihedral_quaternion", n, "dihedral", "quaternion", fams, cases)]
    if n >= 4:
        routes.append(
            _cover_route("quaternion_semidihedral", n, "quaternion", "semidihedral", fams, cases)
        )
        if all(r is not None for r in routes):
            combined = compose_lattice_maps(routes[1], routes[0])
            cases.append(
                _case(
                    f"composite dihedral({order}) ~ semidihedral({order}) through both covers",
                    combined.is_bijective() and bool(is_lattice_hom(combined)),
                    f"node map {list(combined.node_map)}",
                )
            )
    return _finish("corollary", cases)


# ---------------------------------------------------------------------------
# functor laws


def composable_pairs(
    records: tuple[ProjectionRecord, ...],
) -> list[tuple[ProjectionRecord, SubgroupSet, GroupHom]]:
    """Deterministic chained central quotients: follow each crh sweep
    projection with a quotient of its quotient by a central subgroup, taken
    from :func:`_projections`, that passes the commutator criterion.  Pairs
    where both kernels are trivial are skipped; collection stops at
    ``COMPOSABLE_PAIRS_TARGET`` pairs."""
    pairs = []
    for r in records:
        if not r.definitional.ok:
            continue
        h = r.projection.target
        subs = [sub for sub in _central_subgroups(h) if not (r.kernel.is_trivial() and sub.is_trivial())]
        for second in _projections(f"{r.group_name} mod {list(r.kernel.members)}", h, subs):
            if second.criterion:
                pairs.append((r, second.kernel, second.projection))
                if len(pairs) >= COMPOSABLE_PAIRS_TARGET:
                    return pairs
    return pairs


def functor_law_report() -> dict:
    cases = []
    entries = catalog(SWEEP_MAX_ORDER)
    identity_maps = [induced_map(identity_hom(g)).node_map for _, g in entries]
    identity_ok = sum(1 for m in identity_maps if m == tuple(range(len(m))))
    cases.append(
        _case(
            "identity homomorphisms induce identity lattice maps",
            identity_ok == len(entries),
            f"{identity_ok}/{len(entries)} catalog lattices",
        )
    )
    records = central_quotient_sweep()
    crh_records = [r for r in records if r.definitional.ok]
    verdicts = [is_lattice_hom(induced_map(r.projection)) for r in crh_records]
    hom_ok = sum(1 for v in verdicts if v and v.preserves_top and v.preserves_bottom)
    cases.append(
        _case(
            "every centralizer-respecting projection induces a bounded lattice homomorphism",
            hom_ok == len(crh_records),
            f"{hom_ok}/{len(crh_records)} projections "
            f"(meet, join, involution, top and bottom preserved)",
        )
    )
    pairs = composable_pairs(records)
    comp_ok = sum(1 for r, _, proj2 in pairs if verify_functoriality(r.projection, proj2))
    cases.append(
        _case(
            f"composition law on chained central quotients (minimum {MIN_COMPOSABLE_PAIRS} pairs)",
            len(pairs) >= MIN_COMPOSABLE_PAIRS and comp_ok == len(pairs),
            f"{comp_ok}/{len(pairs)} composable pairs verified",
        )
    )
    return _finish("functor-laws", cases)
