"""The ``verify`` reports fail the case whose fact is false.

On the package's own groups every case passes, so a report whose checks
could not fail would print the same.  Each test makes one fact false
through the name the report reads in :mod:`centlat.verify`, and checks
that the report fails exactly the cases built on that fact.
"""

from __future__ import annotations

from centlat import CrhVerdict, verify
from centlat.lattice import FunctorialityVerdict, LatticeHomVerdict


def _failed(report: dict) -> list[str]:
    names = [case["name"] for case in report["cases"] if not case["pass"]]
    assert report["pass"] == (not names)
    return names


def _not_a_lattice_hom(m):
    return LatticeHomVerdict(False, "meet", (0, 0))


def test_a_wrong_center_fails_the_center_and_kernel_cases(monkeypatch):
    monkeypatch.setattr(verify, "center", lambda g: verify.closure(g, []))
    assert _failed(verify.worked_example_report()) == [
        "base group has order 16 with center of order 4",
        "kernel is central of order 2 and avoids nontrivial commutators",
    ]


def test_a_missing_isomorphism_fails_the_quotient_cases(monkeypatch):
    monkeypatch.setattr(verify, "group_isomorphic", lambda a, b: None)
    assert _failed(verify.worked_example_report()) == ["quotient is isomorphic to quaternion(8)"]
    report = verify.family_lattice_report(3)
    assert _failed(report) == ["dihedral_quaternion(n=3): quotient is dihedral(8)"]
    assert report["cases"][-1]["detail"] == "no isomorphism"


def test_a_definitional_failure_fails_the_both_routes_case(monkeypatch):
    routes = verify._crh_routes
    monkeypatch.setattr(verify, "_crh_routes", lambda h: routes(h)._replace(definitional=CrhVerdict(False)))
    assert _failed(verify.worked_example_report()) == ["projection respects centralizers (both routes)"]


def test_a_failing_lattice_hom_fails_every_induced_map_case(monkeypatch):
    monkeypatch.setattr(verify, "is_lattice_hom", _not_a_lattice_hom)
    assert _failed(verify.worked_example_report()) == ["induced lattice map is a bijective lattice isomorphism"]
    assert _failed(verify.family_lattice_report(4)) == [
        "dihedral_quaternion(n=4): induced map onto the dihedral(16) lattice is a bijective lattice homomorphism",
        "dihedral_quaternion(n=4): induced map onto the quaternion(16) lattice is a bijective lattice homomorphism",
        "dihedral_quaternion(n=4): composite dihedral(16) ~ quaternion(16) lattice isomorphism verified",
        "quaternion_semidihedral(n=4): induced map onto the quaternion(16) lattice is a bijective lattice homomorphism",
        "quaternion_semidihedral(n=4): induced map onto the semidihedral(16) lattice is a bijective lattice homomorphism",
        "quaternion_semidihedral(n=4): composite quaternion(16) ~ semidihedral(16) lattice isomorphism verified",
        "composite dihedral(16) ~ semidihedral(16) through both covers",
    ]
    assert _failed(verify.functor_law_report()) == [
        "every centralizer-respecting projection induces a bounded lattice homomorphism"
    ]


def test_a_failing_functor_law_fails_the_composition_case(monkeypatch):
    monkeypatch.setattr(verify, "verify_functoriality", lambda phi, psi: FunctorialityVerdict(False, ("law",)))
    assert _failed(verify.functor_law_report()) == ["composition law on chained central quotients (minimum 25 pairs)"]


def test_the_composition_case_passes_at_its_minimum(monkeypatch):
    found = len(verify.composable_pairs(verify.central_quotient_sweep()))
    monkeypatch.setattr(verify, "MIN_COMPOSABLE_PAIRS", found)
    assert _failed(verify.functor_law_report()) == []
    monkeypatch.setattr(verify, "MIN_COMPOSABLE_PAIRS", found + 1)
    assert _failed(verify.functor_law_report()) == [
        f"composition law on chained central quotients (minimum {found + 1} pairs)"
    ]
