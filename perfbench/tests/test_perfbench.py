"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import centlat  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from relabel import derive_rng, permutation, relabel_group  # noqa: E402
from workloads import Op, Workload  # noqa: E402

GROUPS = {
    "dihedral(8)": lambda: centlat.make_family("dihedral", 8),
    "semidirect(4,4,3)": lambda: centlat.semidirect_cyclic(4, 4, 3),
    "cover_dq(3)": lambda: centlat.cover_group("dihedral_quaternion", 3).group,
    "product(cyclic(2),cyclic(3))": lambda: centlat.direct_product(
        centlat.make_family("cyclic", 2), centlat.make_family("cyclic", 3)
    ),
}


def is_installed() -> bool:
    """True when any centlat module attribute is one of the tracer's wrappers."""
    return any(
        getattr(value, "perfbench_layer", None) is not None
        for name, module in list(sys.modules.items())
        if name == "centlat" or name.startswith("centlat.")
        for value in vars(module).values()
    )


def test_relabelling_is_an_isomorphism_that_moves_the_identity():
    for name, build in GROUPS.items():
        g = build()
        for seed in range(5):
            table, perm = relabel_group(g, derive_rng(seed, name))
            assert sorted(perm) == list(range(g.order))
            for a in range(g.order):
                for b in range(g.order):
                    assert table[perm[a]][perm[b]] == perm[g.table[a][b]]
            h = centlat.from_multiplication_table(g.order, table)
            assert h.identity == perm[g.identity] != 0
            assert centlat.hom_from_map(g, h, perm).is_bijective()


def test_identity_moves_off_zero_even_when_the_shuffle_leaves_it_there():
    for seed in range(200):
        assert permutation(3, 0, random.Random(seed))[0] != 0
    assert permutation(1, 0, random.Random(0)) == [0]


def test_generator_is_deterministic_per_seed():
    g = GROUPS["semidirect(4,4,3)"]()
    first = relabel_group(g, derive_rng(7, "sweep64", "x"))
    assert relabel_group(g, derive_rng(7, "sweep64", "x")) == first
    assert relabel_group(g, derive_rng(8, "sweep64", "x")) != first
    assert relabel_group(g, derive_rng(7, "sweep64", "y")) != first


def test_tail_percentile_leaves_at_least_ten_samples_beyond():
    samples = [float(i) for i in range(1, 374)]
    random.Random(0).shuffle(samples)
    p, value = run.tail_percentile(samples)
    assert p == 97
    assert sum(s > value for s in samples) >= 10
    assert sum(s > value for s in samples) < 10 + 373 // 100 + 1
    assert run.tail_percentile(samples[:10]) is None
    assert run.tail_percentile(samples[:11]) == (9, min(samples[:11]))
    assert run.tail_percentile([1.0] * 2000)[0] == 99


def test_self_time_subtracts_direct_children_only():
    trace = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.5, 1, 0),
        (spans.OVERHEAD, 4.0, 4.5, 0, 0),
        ("b", 5.0, 6.0, 0, 0),
        ("a", 20.0, 21.0, -1, 1),
    ]
    times = spans.self_times(trace)
    assert times["a"] == [10.0 - 3.0 - 0.5 - 1.0 + 1.0, 2]
    assert times["b"] == [3.0 - 1.5 + 1.0, 2]
    assert times["c"] == [1.5, 1]
    assert spans.OVERHEAD not in times


def test_install_wraps_reimported_names_and_uninstall_restores_them():
    originals = {
        (m, attr): getattr(sys.modules[m], attr)
        for m, attr in [
            ("centlat", "quotient"),
            ("centlat.homs", "quotient"),
            ("centlat.expr", "quotient"),
            ("centlat.lattice", "is_centralizer_respecting"),
            ("centlat.homs", "from_multiplication_table"),
        ]
    }
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert is_installed()
        g = centlat.semidirect_cyclic(4, 4, 3)
        q, proj = centlat.quotient(g, centlat.closure(g, [10]))
        centlat.induced_map(proj)
    finally:
        spans.uninstall(tracer)
    assert not is_installed()
    for (m, attr), fn in originals.items():
        assert getattr(sys.modules[m], attr) is fn
    names = [s[0] for s in tracer.spans]
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    validate_in_quotient = [
        s
        for s in tracer.spans
        if s[0] == "core.validate" and s[3] >= 0 and by_index[s[3]][0] == "homs.quotient"
    ]
    assert len(validate_in_quotient) == 1
    definitional = [s for s in tracer.spans if s[0] == "homs.crh_definitional"]
    assert definitional and by_index[definitional[0][3]][0] == "lattice.induced_map"
    assert names.count("families.build") == 1
    metrics = spans.layer_metrics(tracer)
    assert metrics["homs.quotient.calls"] == 1
    assert metrics["core.validate.cells"] == 16 * 16 + 8 * 8  # the group, then its quotient


class _Tiny(Workload):
    name = "sweep64"

    def ops(self, pass_index):
        def op():
            assert not is_installed()
            g = centlat.from_multiplication_table(2, [[0, 1], [1, 0]])
            return [] if len(centlat.all_subgroups(g)) == 2 else ["wrong"]

        return [Op("tiny", op)]


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(tracer):
        raise AssertionError("install called in an untraced run")

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _Tiny)
    monkeypatch.setattr(run, "measure_setup", lambda env, refs: [0.1])
    monkeypatch.setattr(spans, "install", refuse)
    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds", "2", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert not is_installed()


def test_deadline_stops_an_operation_and_counts_it_failed():
    class Slow(_Tiny):
        deadline_s = 0.05

        def ops(self, pass_index):
            def spin():
                while True:
                    pass

            return [Op("spin", spin)]

    [(name, seconds, problems)] = run.run_passes(Slow(0, HERE, 1), None, [])
    assert (name, problems) == ("spin", [run.DEADLINE])
    assert seconds < 5
