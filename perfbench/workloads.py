"""The benchmark's workloads.

A workload turns the seed into plain inputs before anything is timed: tables
relabelled by a seeded permutation, or JSON table files for the CLI. It then
hands out one pass of operations at a time. An operation builds every group
it uses from a plain table, so per-group caches start empty on every pass,
and it returns the problems found in its output (an empty list when every
check passed). Library functions are looked up on the ``centlat`` package at
call time, so a traced run sees them through the span wrappers. Import this
module with the checkout's ``src`` on ``sys.path``.

Expected values are label-invariant (subgroup, projection and node counts,
verdicts, exit codes). They live in ``expected.json``, written from the
unrelabelled groups by ``make_expected.py``; two of them are also checked
against closed formulas here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import centlat
from relabel import derive_rng, pack, relabel_group, unpack

HERE = Path(__file__).resolve().parent


class Op(NamedTuple):
    """One timed operation; ``prepare`` builds its untimed inputs."""

    name: str
    run: Callable[..., list]
    prepare: Callable[[], tuple] = tuple


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


class Workload:
    """Inputs for a fixed number of passes, made from the seed up front.

    Every pass relabels its groups afresh, so one run averages over
    ``passes`` relabellings and the figures depend less on any one of them.
    """

    name = ""
    # seconds one pass took at the seed commit; turns --seconds into a pass
    # count, so the operation count never depends on the speed of the code
    nominal_pass_s = 1.0
    min_passes = 1
    deadline_s: float | None = None
    # how closely this workload's times follow the reference sample (run.py):
    # reported times are scaled by (nominal / reference) ** ref_exponent
    ref_exponent = 1.0

    def __init__(self, seed: int, root: Path, passes: int, tracer=None) -> None:
        self.seed = seed
        self.root = root
        self.passes = passes
        self.tracer = tracer
        self.expected = load_expected()[self.name]

    @classmethod
    def passes_for(cls, seconds: float) -> int:
        return max(cls.min_passes, round(seconds / cls.nominal_pass_s))

    def relabel(self, group, item: str, pass_index: int):
        """(table, perm) of ``group`` relabelled for one input of one pass."""
        return relabel_group(group, derive_rng(self.seed, self.name, item, pass_index))

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def count(self, name: str, n: int = 1) -> None:
        if self.tracer is not None:
            self.tracer.add(name, n)

    def close(self) -> None:
        pass


def _unpacked(*inputs: tuple) -> tuple:
    """(table, generator hints) pairs from their compact (bytes, hints) form."""
    return tuple((unpack(packed), hints) for packed, hints in inputs)


def _hints(group, perm) -> tuple:
    """The group's named generators, mapped through the relabelling."""
    return tuple((name, perm[i]) for name, i in group.generator_names)


def _check(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _validate(table, hints=None):
    return centlat.from_multiplication_table(len(table), table, hints)


def _cross_check(workload: Workload, problems: list, proj, label: str):
    """Both crh routes on one projection; disagreement is a failure."""
    criterion = centlat.crh_central_kernel_criterion(proj)
    definitional = centlat.is_centralizer_respecting(proj)
    if criterion.ok != definitional.ok:
        workload.count("homs.crh.disagree")
        problems.append(
            f"{label}: crh routes disagree (criterion={criterion.ok}, "
            f"definitional={definitional.ok})"
        )
    return definitional.ok


def _check_induced(problems: list, proj, label: str) -> int:
    """The induced map of a central-kernel crh projection is a lattice isomorphism."""
    lat_map = centlat.induced_map(proj)
    if not centlat.is_lattice_hom(lat_map) or not lat_map.is_bijective():
        problems.append(f"{label}: induced map is not a lattice isomorphism")
    return len(lat_map.node_map)


# ---------------------------------------------------------------------------
# sweep64: the dual-route decision over thousands of small central quotients


class Sweep64(Workload):
    name = "sweep64"
    nominal_pass_s = 6.0

    def __init__(self, seed, root, passes, tracer=None):
        super().__init__(seed, root, passes, tracer)
        self.inputs = [
            [(name, (pack(self.relabel(group, name, p)[0]), None)) for name, group in centlat.catalog(64)]
            for p in range(passes)
        ]

    def ops(self, pass_index):
        return [
            Op(name, partial(self._group, name), partial(_unpacked, packed))
            for name, packed in self.inputs[pass_index]
        ]

    def _group(self, name, table):
        problems: list = []
        g = _validate(*table)
        subgroups = centlat.all_subgroups(g)
        zmask = centlat.center(g).mask
        projections = crh = 0
        for sub in subgroups:
            if sub.mask & ~zmask:
                continue
            q, proj = centlat.quotient(g, sub)
            projections += 1
            label = f"{name} mod {list(sub.members)}"
            _check(problems, f"{label}: quotient order", q.order * len(sub), g.order)
            if _cross_check(self, problems, proj, label):
                crh += 1
                _check_induced(problems, proj, label)
        counts = [len(subgroups), projections, crh]
        _check(problems, f"{name}: (subgroups, projections, crh)", counts, self.expected[name])
        return problems


# ---------------------------------------------------------------------------
# large-groups: a few order-32..256 tables, validation and enumeration bound


def _elementary_abelian_subgroups(rank: int) -> int:
    """Subgroups of C2^rank: the sum of Gaussian binomials [rank, k]_2."""
    total = 0
    for k in range(rank + 1):
        num = den = 1
        for i in range(k):
            num *= 2 ** (rank - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


def _dihedral_subgroups(order: int) -> int:
    """Subgroups of the dihedral group of order 2m: tau(m) + sigma(m)."""
    m = order // 2
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    return len(divisors) + sum(divisors)


FAMILY_KINDS = ("dihedral", "quaternion", "semidihedral")
COVERS = {"cover_dq(7)": ("dihedral", "quaternion"), "cover_qsd(7)": ("quaternion", "semidihedral")}


def large_group_sources() -> dict:
    """The large-groups inputs as the library builds them; covers as CoverGroup."""
    fam, product = centlat.make_family, centlat.direct_product
    c2 = fam("cyclic", 2)
    sources = {f"{kind}(256)": fam(kind, 256) for kind in FAMILY_KINDS}
    sources["Q8xC2^3"] = product(fam("quaternion", 8), product(c2, product(c2, c2)))
    sources["D8xC2xC4"] = product(fam("dihedral", 8), product(c2, fam("cyclic", 4)))
    sources["C2^5"] = product(c2, product(c2, product(c2, product(c2, c2))))
    sources["cover_dq(7)"] = centlat.cover_group("dihedral_quaternion", 7)
    sources["cover_qsd(7)"] = centlat.cover_group("quaternion_semidihedral", 7)
    return sources


class LargeGroups(Workload):
    """Validation, enumeration, lattice and export of a few large tables.

    Tables carry their named generators mapped through the relabelling, as
    ``table(...)`` files may. Without them a cover's quotient gets a greedy,
    label-dependent generating set of 2 to 5 elements, and ``group_isomorphic``
    onto the family table took from 0.015 s to over 3 s depending on the seed:
    the backtracking blow-up that the ``iso`` workload measures on purpose.
    """

    name = "large-groups"
    nominal_pass_s = 10.5
    # 9 operations a pass, with an odd count so the median falls inside one
    # operation's cluster of latencies rather than in the gap between two
    # groups; 3 passes average over three relabellings of every group
    min_passes = 3

    def __init__(self, seed, root, passes, tracer=None):
        super().__init__(seed, root, passes, tracer)
        sources = large_group_sources()
        families = {kind: centlat.make_family(kind, 128) for kind in FAMILY_KINDS}
        self.inputs = []
        for p in range(passes):
            groups = []
            for name, source in sources.items():
                group = source.group if name in COVERS else source
                table, perm = self.relabel(group, name, p)
                kernels = None
                if name in COVERS:
                    kernels = [[perm[a] for a in z.members] for z in (source.z_first, source.z_second)]
                groups.append((name, (pack(table), _hints(group, perm)), kernels))
            tables = {}
            for kind, group in families.items():
                table, perm = self.relabel(group, kind, p)
                tables[kind] = (pack(table), _hints(group, perm))
            self.inputs.append((groups, tables))

    def ops(self, pass_index):
        groups, families = self.inputs[pass_index]
        ops = []
        for name, packed, kernels in groups:
            tables = (packed, *(families[kind] for kind in COVERS.get(name, ())))
            ops.append(Op(name, partial(self._group, name, kernels), partial(_unpacked, *tables)))
        ops.append(Op("families(128)", self._families, partial(_unpacked, *families.values())))
        return ops

    def _group(self, name, kernels, table, *family_tables):
        problems: list = []
        want = self.expected[name]
        g = _validate(*table)
        subgroups = centlat.all_subgroups(g)
        _check(problems, f"{name}: subgroups", len(subgroups), want["subgroups"])
        if name == "dihedral(256)":
            want_formula = _dihedral_subgroups(256)
            _check(problems, f"{name}: subgroups vs tau(m)+sigma(m)", len(subgroups), want_formula)
        if name == "C2^5":
            want_formula = _elementary_abelian_subgroups(5)
            _check(problems, f"{name}: subgroups vs Gaussian binomials", len(subgroups), want_formula)
        lattice = centlat.lattice_of(g)
        _check(problems, f"{name}: lattice nodes", lattice.node_count(), want["nodes"])
        doc = json.loads(json.dumps(centlat.lattice_to_json(lattice), indent=2))
        _check(problems, f"{name}: JSON nodes", len(doc["nodes"]), want["nodes"])
        dot = centlat.lattice_to_dot(lattice)
        _check(problems, f"{name}: DOT nodes", dot.count(" [label="), want["nodes"])
        if kernels is not None:
            self._corollary(problems, name, g, kernels, family_tables, want)
        return problems

    def _corollary(self, problems, name, g, kernels, family_tables, want):
        """The `verify corollary --n 7` path through one cover."""
        families = {kind: _validate(*table) for kind, table in zip(COVERS[name], family_tables)}
        for elements, kind in zip(kernels, COVERS[name]):
            label = f"{name} mod {kind} kernel"
            z = centlat.closure(g, elements)
            _check(problems, f"{label}: order", len(z), 2)
            q, proj = centlat.quotient(g, z)
            _check(problems, f"{label}: crh", _cross_check(self, problems, proj, label), True)
            nodes = _check_induced(problems, proj, label)
            _check(problems, f"{label}: induced map nodes", nodes, want["nodes"])
            iso = centlat.group_isomorphic(q, families[kind])
            if iso is None or not iso.is_bijective():
                problems.append(f"{label}: quotient is not isomorphic to {kind}(128)")

    def _families(self, *tables):
        """The corollary's last step: the three family lattices are isomorphic."""
        problems: list = []
        lattices = {kind: centlat.lattice_of(_validate(*table)) for kind, table in zip(FAMILY_KINDS, tables)}
        for i, a in enumerate(FAMILY_KINDS):
            want = self.expected["families(128)"]["nodes"]
            _check(problems, f"{a}(128): lattice nodes", lattices[a].node_count(), want)
            for b in FAMILY_KINDS[i + 1 :]:
                if centlat.lattices_isomorphic(lattices[a], lattices[b]) is None:
                    problems.append(f"{a}(128) and {b}(128) lattices not isomorphic")
        return problems


# ---------------------------------------------------------------------------
# cli: one client, a fresh interpreter per command


def _family_doc(group, table, perm) -> dict:
    """A table file for ``table(...)``: relabelled, generators mapped through perm."""
    return {"order": group.order, "table": table, "generators": dict(_hints(group, perm))}


# every command runs twice a pass; expected.json holds its exit code and output summary
CLI_COMMANDS = (
    ("lattice", 'table("sd443.json")'),
    ("lattice", 'table("d32.json")', "--dot"),
    ("lattice", "quaternion(8)"),
    ("lattice", "product(dihedral(8),cyclic(4))", "--dot"),
    ("check-crh", 'quotient(table("sd443.json"),[x^2*y^2])'),
    ("check-crh", 'quotient(table("d16.json"),[x^4])'),
    ("check-crh", 'quotient(table("d8.json"),[x])'),
    ("iso", 'table("d16.json")', 'table("sd16.json")'),
    ("iso", 'table("d16.json")', "dihedral(16)"),
    ("iso", "dihedral(8)", "quaternion(8)"),
    ("lattice", "cover_dq(4)", "--dot"),
    ("export", 'table("c4c8.json")'),
    ("export", "quotient(semidirect(4,4,3),[x^2*y^2])"),
)


def cli_summary(args: tuple, stdout: bytes):
    """The label-invariant part of a command's output."""
    text = stdout.decode("utf-8")
    if "--dot" in args:
        return {"nodes": text.count(" [label=")}
    doc = json.loads(text)
    command = args[0]
    if command == "lattice":
        return {"nodes": len(doc["nodes"]), "orders": [n["order"] for n in doc["nodes"]]}
    if command == "check-crh":
        criterion = doc["criterion"]
        return {
            "definitional": doc["definitional"]["ok"],
            "criterion": criterion["ok"] if criterion["applicable"] else None,
            "quotient_order": doc["quotient_order"],
        }
    if command == "iso":
        return {"group": doc["group_isomorphic"], "lattice": doc["lattice_isomorphic"]}
    if "map" in doc:
        return {"source": doc["source"]["order"], "target": doc["target"]["order"]}
    return {"order": doc["order"]}


def cli_sources() -> dict:
    """The groups behind the CLI's table files, by file stem."""
    fam = centlat.make_family
    return {
        "sd443": centlat.semidirect_cyclic(4, 4, 3),
        "d8": fam("dihedral", 8),
        "d16": fam("dihedral", 16),
        "sd16": fam("semidihedral", 16),
        "d32": fam("dihedral", 32),
        "c4c8": centlat.direct_product(fam("cyclic", 4), fam("cyclic", 8)),
    }


class Cli(Workload):
    name = "cli"
    nominal_pass_s = 5.0
    # a process start slows less than the reference when the machine is busy:
    # over 30 runs whose reference time ranged over 1.8x, log latency against
    # log reference had a slope of 0.72 (ops_per_s) to 0.87 (op_p50_ms)
    ref_exponent = 0.75
    traced_runner = HERE / "clirunner.py"

    def __init__(self, seed, root, passes, tracer=None):
        super().__init__(seed, root, passes, tracer)
        self.work = root / "perfbench" / "out" / f"cli-{os.getpid()}"
        sources = cli_sources()
        self.tables = []
        for p in range(passes):
            (self.work / str(p)).mkdir(parents=True)
            docs = {}
            for name, group in sources.items():
                docs[name] = _family_doc(group, *self.relabel(group, name, p))
                (self.work / str(p) / f"{name}.json").write_text(json.dumps(docs[name]), encoding="utf-8")
            self.tables.append(docs)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kb = 0
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def ops(self, pass_index):
        ops = []
        for i, args in enumerate(CLI_COMMANDS):
            first: dict = {}
            for run in (0, 1):
                ops.append(Op(f"{' '.join(args)} #{run}", partial(self._command, pass_index, i, args, first)))
        return ops

    def _command(self, pass_index, index, args, first):
        cwd = self.work / str(pass_index)
        if self.tracer is None:
            argv = [sys.executable, "-m", "centlat", *args]
        else:
            spans_path = self.work / "spans.json"
            argv = [sys.executable, str(self.traced_runner), str(spans_path), *args]
        code, stdout, stderr, wall = self._spawn(argv, cwd)
        problems: list = []
        want = self.expected[index]
        if code != want["exit"]:
            problems.append(f"{args}: exit {code}, expected {want['exit']}: {stderr[-300:]!r}")
            return problems
        if self.tracer is not None:
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            self.tracer.merge(trace, self.tracer.op)
            main = [end - start for name, start, end, _, _ in trace["spans"] if name == "cli.main"]
            self.tracer.add("cli.process_s", wall - sum(main))
        if "stdout" in first:
            if stdout != first["stdout"]:
                problems.append(f"{args}: stdout differs between two runs")
        else:
            first["stdout"] = stdout
        try:
            _check(problems, f"{args}: output", cli_summary(args, stdout), want["output"])
        except (ValueError, KeyError) as exc:
            problems.append(f"{args}: unreadable output ({exc})")
        if args[0] == "export" and args[1].startswith("table("):
            source = self.tables[pass_index][args[1].split('"')[1].removesuffix(".json")]
            _check(problems, f"{args}: exported table", json.loads(stdout)["table"], source["table"])
        return problems

    def _spawn(self, argv, cwd):
        """Run one child through the spawner; returns (exit code, stdout, stderr, wall s)."""
        request = {"argv": argv, "cwd": str(cwd), "env": self.env}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        return reply["code"], reply["stdout"].encode("latin-1"), reply["stderr"], reply["wall_s"]

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=60)
        self.spawner.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# iso: the two backtracking searches on relabelled inputs, under a deadline


ISO_PAIRS = (
    "D8xD8",
    "D10xD10",
    "D12xD12",
    "D6xD12",
    "(Z4:Z4)xD8",
    "S3^3",
    "dihedral(256)",
    "D8xD8 vs Q8xD8",
    "dihedral(256) vs quaternion(256)",
    "cover_dq(7) vs cover_qsd(7)",
)


def iso_groups() -> dict:
    """Every group named in ISO_PAIRS, as the library builds it."""
    fam, product = centlat.make_family, centlat.direct_product
    d = {n: fam("dihedral", n) for n in (6, 8, 10, 12)}
    return {
        "D8xD8": product(d[8], d[8]),
        "D10xD10": product(d[10], d[10]),
        "D12xD12": product(d[12], d[12]),
        "D6xD12": product(d[6], d[12]),
        "(Z4:Z4)xD8": product(centlat.semidirect_cyclic(4, 4, 3), d[8]),
        "S3^3": product(d[6], product(d[6], d[6])),
        "Q8xD8": product(fam("quaternion", 8), d[8]),
        "dihedral(256)": fam("dihedral", 256),
        "quaternion(256)": fam("quaternion", 256),
        "cover_dq(7)": centlat.cover_group("dihedral_quaternion", 7).group,
        "cover_qsd(7)": centlat.cover_group("quaternion_semidihedral", 7).group,
    }


def iso_sides(pair: str) -> tuple[str, str]:
    """The left and right group names of a pair; a bare name pairs a group with itself."""
    left, _, right = pair.partition(" vs ")
    return left, right or left


class Iso(Workload):
    name = "iso"
    nominal_pass_s = 14.0
    # CPU seconds; a search still running then is stopped and counted failed
    deadline_s = 2.0

    def __init__(self, seed, root, passes, tracer=None):
        super().__init__(seed, root, passes, tracer)
        groups = iso_groups()
        self.inputs = []
        for p in range(passes):
            inputs = []
            for pair in ISO_PAIRS:
                left, right = (groups[name] for name in iso_sides(pair))
                source = ([list(r) for r in left.table], left.generator_names)
                inputs.append((pair, source, self.relabel(right, pair, p)[0]))
            self.inputs.append(inputs)

    def ops(self, pass_index):
        ops = []
        for pair, source, table in self.inputs[pass_index]:
            want = self.expected[pair]
            build = partial(self._build, source, table)
            ops.append(Op(f"group {pair}", partial(self._group_iso, pair, want["group"]), build))
            lattices = partial(self._lattices, build)
            ops.append(Op(f"lattice {pair}", partial(self._lattice_iso, pair, want["lattice"]), lattices))
        return ops

    @staticmethod
    def _build(source, table):
        return _validate(*source), _validate(table)

    @staticmethod
    def _lattices(build):
        return tuple(centlat.lattice_of(g) for g in build())

    @staticmethod
    def _group_iso(pair, want, left, right):
        iso = centlat.group_isomorphic(left, right)
        if iso is not None and not iso.is_bijective():
            return [f"group {pair}: returned map is not bijective"]
        if (iso is not None) != want:
            return [f"group {pair}: isomorphic={iso is not None}, expected {want}"]
        return []

    @staticmethod
    def _lattice_iso(pair, want, left, right):
        found = centlat.lattices_isomorphic(left, right)
        if (found is not None) != want:
            return [f"lattice {pair}: isomorphic={found is not None}, expected {want}"]
        return []


WORKLOADS = {w.name: w for w in (Sweep64, LargeGroups, Cli, Iso)}
