"""Write perfbench/expected.json from the groups as the library builds them.

    python3 perfbench/make_expected.py

The benchmark feeds the library relabelled copies of these groups and checks
every label-invariant answer against this file, so an answer that depends on
element labels, or an algorithm change that alters one, fails the run.
Rerun only when the set of operations changes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import centlat  # noqa: E402
import workloads  # noqa: E402


def sweep64() -> dict:
    out = {}
    for name, g in centlat.catalog(64):
        zmask = centlat.center(g).mask
        subgroups = centlat.all_subgroups(g)
        projections = crh = 0
        for sub in subgroups:
            if sub.mask & ~zmask:
                continue
            projections += 1
            crh += centlat.is_centralizer_respecting(centlat.quotient(g, sub)[1]).ok
        out[name] = [len(subgroups), projections, crh]
    totals = [sum(v[i] for v in out.values()) for i in (1, 2)]
    if totals != [2724, 2588]:
        raise SystemExit(f"sweep64 totals {totals}, expected [2724, 2588]")
    return out


def large_groups() -> dict:
    out = {}
    for name, source in workloads.large_group_sources().items():
        g = source.group if name in workloads.COVERS else source
        out[name] = {
            "subgroups": len(centlat.all_subgroups(g)),
            "nodes": centlat.lattice_of(g).node_count(),
        }
    out["families(128)"] = {"nodes": centlat.lattice_of(centlat.make_family("dihedral", 128)).node_count()}
    return out


def cli() -> list:
    """Exit code and output summary of every command, on unrelabelled tables."""
    out = []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for name, group in workloads.cli_sources().items():
            doc = centlat.group_to_json(group)
            Path(work, f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for args in workloads.CLI_COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "centlat", *args], cwd=work, env=env, capture_output=True
            )
            summary = workloads.cli_summary(args, proc.stdout)
            out.append({"args": list(args), "exit": proc.returncode, "output": summary})
    return out


def iso() -> dict:
    groups = workloads.iso_groups()
    out = {}
    for pair in workloads.ISO_PAIRS:
        left, right = (groups[n] for n in workloads.iso_sides(pair))
        lattices = centlat.lattice_of(left), centlat.lattice_of(right)
        out[pair] = {
            "group": centlat.group_isomorphic(left, right) is not None,
            "lattice": centlat.lattices_isomorphic(*lattices) is not None,
        }
    return out


def main() -> None:
    doc = {"sweep64": sweep64(), "large-groups": large_groups(), "cli": cli(), "iso": iso()}
    # one entry a line, so a change to one expected value is a one-line diff
    lines = []
    for workload, entries in doc.items():
        items = entries.items() if isinstance(entries, dict) else enumerate(entries)
        body = ",\n".join(
            (f"  {json.dumps(k)}: " if isinstance(entries, dict) else "  ") + json.dumps(v) for k, v in items
        )
        brackets = "{}" if isinstance(entries, dict) else "[]"
        lines.append(f"{json.dumps(workload)}: {brackets[0]}\n{body}\n {brackets[1]}")
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    json.loads(text)
    (HERE / "expected.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
