from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import centlat
import centlat.cli as centlat_cli
from centlat import group_from_json, hom_from_json, make_family
from centlat.errors import InternalInconsistencyError, KernelNotCentralError, NotCrhError


def out_json(proc):
    return json.loads(proc.stdout)


# ---------------------------------------------------------------- exit code 0


def test_lattice_json(cli):
    proc = cli("lattice", "quaternion(8)")
    assert proc.returncode == 0
    doc = out_json(proc)
    assert doc["group_order"] == 8
    assert [n["order"] for n in doc["nodes"]] == [2, 4, 4, 4, 8]
    assert doc["involution"] == [4, 1, 2, 3, 0]


def test_runs_without_numpy(cli):
    # NumPy is not a dependency: block its import and run a command in-process
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import centlat, centlat.cli\n"
        "sys.exit(centlat.cli.main(['lattice', 'quaternion(8)']))\n"
    )
    src = str(Path(centlat.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8", env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == cli("lattice", "quaternion(8)").stdout


def test_runs_without_dataclasses(cli):
    # records are NamedTuples: importing the package loads neither dataclasses
    # nor inspect, and with dataclasses blocked every kind of command prints
    # what it prints normally
    commands = [
        ["lattice", "quaternion(8)"],
        ["check-crh", "quotient(semidirect(4,4,3),[x^2*y^2])"],  # crh
        ["check-crh", "quotient(dihedral(8),[x^2])"],  # not crh, with a witness
        ["check-crh", "quotient(dihedral(8),[x])"],  # criterion inapplicable
        ["iso", "dihedral(8)", "quaternion(8)"],
        ["export", "quotient(dihedral(8),[x^2])"],
    ]
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import centlat, centlat.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
        "sys.modules['dataclasses'] = None\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(centlat.cli.main(argv))\n"
    )
    src = str(Path(centlat.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=120,
    )
    expected = "".join(f"{p.stdout}{p.returncode}\n" for p in (cli(*argv) for argv in commands))
    assert (proc.stderr, proc.stdout) == ("", "[]\n" + expected)


def test_only_verify_loads_the_suites():
    # every other command runs, with its usual exit code, without importing
    # centlat.verify; verify figure3 then loads it and prints its golden report
    commands = [
        ["lattice", "quaternion(8)"],
        ["check-crh", "quotient(dihedral(8),[x^2])"],
        ["iso", "dihedral(8)", "quaternion(8)"],
        ["export", "quotient(dihedral(8),[x^2])"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import centlat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [centlat.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'centlat.verify' in sys.modules)\n"
        "code = centlat.cli.main(['verify', 'figure3'])\n"
        "print(code, 'centlat.verify' in sys.modules)\n"
    )
    src = str(Path(centlat.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=120,
    )
    golden = (Path(__file__).resolve().parent / "golden" / "verify_figure3.out").read_text(encoding="utf-8")
    assert (proc.stderr, proc.stdout) == ("", f"[0, 1, 0, 0] False\n{golden}0 True\n")


def test_lattice_dot(cli):
    proc = cli("lattice", "quaternion(8)", "--dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph centralizer_lattice {")
    assert "N4 -> N1;" in proc.stdout
    assert "N0 -> N4 [style=dashed, dir=none, constraint=false];" in proc.stdout


def test_check_crh_positive(cli):
    proc = cli("check-crh", "quotient(semidirect(4,4,3),[x^2*y^2])")
    assert proc.returncode == 0
    doc = out_json(proc)
    assert doc["kernel"] == [0, 10]
    assert doc["definitional"] == {"ok": True, "witness": None}
    assert doc["criterion"]["applicable"] and doc["criterion"]["ok"]


def test_iso_lattices_agree_groups_differ(cli):
    proc = cli("iso", "dihedral(8)", "quaternion(8)")
    assert proc.returncode == 0
    doc = out_json(proc)
    assert doc["lattice_isomorphic"] is True
    assert doc["group_isomorphic"] is False
    assert doc["lattice_node_map"] == [0, 1, 2, 3, 4]


def test_verify_figure3(cli):
    proc = cli("verify", "figure3")
    assert proc.returncode == 0
    doc = out_json(proc)
    assert doc["suite"] == "figure3" and doc["pass"] is True
    assert len(doc["cases"]) == 6
    assert all(case["pass"] for case in doc["cases"])


def test_verify_corollary(cli):
    proc = cli("verify", "corollary", "--n", "3")
    assert proc.returncode == 0
    assert out_json(proc)["pass"] is True


def test_export_group_round_trips(cli):
    proc = cli("export", "semidihedral(16)")
    assert proc.returncode == 0
    g = group_from_json(proc.stdout)
    assert g.same_table(make_family("semidihedral", 16))


def test_export_quotient_exports_hom(cli):
    proc = cli("export", "quotient(dihedral(8),[x^2])")
    assert proc.returncode == 0
    doc = out_json(proc)
    assert set(doc) == {"source", "target", "map"}
    h = hom_from_json(doc)
    assert h.mapping == (0, 1, 0, 1, 2, 3, 2, 3)


def test_table_import(cli, tmp_path):
    exported = cli("export", "quaternion(16)")
    path = tmp_path / "q16.json"
    path.write_text(exported.stdout, encoding="utf-8")
    proc = cli("lattice", f'table("{path}")')
    assert proc.returncode == 0
    assert out_json(proc)["group_order"] == 16


# ---------------------------------------------------------------- exit code 1


def test_check_crh_negative_with_witnesses(cli):
    proc = cli("check-crh", "quotient(dihedral(8),[x^2])")
    assert proc.returncode == 1
    doc = out_json(proc)
    assert doc["definitional"]["ok"] is False
    w = doc["definitional"]["witness"]
    assert w == {
        "subgroup": [0, 4],
        "image_of_centralizer": [0, 2],
        "centralizer_of_image": [0, 1, 2, 3],
    }
    assert doc["criterion"]["applicable"] is True
    assert doc["criterion"]["ok"] is False
    assert doc["criterion"]["witness_pair"] == [1, 4]
    assert doc["criterion"]["witness_commutator"] == 2


def test_check_crh_criterion_inapplicable(cli):
    # kernel = the rotation subgroup: normal but not central
    proc = cli("check-crh", "quotient(dihedral(8),[x])")
    assert proc.returncode == 1
    doc = out_json(proc)
    assert doc["definitional"]["ok"] is False
    assert doc["criterion"]["applicable"] is False
    assert "reason" in doc["criterion"]


def test_iso_negative(cli):
    proc = cli("iso", "dihedral(12)", "quaternion(8)")
    assert proc.returncode == 1
    doc = out_json(proc)
    assert doc["lattice_isomorphic"] is False
    assert doc["lattice_node_map"] is None


# --------------------------------------------------------------- exit code 64


def test_usage_errors(cli):
    assert cli().returncode == 64                          # no subcommand
    assert cli("frobnicate").returncode == 64              # unknown subcommand
    assert cli("lattice", "wedge(4)").returncode == 64     # parse error
    assert cli("lattice", "cyclic(4) junk").returncode == 64
    assert cli("check-crh", "dihedral(8)").returncode == 64  # not a quotient
    assert cli("verify", "corollary").returncode == 64     # missing --n
    assert cli("verify", "corollary", "--n", "9").returncode == 64
    assert cli("verify", "figure3", "--n", "3").returncode == 64
    assert cli("verify", "nonsense").returncode == 64
    assert cli("lattice", "cyclic(300)").returncode == 64  # over the cap
    assert cli("lattice", "cyclic(40)", "--cap", "32").returncode == 64
    assert cli("lattice", "semidirect(4,2,2)").returncode == 64  # bad action
    assert cli("lattice", "quotient(dihedral(8),[x^9*z])").returncode == 64
    # quotient by a non-normal subgroup
    assert cli("export", "quotient(dihedral(8),[y])").returncode == 64


def test_verify_takes_no_cap(capsys):
    # the suites build their groups at fixed orders, so a cap there would be ignored
    assert centlat_cli.main(["verify", "figure3", "--cap", "8"]) == 64
    assert "--cap" in capsys.readouterr().err


def test_cap_above_the_default_builds_larger_groups(capsys):
    # expr hands the caller's cap to the family constructors, whose own cap
    # only defaults to DEFAULT_ORDER_CAP: a fixed check at that default
    # inside make_family would refuse this order-300 group under --cap 512
    assert centlat_cli.main(["lattice", "cyclic(300)", "--cap", "512"]) == 0
    assert json.loads(capsys.readouterr().out)["group_order"] == 300
    assert centlat_cli.main(["lattice", "cyclic(300)"]) == 64
    assert "order 300 exceeds cap 256" in capsys.readouterr().err


def test_usage_errors_print_to_stderr(cli):
    proc = cli("lattice", "wedge(4)")
    assert proc.stdout == ""
    assert "parse error" in proc.stderr


# --------------------------------------------------------------- exit code 74


def test_io_errors(cli, tmp_path):
    proc = cli("lattice", f'table("{tmp_path}/missing.json")')
    assert proc.returncode == 74
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli("lattice", f'table("{bad}")').returncode == 74
    notgroup = tmp_path / "notgroup.json"
    notgroup.write_text('{"order": 2, "table": [[0, 1], [1, 2]]}', encoding="utf-8")
    assert cli("lattice", f'table("{notgroup}")').returncode == 74
    # malformed tables end in 74 with a message, never in a traceback
    for name, content in (
        ("rows.json", b'{"order": 2, "table": [1, 2]}'),
        ("latin1.json", '{"order": 1, "table": [[0]], "labels": ["\u00e9"]}'.encode("latin-1")),
        ("boolorder.json", b'{"order": true, "table": [[0]]}'),
    ):
        path = tmp_path / name
        path.write_bytes(content)
        proc = cli("lattice", f'table("{path}")')
        assert proc.returncode == 74, name
        assert proc.stdout == "" and "Traceback" not in proc.stderr, name


def test_a_table_file_that_is_not_utf8_is_named_in_process(tmp_path, monkeypatch, capsys):
    # the latin-1 file above, read in-process so that its message is pinned
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes('{"order": 1, "table": [[0]], "labels": ["é"]}'.encode("latin-1"))
    assert centlat_cli.main(["lattice", 'table("latin1.json")']) == 74
    out, err = capsys.readouterr()
    reason = "'utf-8' codec can't decode byte 0xe9 in position 41: invalid continuation byte"
    assert (out, err) == ("", f"centlat: error: latin1.json is not UTF-8 text: {reason}\n")


def test_io_errors_name_the_path_pathlib_normalises(cli, tmp_path):
    # table() reads through pathlib, which drops a leading "./", collapses
    # "//" and strips a trailing "/"; the message names the normalised path
    (tmp_path / "dir").mkdir()
    for arg, message in (
        ("./missing.json", "[Errno 2] No such file or directory: 'missing.json'"),
        ("dir//missing.json", "[Errno 2] No such file or directory: 'dir/missing.json'"),
        ("dir/", "[Errno 21] Is a directory: 'dir'"),
    ):
        proc = cli("lattice", f'table("{arg}")', cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (74, "", f"centlat: error: {message}\n"), arg


# ------------------------------------------------------ error classes to codes


def test_crh_route_disagreement_exits_2(monkeypatch, capsys):
    real = centlat.homs.crh_central_kernel_criterion

    def flipped(h):
        verdict = real(h)
        return verdict._replace(ok=not verdict.ok)

    monkeypatch.setattr(centlat.homs, "crh_central_kernel_criterion", flipped)
    for argv in (["verify", "corollary", "--n", "3"], ["verify", "figure3"]):
        assert centlat_cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("centlat: internal inconsistency: crh routes disagree")
    # check-crh prints both verdicts, then reports the disagreement
    assert centlat_cli.main(["check-crh", "quotient(dihedral(8),[x^2])"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["criterion"]["ok"] is True
    assert err == "centlat: internal inconsistency: crh routes disagree\n"


@pytest.mark.parametrize(
    "error, code",
    [
        (InternalInconsistencyError("join must bound both"), 2),
        (NotCrhError("not crh"), 64),
        (KernelNotCentralError(1, 4), 64),
    ],
)
def test_every_package_error_maps_to_an_exit_code(monkeypatch, capsys, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(centlat_cli, "lattice_of", fail)
    assert centlat_cli.main(["lattice", "quaternion(8)"]) == code
    out, err = capsys.readouterr()
    assert out == "" and str(error) in err


# -------------------------------------------------------------- determinism


def test_output_is_deterministic(cli):
    for args in (
        ("lattice", "semidihedral(16)"),
        ("check-crh", "quotient(cover_dq(3),[y^2])"),
        ("iso", "dihedral(16)", "quaternion(16)"),
    ):
        first = cli(*args)
        second = cli(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
