"""Command line interface.

Exit codes: 0 the checked property holds (or output was produced), 1 it was
checked and is false (a witness is included in the JSON), 2 two independent
computations disagreed or a structural self-check failed, 74 I/O and table
errors, 64 any other usage, parse or parameter error.  All output on stdout
is deterministic; diagnostics go to stderr.

Only ``centlat verify`` loads ``centlat.verify``, the verification suites;
every other command starts without compiling or importing it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import DEFAULT_ORDER_CAP, group_to_json
from .errors import CentlatError, InternalInconsistencyError, TableJsonError, TableValidationError
from .expr import eval_group_expr, parse_group_expr
from .homs import _crh_routes, group_isomorphic, hom_to_json, kernel
from .lattice import lattice_of, lattice_to_dot, lattice_to_json, lattices_isomorphic

# each verification suite and the name of its report function in verify
_SUITES = {
    "figure3": "worked_example_report",
    "corollary": "family_lattice_report",
    "theoremc-sweep": "central_kernel_sweep_report",
    "functor-laws": "functor_law_report",
}


class _UsageError(CentlatError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); we want 64
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="centlat",
        description="Centralizer lattices of small finite groups and the maps between them.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_ORDER_CAP,
            help=f"refuse groups larger than this (default {DEFAULT_ORDER_CAP})",
        )

    p = sub.add_parser("lattice", help="print the centralizer lattice of a group expression")
    p.add_argument("expr", help='group expression, e.g. "quaternion(8)"')
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--dot", action="store_true", help="Graphviz output instead of JSON")
    add_cap(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser(
        "check-crh",
        help="decide whether a quotient projection respects centralizers",
    )
    p.add_argument("expr", help="a quotient(...) expression")
    add_cap(p)
    p.set_defaults(func=cmd_check_crh)

    p = sub.add_parser("iso", help="compare the centralizer lattices of two groups")
    p.add_argument("left")
    p.add_argument("right")
    add_cap(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("verify", help="run one of the built-in verification suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--n", type=int, default=None, help="index for the corollary suite (3..7)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="print a group table (or quotient homomorphism) as JSON")
    p.add_argument("expr")
    add_cap(p)
    p.set_defaults(func=cmd_export)
    return parser


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def cmd_lattice(args: argparse.Namespace) -> int:
    group = eval_group_expr(parse_group_expr(args.expr), args.cap).group
    lat = lattice_of(group, args.cap)
    if args.dot:
        sys.stdout.write(lattice_to_dot(lat))
    else:
        _emit(lattice_to_json(lat))
    return 0


def cmd_check_crh(args: argparse.Namespace) -> int:
    result = eval_group_expr(parse_group_expr(args.expr), args.cap)
    if result.projection is None:
        raise _UsageError("check-crh requires a quotient(...) expression")
    proj = result.projection
    routes = _crh_routes(proj, args.cap)
    definitional, criterion = routes.definitional, routes.criterion
    witness = definitional.witness
    _emit({
        "expression": args.expr,
        "source_order": proj.source.order,
        "quotient_order": proj.target.order,
        "kernel": list(kernel(proj).members),
        "definitional": {**definitional._asdict(), "witness": witness and witness._asdict()},
        "criterion": {"applicable": False, "reason": routes.reason} if criterion is None
        else {"applicable": True, **criterion._asdict()},
    })
    if not routes.agree:
        raise InternalInconsistencyError("crh routes disagree")
    return 0 if definitional.ok else 1


def cmd_iso(args: argparse.Namespace) -> int:
    left = eval_group_expr(parse_group_expr(args.left), args.cap).group
    right = eval_group_expr(parse_group_expr(args.right), args.cap).group
    lat_map = lattices_isomorphic(lattice_of(left, args.cap), lattice_of(right, args.cap))
    group_iso = group_isomorphic(left, right)
    doc = {
        "left": args.left,
        "right": args.right,
        "group_isomorphic": group_iso is not None,
        "lattice_isomorphic": lat_map is not None,
        "lattice_node_map": list(lat_map.node_map) if lat_map else None,
    }
    _emit(doc)
    return 0 if lat_map is not None else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # the package's one function-level import: no other command loads the suites

    run = getattr(verify, _SUITES[args.suite])
    if args.suite == "corollary":
        if args.n is None or not 3 <= args.n <= 7:
            raise _UsageError("the corollary suite requires --n N with 3 <= N <= 7")
        report = run(args.n)
    else:
        if args.n is not None:
            raise _UsageError("--n only applies to the corollary suite")
        report = run()
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_export(args: argparse.Namespace) -> int:
    result = eval_group_expr(parse_group_expr(args.expr), args.cap)
    if result.projection is not None:
        _emit(hom_to_json(result.projection))
    else:
        _emit(group_to_json(result.group))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InternalInconsistencyError as e:
        print(f"centlat: internal inconsistency: {e}", file=sys.stderr)
        return 2
    except (OSError, TableJsonError, TableValidationError) as e:
        print(f"centlat: error: {e}", file=sys.stderr)
        return 74
    except CentlatError as e:  # usage errors included
        print(f"centlat: error: {e}", file=sys.stderr)
        return 64


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
