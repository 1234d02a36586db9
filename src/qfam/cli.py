"""Batch command-line front end.

Parses JSON documents, dispatches to the library checks, and emits either
a human-readable text report or a schema-versioned structured one. Exit
codes follow the scripting contract: 0 when every check passes, 1 when a
check fails, 2 for unusable input (parse errors, shape mismatches,
violated hypotheses) and for a check that ran out of memory.

COMMANDS is the command table. Each entry gives a command's document kinds
(their count is its arity), its help, and check(tol, *documents), which
returns (checks, extras). One runner parses the documents, calls the check
and builds the report; a PreconditionError from the check becomes one
failing check, named by the entry's hypothesis, with status
hypothesis-violation. enumerate-classical and run-suite read no documents.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable

import numpy as np

from .algebra import DEFAULT_TOL
from .documents import parse_spec_file, serialize
from .errors import PreconditionError, QfamError
from .families import commutation_defect, compose_families, invariance_defects
from .morphisms import enumerate_set_map_tables
from .representations import magic_unitary_check, modular_report, podles_rank
from .semigroups import (
    action_defect,
    cancellation_rank,
    coassociativity_defect,
    counit_defect,
)
from .suites import SUITES, CheckOutcome, run_suite

SCHEMA_VERSION = "1"


@dataclass
class CheckReport:
    """Everything one invocation produced, before formatting."""

    command: str
    inputs: list[str]
    tol: float
    seed: int
    checks: list[CheckOutcome]
    extras: dict = field(default_factory=dict)
    status: str = "pass"  # pass | fail | hypothesis-violation
    elapsed_seconds: float = 0.0

    def settle(self) -> "CheckReport":
        self.checks = sorted(self.checks, key=lambda c: c.name)
        if self.status == "pass" and any(not c.passed for c in self.checks):
            self.status = "fail"
        return self

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "hypothesis-violation": 2}[self.status]


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3g}"


def _strict(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def _json_line(doc) -> str:
    """doc as one line of strict, compact JSON."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def emit_report(report: CheckReport, fmt: str) -> str:
    """Render a report: text for eyes, structured JSON for scripts."""
    if fmt == "structured":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": report.command,
            "inputs": report.inputs,
            "tol": report.tol,
            "seed": report.seed,
            "status": report.status,
            "elapsed_seconds": report.elapsed_seconds,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "defect": c.defect,
                    "threshold": c.threshold,
                    "detail": c.detail,
                }
                for c in report.checks
            ],
        }
        doc.update(report.extras)
        try:
            return _json_line(doc)
        except ValueError:  # a NaN or inf; only then rebuild the report with nulls
            return _json_line(_strict(doc))
    lines = [f"{report.command}: " + (" ".join(report.inputs) or "(no inputs)")]
    width = max((len(c.name) for c in report.checks), default=0)
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        line = f"  {c.name:<{width}}  {mark}"
        if c.defect is not None:
            line += f"  defect {_fmt(c.defect)}"
            if c.threshold is not None:
                line += f" (limit {_fmt(c.threshold)})"
        if c.detail:
            line += f"  [{c.detail}]"
        lines.append(line)
    for key, value in report.extras.items():
        if key == "tables" and isinstance(value, list):
            lines.extend("    " + " ".join(str(v) for v in t) for t in value)
        elif isinstance(value, float):
            lines.append(f"  {key}: {_fmt(value)}")
        elif not isinstance(value, (dict, list)):
            lines.append(f"  {key}: {value}")
    defects = [c.defect for c in report.checks if c.defect is not None]
    worst = float(np.max(defects)) if defects else None  # NaN propagates
    tail = f"status: {report.status}"
    if report.status != "pass" and worst is not None:
        tail += f" (worst defect {_fmt(worst)})"
    lines.append(tail)
    return "\n".join(lines)


# -- commands ---------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One entry of the command table (see the module docstring)."""

    kinds: tuple[str, ...]
    help: str
    check: Callable
    hypothesis: str | None = None


def _verify_hom(tol, phi):
    bound = phi.hom_bound(tol)
    checks = [CheckOutcome.bounded(n, v, bound) for n, v in phi.defect_report.items()]
    return checks, {"matrix_scale": phi.scale}


def _compose(tol, first, second):
    checks = [
        CheckOutcome.bounded(
            label,
            np.max(list(fam.morphism.defect_report.values())),
            fam.morphism.hom_bound(tol),
        )
        for label, fam in (("first-is-hom", first), ("second-is-hom", second))
    ]
    return checks, {"result": serialize(compose_families(first, second))}


def _check_invariant(tol, fam, omega):
    if not omega.is_state(tol):
        raise PreconditionError(
            "the functional is not a state (positive and of norm one), "
            "so invariance is not defined for it"
        )
    defect = invariance_defects(fam, omega).defect
    return [
        CheckOutcome.bounded("invariance", defect, tol),
        CheckOutcome("state-hypothesis", True, None, None, "functional is a state"),
    ], {}


def _check_magic(tol, u):
    rep = magic_unitary_check(u, tol)
    checks = [CheckOutcome.bounded(n, v, tol) for n, v in rep.defects.items()]
    return checks, {"max_commutator": rep.max_commutator, "size": u.size}


def _check_cancellation(tol, sg):
    full = sg.algebra.dim**2
    ranks = {side: cancellation_rank(sg, side).rank for side in ("left", "right")}
    return [
        CheckOutcome.bounded(f"{s}-cancellation", full - r, 0.0, f"rank {r} of {full}")
        for s, r in ranks.items()
    ], {}


def _check_modular(tol, fam, omega):
    rep = modular_report(fam, omega, tol)
    return [
        CheckOutcome.bounded("identity", rep.identity_defect, tol),
        CheckOutcome.bounded("left-inverse", rep.left_invertibility_defect, tol),
    ], {}


def _check_podles(tol, fam):
    rep = podles_rank(fam)
    missing, detail = rep.total - rep.rank, f"span rank {rep.rank} of {rep.total}"
    return [CheckOutcome.bounded("podles-density", missing, 0.0, detail)], {}


def _one_defect(name: str, defect_fn: str) -> Callable:
    """Check of one bounded defect. The defect function is looked up by
    name when the command runs, so a wrapper put on this module (a
    profiler's, say) sees the call."""
    return lambda tol, *docs: (
        [CheckOutcome.bounded(name, globals()[defect_fn](*docs), tol)], {}
    )


COMMANDS = {
    "verify-hom": Command(("morphism",), "morphism document", _verify_hom),
    "compose": Command(
        ("family", "family"), "two family documents, outer then inner", _compose
    ),
    "check-invariant": Command(
        ("family", "functional"), "family and functional documents",
        _check_invariant, "state-hypothesis",
    ),
    "check-commute": Command(
        ("family", "family"), "two self-map family documents",
        _one_defect("commutation", "commutation_defect"),
    ),
    "check-coassoc": Command(
        ("semigroup",), "semigroup document",
        _one_defect("coassociativity", "coassociativity_defect"),
    ),
    "check-counit": Command(
        ("semigroup",), "semigroup document", _one_defect("counit", "counit_defect")
    ),
    "check-action": Command(
        ("family", "semigroup"), "family and semigroup documents",
        _one_defect("action-equation", "action_defect"),
    ),
    "check-magic": Command(("magic_unitary",), "magic unitary document", _check_magic),
    "check-cancellation": Command(
        ("semigroup",), "semigroup document", _check_cancellation
    ),
    "check-modular": Command(
        ("family", "functional"), "family and functional documents",
        _check_modular, "hypotheses",
    ),
    "check-podles": Command(("family",), "family document", _check_podles),
}


def _run(args) -> CheckReport:
    """One invocation's report: a command of the table run on its parsed
    documents, or one of the two commands that read no documents."""
    inputs = getattr(args, "inputs", [])
    report = CheckReport(args.command, inputs, args.tol, args.seed, [])
    if args.command == "enumerate-classical":
        # 1-based, ready to paste into a classical_table document
        tables = [[v + 1 for v in t] for t in enumerate_set_map_tables(args.npoints)]
        report.extras = {"npoints": args.npoints, "count": len(tables), "tables": tables}
    elif args.command == "run-suite":
        names = list(SUITES) if args.suite is None else [args.suite]
        report.checks = [
            replace(c, name=f"{name}:{c.name}")
            for name in names
            for c in run_suite(name, args.seed)
        ]
        report.extras = {"suite": args.suite or "all"}
    else:
        command = COMMANDS[args.command]
        docs = [parse_spec_file(p, kind=k) for p, k in zip(inputs, command.kinds)]
        try:
            report.checks, report.extras = command.check(args.tol, *docs)
        except PreconditionError as exc:
            if command.hypothesis is None:
                raise
            failed = CheckOutcome(command.hypothesis, False, None, None, str(exc))
            report.checks, report.status = [failed], "hypothesis-violation"
    return report


@cache  # built once per process: set-up costs far more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfam",
        description="verification checks for quantum families of maps",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="defect tolerance (default 1e-9)",
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for randomized suites (default 0)"
    )
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        dest="fmt",
        help="report format",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        p.add_argument(
            "inputs", nargs=len(command.kinds), metavar="DOCUMENT", help=command.help
        )
    p = sub.add_parser(
        "enumerate-classical", parents=[common],
        help="list every self-map lookup table of an n-point set",
    )
    p.add_argument("npoints", type=int, metavar="N")
    p = sub.add_parser(
        "run-suite", parents=[common], help="run a named verification suite"
    )
    p.add_argument(
        "--suite", choices=sorted(SUITES), default=None,
        help="suite name (default: run all of them)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 < args.tol < math.inf:
        print("error: --tol must be a positive finite number", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        report = _run(args)
    except (QfamError, OSError, ValueError, KeyError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):  # numpy's allocation failures too: no verdict
            message = f"{args.command} ran out of memory: {message or 'MemoryError'}"
        if args.fmt == "structured":
            error = {"schema_version": SCHEMA_VERSION, "command": args.command}
            print(_json_line(error | {"status": "error", "error": message}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return 2
    report.elapsed_seconds = time.perf_counter() - started
    report.settle()
    print(emit_report(report, args.fmt))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
