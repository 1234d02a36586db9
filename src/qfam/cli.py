"""Batch command-line front end.

Parses JSON documents, dispatches to the library checks, and emits either
a human-readable text report or a schema-versioned structured one. Exit
codes follow the scripting contract: 0 when every check passes, 1 when a
check fails, 2 for unusable input (parse errors, shape mismatches,
violated hypotheses).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

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
        return json.dumps(_strict(doc), indent=2, allow_nan=False)
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


# -- command handlers -------------------------------------------------------


def _cmd_verify_hom(args) -> CheckReport:
    phi = parse_spec_file(args.inputs[0], kind="morphism")
    bound = phi.hom_bound(args.tol)
    checks = [
        CheckOutcome.bounded(name, value, bound)
        for name, value in phi.defect_report.items()
    ]
    return CheckReport(
        "verify-hom", args.inputs, args.tol, args.seed, checks,
        extras={"matrix_scale": phi.scale},
    )


def _cmd_compose(args) -> CheckReport:
    first = parse_spec_file(args.inputs[0], kind="family")
    second = parse_spec_file(args.inputs[1], kind="family")
    checks = [
        CheckOutcome.bounded(
            label,
            np.max(list(fam.morphism.defect_report.values())),
            fam.morphism.hom_bound(args.tol),
        )
        for label, fam in (("first-is-hom", first), ("second-is-hom", second))
    ]
    composed = compose_families(first, second)
    return CheckReport(
        "compose", args.inputs, args.tol, args.seed, checks,
        extras={"result": serialize(composed)},
    )


def _cmd_check_invariant(args) -> CheckReport:
    fam = parse_spec_file(args.inputs[0], kind="family")
    omega = parse_spec_file(args.inputs[1], kind="functional")
    if not omega.is_state(args.tol):
        report = CheckReport(
            "check-invariant", args.inputs, args.tol, args.seed,
            [
                CheckOutcome(
                    "state-hypothesis", False, None, None,
                    "the functional is not a state (positive and of norm one), "
                    "so invariance is not defined for it",
                )
            ],
            status="hypothesis-violation",
        )
        return report
    defect = invariance_defects(fam, omega).defect
    checks = [
        CheckOutcome.bounded("invariance", defect, args.tol),
        CheckOutcome("state-hypothesis", True, None, None, "functional is a state"),
    ]
    return CheckReport("check-invariant", args.inputs, args.tol, args.seed, checks)


def _cmd_check_commute(args) -> CheckReport:
    first = parse_spec_file(args.inputs[0], kind="family")
    second = parse_spec_file(args.inputs[1], kind="family")
    defect = commutation_defect(first, second)
    checks = [CheckOutcome.bounded("commutation", defect, args.tol)]
    return CheckReport("check-commute", args.inputs, args.tol, args.seed, checks)


def _cmd_check_coassoc(args) -> CheckReport:
    sg = parse_spec_file(args.inputs[0], kind="semigroup")
    defect = coassociativity_defect(sg)
    checks = [CheckOutcome.bounded("coassociativity", defect, args.tol)]
    return CheckReport("check-coassoc", args.inputs, args.tol, args.seed, checks)


def _cmd_check_counit(args) -> CheckReport:
    sg = parse_spec_file(args.inputs[0], kind="semigroup")
    defect = counit_defect(sg)
    checks = [CheckOutcome.bounded("counit", defect, args.tol)]
    return CheckReport("check-counit", args.inputs, args.tol, args.seed, checks)


def _cmd_check_action(args) -> CheckReport:
    fam = parse_spec_file(args.inputs[0], kind="family")
    sg = parse_spec_file(args.inputs[1], kind="semigroup")
    defect = action_defect(fam, sg)
    checks = [CheckOutcome.bounded("action-equation", defect, args.tol)]
    return CheckReport("check-action", args.inputs, args.tol, args.seed, checks)


def _cmd_check_magic(args) -> CheckReport:
    u = parse_spec_file(args.inputs[0], kind="magic_unitary")
    rep = magic_unitary_check(u, args.tol)
    checks = [
        CheckOutcome.bounded(name, value, args.tol)
        for name, value in rep.defects.items()
    ]
    return CheckReport(
        "check-magic", args.inputs, args.tol, args.seed, checks,
        extras={"max_commutator": rep.max_commutator, "size": u.size},
    )


def _cmd_check_cancellation(args) -> CheckReport:
    sg = parse_spec_file(args.inputs[0], kind="semigroup")
    checks = []
    for side in ("left", "right"):
        rep = cancellation_rank(sg, side)
        checks.append(
            CheckOutcome.bounded(
                f"{side}-cancellation", sg.algebra.dim**2 - rep.rank, 0.0,
                f"rank {rep.rank} of {sg.algebra.dim ** 2}",
            )
        )
    return CheckReport(
        "check-cancellation", args.inputs, args.tol, args.seed, checks
    )


def _cmd_check_modular(args) -> CheckReport:
    fam = parse_spec_file(args.inputs[0], kind="family")
    omega = parse_spec_file(args.inputs[1], kind="functional")
    try:
        rep = modular_report(fam, omega, args.tol)
    except PreconditionError as exc:
        return CheckReport(
            "check-modular", args.inputs, args.tol, args.seed,
            [CheckOutcome("hypotheses", False, None, None, str(exc))],
            status="hypothesis-violation",
        )
    checks = [
        CheckOutcome.bounded("identity", rep.identity_defect, args.tol),
        CheckOutcome.bounded("left-inverse", rep.left_invertibility_defect, args.tol),
    ]
    return CheckReport("check-modular", args.inputs, args.tol, args.seed, checks)


def _cmd_check_podles(args) -> CheckReport:
    fam = parse_spec_file(args.inputs[0], kind="family")
    rep = podles_rank(fam)
    checks = [
        CheckOutcome.bounded(
            "podles-density", rep.total - rep.rank, 0.0,
            f"span rank {rep.rank} of {rep.total}",
        )
    ]
    return CheckReport("check-podles", args.inputs, args.tol, args.seed, checks)


def _cmd_enumerate_classical(args) -> CheckReport:
    tables = enumerate_set_map_tables(args.npoints)
    return CheckReport(
        "enumerate-classical", [], args.tol, args.seed, [],
        extras={
            "npoints": args.npoints,
            "count": len(tables),
            # 1-based, ready to paste into a classical_table document
            "tables": [[v + 1 for v in t] for t in tables],
        },
    )


def _cmd_run_suite(args) -> CheckReport:
    names = list(SUITES) if args.suite is None else [args.suite]
    checks = [
        replace(c, name=f"{name}:{c.name}")
        for name in names
        for c in run_suite(name, args.seed)
    ]
    return CheckReport(
        "run-suite", [], args.tol, args.seed, checks,
        extras={"suite": args.suite or "all"},
    )


_HANDLERS = {
    "verify-hom": (_cmd_verify_hom, 1, "morphism document"),
    "compose": (_cmd_compose, 2, "two family documents, outer then inner"),
    "check-invariant": (_cmd_check_invariant, 2, "family and functional documents"),
    "check-commute": (_cmd_check_commute, 2, "two self-map family documents"),
    "check-coassoc": (_cmd_check_coassoc, 1, "semigroup document"),
    "check-counit": (_cmd_check_counit, 1, "semigroup document"),
    "check-action": (_cmd_check_action, 2, "family and semigroup documents"),
    "check-magic": (_cmd_check_magic, 1, "magic unitary document"),
    "check-cancellation": (_cmd_check_cancellation, 1, "semigroup document"),
    "check-modular": (_cmd_check_modular, 2, "family and functional documents"),
    "check-podles": (_cmd_check_podles, 1, "family document"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfam",
        description="verification checks for quantum families of maps",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=1e-9, help="defect tolerance (default 1e-9)"
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
    for name, (_, arity, help_text) in _HANDLERS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("inputs", nargs=arity, metavar="DOCUMENT", help=help_text)
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
    if args.command == "enumerate-classical":
        handler = _cmd_enumerate_classical
    elif args.command == "run-suite":
        handler = _cmd_run_suite
    else:
        handler = _HANDLERS[args.command][0]
    started = time.perf_counter()
    try:
        report = handler(args)
    except (QfamError, OSError, ValueError, KeyError) as exc:
        if args.fmt == "structured":
            print(
                json.dumps(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "command": args.command,
                        "status": "error",
                        "error": str(exc),
                    },
                    indent=2,
                )
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed_seconds = time.perf_counter() - started
    report.settle()
    print(emit_report(report, args.fmt))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
