"""The three workloads: inputs built from a seed, the operations of one
pass, and the check of every answer.

``build(name, seed, workdir)`` is the set-up: it builds the workload's
inputs (and, for cli-documents, writes its documents into workdir) and
returns the operations. A pass calls every operation once, timed, and then
judges each answer with its check, untimed. The checks compare against
``oracles``, never against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qfam
import qfam.cli

import oracles

WORKLOADS = ("suites", "structure-ladder", "cli-documents")


@dataclass(frozen=True)
class Op:
    """One operation of a pass and the judgement of its answer.

    known_fault marks an input on which qfam is known to give the wrong
    answer today; its failure is counted but does not make the pass
    incorrect.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    known_fault: bool = False


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    if name == "suites":
        return suites_ops(seed)
    if name == "structure-ladder":
        return ladder_ops(seed)
    if name == "cli-documents":
        return cli_document_ops(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def judge(ops: list[Op], answers: list) -> tuple[list[str], bool]:
    """The names of the operations whose answer fails its check (a raised
    exception is a failed answer, named after the operation), and whether
    the pass is correct: no operation failed apart from the known faults."""
    failed = []
    correct = True
    for op, answer in zip(ops, answers):
        name, ok = op.name, False
        if isinstance(answer, Exception):
            name = f"{op.name} ({answer!r})"
        else:
            try:
                ok = op.check(answer)
            except (KeyError, ValueError, TypeError, IndexError):
                pass
        if not ok:
            failed.append(name)
            correct = correct and op.known_fault
    return failed, correct


def run_cli(argv: list[str]) -> tuple[int, str]:
    """qfam.cli.main in-process; the exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = qfam.cli.main(argv)
    return rc, out.getvalue()


# -- suites -----------------------------------------------------------------

# Checks each acceptance suite returns; the structure of the suites fixes
# these counts, whatever the seed.
SUITE_CHECKS = {
    "compose-associativity": 1,
    "classical-shadow": 3,
    "ergodicity": 2,
    "invariance-closure": 2,
    "commutant-closure": 4,
    "wang-relations": 3,
    "projection-partition": 2,
    "action-isometry": 15,
    "modular-identity": 6,
    "cancellation-ranks": 7,
    "semigroup-axioms": 4,
    "podles-density": 2,
}


def suite_passed(suite: str, count: int, out: tuple[int, str]) -> bool:
    rc, text = out
    doc = json.loads(text)
    checks = doc["checks"]
    return (
        rc == 0
        and doc["status"] == "pass"
        and len(checks) == count
        and all(c["passed"] and c["name"].startswith(suite + ":") for c in checks)
    )


def suites_ops(seed: int) -> list[Op]:
    return [
        Op(
            f"run-suite {suite}",
            partial(
                run_cli,
                ["run-suite", "--suite", suite, "--seed", str(seed),
                 "--format", "structured"],
            ),
            partial(suite_passed, suite, count),
        )
        for suite, count in SUITE_CHECKS.items()
    ]


# -- structure-ladder ---------------------------------------------------------

COASSOC_ORDERS = (8, 12, 16, 20, 24)
CANCELLATION_ORDERS = (8, 12, 16)
LEFT_ZERO_ORDER = 8
NONASSOC_ORDER = 10
CONJUGATION_SIZES = (3, 4, 5)
CONJUGATION_COUNT = 3


def at_most(bound: float) -> Callable[[float], bool]:
    return lambda value: float(value) <= bound


def equals(expected) -> Callable[[Any], bool]:
    return lambda value: value == expected


def semigroup_of(table: np.ndarray) -> qfam.QuantumSemigroup:
    return qfam.classical_semigroup_algebra(table.tolist())


def nonassociative_table(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        table = rng.integers(0, n, size=(n, n))
        if not oracles.is_associative(table):
            return table


def raw_semigroup(table: np.ndarray) -> qfam.QuantumSemigroup:
    """The coproduct of a table fed straight to QuantumSemigroup, without
    classical_semigroup_algebra's associativity check."""
    n = table.shape[0]
    alg = qfam.make_algebra([1] * n)
    square = qfam.tensor_layout(alg, alg).product
    return qfam.QuantumSemigroup(
        alg, qfam.StarMorphism(alg, square, oracles.semigroup_delta(table))
    )


def diagonal_state(rng: np.random.Generator, n: int) -> qfam.LinearFunctional:
    w = rng.random(n) + 0.2
    alg = qfam.make_algebra([n])
    return qfam.LinearFunctional(alg, alg.element([np.diag(w / w.sum())]))


def phase_family(phases: np.ndarray) -> qfam.QuantumFamily:
    return qfam.conjugation_family([np.diag(p) for p in phases])


def ladder_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in COASSOC_ORDERS:
        sg = semigroup_of(oracles.relabel_table(oracles.cyclic_table(n), rng.permutation(n)))
        ops.append(Op(f"coassociativity cyclic-{n}", partial(qfam.coassociativity_defect, sg),
                      at_most(oracles.EXACT_BOUND)))
        ops.append(Op(f"counit cyclic-{n}", partial(qfam.counit_defect, sg),
                      at_most(oracles.EXACT_BOUND)))

    table, maps = oracles.map_monoid(3)
    perm = rng.permutation(len(maps))
    monoid = semigroup_of(oracles.relabel_table(table, perm))
    family = qfam.classical_family([maps[i] for i in np.argsort(perm)])
    ops.append(Op("coassociativity map-monoid-3", partial(qfam.coassociativity_defect, monoid),
                  at_most(oracles.EXACT_BOUND)))
    ops.append(Op("counit map-monoid-3", partial(qfam.counit_defect, monoid),
                  at_most(oracles.EXACT_BOUND)))
    ops.append(Op("action all-maps-3", partial(qfam.action_defect, family, monoid),
                  at_most(oracles.EXACT_BOUND)))

    bad = nonassociative_table(rng, NONASSOC_ORDER)
    ops.append(Op(f"coassociativity nonassociative-{NONASSOC_ORDER}",
                  partial(qfam.coassociativity_defect, raw_semigroup(bad)),
                  equals(oracles.coassociativity_expected(bad))))

    cases = [(f"cyclic-{n}", oracles.relabel_table(oracles.cyclic_table(n), rng.permutation(n)))
             for n in CANCELLATION_ORDERS]
    cases.append((f"left-zero-{LEFT_ZERO_ORDER}", oracles.left_zero_table(LEFT_ZERO_ORDER)))
    for label, table in cases:
        sg = semigroup_of(table)
        for side, expect in (("left", oracles.left_cancellation_rank(table)),
                             ("right", oracles.right_cancellation_rank(table))):
            ops.append(Op(f"cancellation-{side} {label}",
                          lambda sg=sg, side=side: qfam.cancellation_rank(sg, side).rank,
                          equals(expect)))

    for n in CONJUGATION_SIZES:
        phases = oracles.phase_list(rng, n, CONJUGATION_COUNT)
        fam = phase_family(phases)
        omega = diagonal_state(rng, n)
        ops.append(Op(f"modular-report M{n}", partial(qfam.modular_report, fam, omega),
                      lambda r: (r.identity_defect <= oracles.MODULAR_IDENTITY_BOUND
                                 and r.left_invertibility_defect <= oracles.LEFT_INVERSE_BOUND)))
        ops.append(Op(f"action-matrix M{n}", partial(qfam.action_matrix, fam, omega),
                      lambda r: r.isometry_defect <= oracles.ISOMETRY_BOUND))
        total = n * n * CONJUGATION_COUNT
        ops.append(Op(f"podles-rank M{n}", partial(qfam.podles_rank, fam),
                      lambda r, total=total: r.rank == r.total == total))
        others = [phase_family(oracles.phase_list(rng, n, k)) for k in (1, 2)]
        for a, b in ((fam, others[0]), (fam, others[1]), (others[0], others[1])):
            ops.append(Op(f"commutation M{n}", partial(qfam.commutation_defect, a, b),
                          at_most(oracles.COMMUTATION_BOUND)))
    return ops


# -- cli-documents ------------------------------------------------------------


def write_doc(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def save(workdir: Path, name: str, obj) -> str:
    path = workdir / f"{name}.json"
    qfam.save_document(obj, path)
    return str(path)


def magic_unitary(grid) -> qfam.MagicUnitary:
    alg = qfam.make_algebra([grid[0][0].shape[0]])
    return qfam.MagicUnitary(
        alg, tuple(tuple(alg.element([m]) for m in row) for row in grid)
    )


def verdict(expect_rc: int, contents: Callable[[dict], bool] | None = None):
    """Check of a structured report: the exit code, the status that goes
    with it, and optionally the report's contents."""
    status = {0: ("pass",), 1: ("fail",), 2: ("error", "hypothesis-violation")}[expect_rc]

    def check(out: tuple[int, str]) -> bool:
        rc, text = out
        doc = json.loads(text)
        return rc == expect_rc and doc["status"] in status and (contents is None or contents(doc))

    return check


def defects_within(bounds: dict[str, float]) -> Callable[[dict], bool]:
    def matches(doc: dict) -> bool:
        checks = {c["name"]: c for c in doc["checks"]}
        return checks.keys() >= bounds.keys() and all(
            checks[name]["defect"] is not None and checks[name]["defect"] <= bound
            for name, bound in bounds.items()
        )

    return matches


def ranks_are(expected: dict[str, tuple[int, int]]) -> Callable[[dict], bool]:
    """Each named check's detail reads 'rank r of t' (or 'span rank r of t')."""

    def matches(doc: dict) -> bool:
        found = {}
        for c in doc["checks"]:
            words = c["detail"].split()
            at = words.index("rank")
            found[c["name"]] = (int(words[at + 1]), int(words[at + 3]))
        return found == expected

    return matches


def composed_matches(outer: np.ndarray, inner: np.ndarray) -> Callable[[dict], bool]:
    """The composed family in the report equals conjugation by the
    products of the two phase lists, entry by entry."""

    def matches(doc: dict) -> bool:
        result = doc["result"]
        got = np.array([[complex(*v) for v in row] for row in result["morphism"]])
        want = oracles.composed_phase_matrix(outer, inner)
        n = outer.shape[1]
        return (
            result["source"]["blocks"] == [n]
            and result["label"]["blocks"] == [1] * (len(outer) * len(inner))
            and got.shape == want.shape
            and float(np.abs(got - want).max()) <= oracles.COMPOSE_ENTRY_BOUND
        )

    return matches


def cli_op(name: str, argv: list[str], check, known_fault: bool = False) -> Op:
    return Op(name, partial(run_cli, argv + ["--format", "structured"]), check, known_fault)


# Each round writes the same kinds and sizes of document with new random
# content, so a pass parses many documents and not one of each.
DOCUMENT_ROUNDS = 4
MAGIC_SHAPES = ((3, 3), (4, 3), (5, 4))  # (grid size, ambient matrix size)
NAN_MAGIC_PERM = (1, 2, 0)
BOOL_MAP_TABLE = (1, 0, 2)


def cli_document_ops(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for r in range(DOCUMENT_ROUNDS):
        round_dir = workdir / f"round-{r}"
        round_dir.mkdir()
        ops.extend(document_round(rng, round_dir))

    # Known faults: qfam should refuse both documents (exit 2) but accepts
    # them. Their inputs do not depend on the seed.
    nan_magic = qfam.serialize(qfam.permutation_magic_unitary(NAN_MAGIC_PERM))
    nan_magic["entries"][0][0]["blocks"][0][0][0] = [float("nan"), 0.0]
    ops.append(cli_op("check-magic NaN entry", ["check-magic",
                                                write_doc(workdir, "magic-nan", nan_magic)],
                      verdict(2), known_fault=True))
    bool_map = qfam.serialize(qfam.set_map_morphism(BOOL_MAP_TABLE))
    bool_map["matrix"] = [[bool(v[0]) for v in row] for row in bool_map["matrix"]]
    ops.append(cli_op("verify-hom boolean entries", ["verify-hom",
                                                     write_doc(workdir, "map-bool", bool_map)],
                      verdict(2), known_fault=True))
    return ops


def document_round(rng: np.random.Generator, workdir: Path) -> list[Op]:
    """One set of documents with fresh random content, and its commands."""
    tol = oracles.CLI_TOL
    ops = []

    table, maps = oracles.map_monoid(3)
    perm = rng.permutation(len(maps))
    monoid = save(workdir, "map-monoid-3", semigroup_of(oracles.relabel_table(table, perm)))
    all_maps = save(workdir, "all-maps-3",
                    qfam.classical_family([maps[i] for i in np.argsort(perm)]))
    ops.append(cli_op("check-counit map-monoid-3", ["check-counit", monoid],
                      verdict(0, defects_within({"counit": oracles.EXACT_BOUND}))))
    ops.append(cli_op("check-action all-maps-3", ["check-action", all_maps, monoid],
                      verdict(0, defects_within({"action-equation": oracles.EXACT_BOUND}))))

    cyclic = save(workdir, "cyclic-12", semigroup_of(
        oracles.relabel_table(oracles.cyclic_table(12), rng.permutation(12))))
    ops.append(cli_op("check-coassoc cyclic-12", ["check-coassoc", cyclic],
                      verdict(0, defects_within({"coassociativity": oracles.EXACT_BOUND}))))

    lz = oracles.left_zero_table(6)
    left_zero = save(workdir, "left-zero-6", semigroup_of(lz))
    ops.append(cli_op(
        "check-cancellation left-zero-6", ["check-cancellation", left_zero],
        verdict(1, ranks_are({
            "left-cancellation": (oracles.left_cancellation_rank(lz), 36),
            "right-cancellation": (oracles.right_cancellation_rank(lz), 36),
        }))))

    for k, (n, t) in enumerate(MAGIC_SHAPES):
        grid = oracles.magic_grid(rng, n, t)
        path = save(workdir, f"magic-{k}", magic_unitary(grid))
        ops.append(cli_op(f"check-magic {n}x{n} over M{t}", ["check-magic", path],
                          verdict(0, defects_within({
                              name: tol for name in
                              ("idempotent", "hermitian", "row_sums", "col_sums")}))))
    wang = qfam.wang_family(magic_unitary(oracles.magic_grid(rng, 4, 3)))
    ops.append(cli_op("check-invariant wang-4",
                      ["check-invariant", save(workdir, "wang-4", wang),
                       save(workdir, "uniform-4", qfam.uniform_state(4))],
                      verdict(0, defects_within({"invariance": tol}))))

    phases = {k: oracles.phase_list(rng, n, c)
              for k, (n, c) in {"a4": (4, 3), "b4": (4, 2), "a5": (5, 3), "b5": (5, 3),
                                "a3": (3, 3)}.items()}
    fams = {k: save(workdir, f"phase-{k}", phase_family(p)) for k, p in phases.items()}
    state4 = save(workdir, "diagonal-state-4", diagonal_state(rng, 4))
    state3 = save(workdir, "diagonal-state-3", diagonal_state(rng, 3))
    ops.append(cli_op("check-invariant phase-4", ["check-invariant", fams["a4"], state4],
                      verdict(0, defects_within({"invariance": tol}))))
    ops.append(cli_op("check-modular phase-3", ["check-modular", fams["a3"], state3],
                      verdict(0, defects_within({
                          "identity": oracles.MODULAR_IDENTITY_BOUND,
                          "left-inverse": oracles.LEFT_INVERSE_BOUND}))))
    ops.append(cli_op("check-commute phase-4", ["check-commute", fams["a4"], fams["b4"]],
                      verdict(0, defects_within({"commutation": oracles.COMMUTATION_BOUND}))))
    ops.append(cli_op("compose phase-5", ["compose", fams["a5"], fams["b5"]],
                      verdict(0, composed_matches(phases["a5"], phases["b5"]))))

    haar = [[oracles.haar_unitary(rng, 3) for _ in range(2)] for _ in range(2)]
    pair = [save(workdir, f"haar-{k}", qfam.conjugation_family(us)) for k, us in enumerate(haar)]
    ops.append(cli_op("check-commute haar-3", ["check-commute", *pair],
                      verdict(0 if oracles.conjugations_commute(*haar) else 1)))

    n, k = 4, 3
    conj = [oracles.haar_unitary(rng, n) for _ in range(k)]
    podles = save(workdir, "haar-conjugation-4", qfam.conjugation_family(conj))
    ops.append(cli_op("check-podles haar-4", ["check-podles", podles],
                      verdict(0, ranks_are({"podles-density": (n * n * k, n * n * k)}))))

    hom = qfam.StarMorphism(qfam.make_algebra([1, 3]), qfam.make_algebra([4]),
                            oracles.block_embedding(rng, 4))
    ops.append(cli_op("verify-hom embedding-4", ["verify-hom", save(workdir, "embedding-4", hom)],
                      verdict(0, defects_within({
                          name: tol for name in ("mult_defect", "star_defect", "unit_defect")}))))

    return ops
