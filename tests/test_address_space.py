"""The dense structure checks under a limited address space.

Each command runs in a child interpreter whose address space is limited to
384 MB (RLIMIT_AS, set in the child only) with one BLAS thread, so a check
that holds whole lifts of a triple tensor product runs out of memory there
instead of in the test session. Classical semigroup and family tables,
and a magic grid, run the same way; set maps reach the command line only as
dense morphism documents, so they have no case here. The module is skipped
only where the resource module is missing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

resource = pytest.importorskip("resource")

import qfam  # noqa: E402
from qfam import (  # noqa: E402
    QuantumSemigroup,
    StarMorphism,
    classical_semigroup_algebra,
    group_table,
    permutation_magic_unitary,
    save_document,
)

LIMIT = 384 * 10**6

# the CLI, with the lift cap first set to the bytes given as the first argument
CLI = (
    "import sys, qfam.morphisms\n"
    "qfam.morphisms.LIFT_BYTES_CAP = int(sys.argv[1])\n"
    "from qfam.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _limited() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))


# the matrix of the comultiplication of the cyclic group of the order given
READ_MATRIX = (
    "import sys, qfam\n"
    "qfam.classical_semigroup_algebra(qfam.group_table(int(sys.argv[1]))).comultiplication.matrix\n"
)


def _run(
    *args: str, cap: int = qfam.morphisms.LIFT_BYTES_CAP, code: str = CLI
) -> subprocess.CompletedProcess:
    """code run in a limited child; the CLI takes the cap as its first argument."""
    env = dict(
        os.environ, PYTHONPATH=str(Path(qfam.__file__).parents[1]), OPENBLAS_NUM_THREADS="1"
    )
    if code == CLI:
        args = (str(cap), *args)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        preexec_fn=_limited,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def dense_60(tmp_path_factory):
    """The cyclic group of order 60 with 1e-3 added to the first row of its
    comultiplication, which then has no monomial form and takes dense
    lifts, and its counit; a 2.2 MB document."""
    sg = classical_semigroup_algebra(group_table(60))
    mat = np.array(sg.comultiplication.matrix)
    mat[0, 1] += 1e-3
    delta = StarMorphism(sg.algebra, sg.comultiplication.codomain, mat)
    path = tmp_path_factory.mktemp("dense") / "dense-60.json"
    save_document(QuantumSemigroup(sg.algebra, delta, sg.counit), path)
    return path


@pytest.mark.parametrize(
    "command, code",
    [("check-coassoc", 1), ("check-counit", 1), ("check-cancellation", 0)],
)
def test_dense_checks_of_order_60_run_in_384_mb(dense_60, command, code):
    """Coassociativity and the counit law fail by the 1e-3 added, and both
    cancellation spans are full. Coassociativity lifts one column of 60^3
    rows a slab; two whole lifts of 16 * 60^4 bytes each ran out of memory
    under this limit (exit 2)."""
    result = _run(command, str(dense_60))
    assert result.returncode == code, (result.returncode, result.stderr)
    if code:
        assert "FAIL  defect 0.001 (limit" in result.stdout, result.stdout


@pytest.fixture(scope="module")
def cyclic_docs(tmp_path_factory):
    """classical_table documents of the cyclic groups of orders 300 and 420."""
    paths = {}
    for order in (300, 420):
        paths[order] = tmp_path_factory.mktemp("cyclic") / f"cyclic-{order}.json"
        table = [[v + 1 for v in row] for row in group_table(order)]
        paths[order].write_text(json.dumps({"kind": "semigroup", "classical_table": table}))
    return paths


@pytest.mark.parametrize("command", ["check-counit", "check-coassoc", "check-cancellation"])
def test_classical_checks_of_order_300_run_in_384_mb(cyclic_docs, command):
    """The comultiplication of the cyclic group of order 300 holds its
    monomial form, 16 * 300^2 bytes, and these checks read only that form:
    each passes. Its dense matrix, 16 * 300^3 bytes (432 MB), would not fit
    under this limit."""
    result = _run(command, str(cyclic_docs[300]))
    assert result.returncode == 0, (result.returncode, result.stderr)


def test_check_counit_admits_order_420_whose_matrix_is_refused(cyclic_docs):
    """The cap counts the form a map holds, so check-counit passes the cyclic
    group of order 420, past 406, the last order whose dense matrix fits
    the cap; reading that matrix (16 * 420^3 = 1,185,408,000 bytes) in a
    limited child is refused before it is allocated, with the cap in the
    message."""
    result = _run("check-counit", str(cyclic_docs[420]))
    assert result.returncode == 0, (result.returncode, result.stderr)
    result = _run("420", code=READ_MATRIX)
    assert result.returncode == 1, (result.returncode, result.stderr)
    assert "ResourceLimitError: the matrix of a 176400 x 420 map" in result.stderr
    assert "cap" in result.stderr


def test_a_classical_table_just_past_a_lowered_cap_exits_2(tmp_path):
    """With the cap lowered to 1 MiB in the child, the monomial form of the
    comultiplication of the cyclic group of order 257 (16 * 257^2 =
    1,056,784 bytes) is refused before it is allocated, with the cap in
    the message."""
    doc = tmp_path / "cyclic-257.json"
    table = [[v + 1 for v in row] for row in group_table(257)]
    doc.write_text(json.dumps({"kind": "semigroup", "classical_table": table}))
    result = _run("check-coassoc", str(doc), cap=2**20)
    assert result.returncode == 2, (result.returncode, result.stderr)
    assert "semigroup.classical_table" in result.stderr and "cap" in result.stderr


def _family(path: Path, maps: int, points: int) -> Path:
    """A classical_table family document: the first maps rotations of a
    cycle of points points."""
    tables = [[(i + t) % points + 1 for i in range(points)] for t in range(maps)]
    path.write_text(json.dumps({"kind": "family", "classical_table": tables}))
    return path


def test_commutation_of_two_large_classical_families_exits_2_at_the_cap(tmp_path):
    """Two 200-map families of 100 points compose into a lift of 100 columns
    over 100 * 200 * 200 rows, 16 * 4 * 10^6 * 100 bytes (6104 MiB): refused
    before it is allocated, with the cap in the message."""
    doc = _family(tmp_path / "rotations.json", 200, 100)
    result = _run("check-commute", str(doc), str(doc))
    assert result.returncode == 2, (result.returncode, result.stderr)
    assert "a tensor lift of 100 columns needs 6104 MiB" in result.stderr
    assert "cap" in result.stderr


def test_a_classical_family_past_a_lowered_cap_exits_2(tmp_path):
    """With the cap lowered to 1 MiB, the dense matrix of a 50-map family of
    50 points (16 * 2,500 * 50 = 2,000,000 bytes) is refused when the
    composition first reads it."""
    doc = _family(tmp_path / "rotations.json", 50, 50)
    result = _run("check-commute", str(doc), str(doc), cap=2**20)
    assert result.returncode == 2, (result.returncode, result.stderr)
    assert "the matrix of a 2500 x 50 map needs 2 MiB" in result.stderr and "cap" in result.stderr


def test_check_magic_on_an_80_by_80_grid_runs_in_384_mb(tmp_path):
    """The cyclic permutation grid of 80 points is a magic unitary: its
    20,476,800 commutators go in blocks of 40 entries."""
    doc = tmp_path / "cycle-80.json"
    save_document(permutation_magic_unitary(list(range(1, 80)) + [0]), doc)
    result = _run("check-magic", str(doc))
    assert result.returncode == 0, (result.returncode, result.stderr)
