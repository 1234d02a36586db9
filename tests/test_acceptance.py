"""Acceptance gate: the twelve headline verification criteria.

Each test runs one named suite at the default seed and prints a single
ACCEPTANCE line. A criterion passes only when every check inside its suite
passes at the suite's stated tolerance; the printed line carries the worst
observed defect so the margins are visible in the log (run with -s or -rA).
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfam.suites
from qfam import run_suite


def _gate(name: str, seed: int = 0) -> None:
    outcomes = run_suite(name, seed=seed)
    ok = all(c.passed for c in outcomes)
    defects = [c.defect for c in outcomes if c.defect is not None]
    worst = max(defects) if defects else 0.0
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} (worst defect {worst:.3g})")
    if not ok:
        failing = ", ".join(
            f"{c.name} defect={c.defect} threshold={c.threshold} {c.detail}"
            for c in outcomes
            if not c.passed
        )
        raise AssertionError(f"criterion {name} failed: {failing}")


def test_01_composition_associativity():
    _gate("compose-associativity")


def test_02_classical_shadow():
    _gate("classical-shadow")


def test_03_ergodicity():
    _gate("ergodicity")


def test_04_invariance_closure():
    _gate("invariance-closure")


def test_05_commutant_closure():
    _gate("commutant-closure")


def test_06_wang_relations():
    _gate("wang-relations")


def test_07_projection_partition():
    _gate("projection-partition")


def test_08_action_isometry():
    _gate("action-isometry")


def test_09_modular_identity():
    _gate("modular-identity")


def test_10_cancellation_ranks():
    _gate("cancellation-ranks")


def test_11_semigroup_axioms():
    _gate("semigroup-axioms")


def test_12_podles_density():
    _gate("podles-density")
    # the recorded rank is a constant of the construction, not of the seed
    for seed in (1, 2):
        for check in run_suite("podles-density", seed=seed):
            assert check.passed, (seed, check)


NAN = float("nan")


@pytest.mark.parametrize(
    "suite, name, poison",
    [
        ("compose-associativity", "max_image_defect", lambda out: NAN),
        (
            "invariance-closure",
            "invariance_defects",
            lambda out: dataclasses.replace(out, defect=NAN),
        ),
        ("commutant-closure", "commutation_defect", lambda out: NAN),
        (
            "wang-relations",
            "magic_unitary_check",
            lambda out: dataclasses.replace(out, defects={"col_sums": NAN}),
        ),
        ("projection-partition", "projection_family_check", lambda out: (NAN, NAN)),
        ("semigroup-axioms", "coideal_defect", lambda out: NAN),
    ],
    ids=lambda value: value if isinstance(value, str) else "nan",
)
def test_nan_defect_on_a_later_call_fails_the_suite(monkeypatch, suite, name, poison):
    """A NaN defect arriving after a finite one must not be dropped by the
    suite's running maximum."""
    original = getattr(qfam.suites, name)
    calls = []

    def second_call_nan(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(name)
        return poison(out) if len(calls) == 2 else out

    monkeypatch.setattr(qfam.suites, name, second_call_nan)
    outcomes = run_suite(suite)
    assert len(calls) >= 2
    assert not all(c.passed for c in outcomes)


def test_projection_partition_builds_only_full_matrix_algebras(constructed_algebras):
    """The suite checks each stack of partitions over M_d itself, so at every
    seed it constructs M_1 to M_6 and never a direct sum of blocks."""
    for seed in range(12):
        run_suite("projection-partition", seed=seed)
    assert {alg.block_dims for alg in constructed_algebras} <= {(d,) for d in range(1, 7)}


def test_the_registry_does_not_grow_across_seeds():
    """In a fresh interpreter, every algebra that four seeds of every suite
    build is gone once their results are dropped: the registry holds its
    algebras weakly and no module-level cache keeps one alive. (A fresh
    interpreter, because an algebra that another test keeps alive keeps the
    layouts it owns.)"""
    script = (
        "import gc\n"
        "from qfam import FdCStarAlgebra, run_all\n"
        "gc.collect()\n"
        "before = len(FdCStarAlgebra._interned)\n"
        "for seed in range(4):\n"
        "    run_all(seed=seed)\n"
        "gc.collect()\n"
        "print(before, len(FdCStarAlgebra._interned))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qfam.__file__).parents[1]))
    before, after = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert after == before


def test_a_live_character_keeps_no_larger_algebra_alive():
    """The scalar algebra, which every Character holds, owns no tensor
    layout it shares with another algebra, so it keeps none alive. In a
    fresh interpreter with one live Character on the scalars, the functions
    on the cyclic group of order 7 die once the semigroup whose counit was
    checked is dropped, and run_all at seeds 0-2 leaves the registry as it
    found it (86 algebras registered instead of 1 when the scalars owned
    their layouts as the left factor)."""
    script = (
        "import gc, weakref\n"
        "from qfam import FdCStarAlgebra, characters_of, classical_semigroup_algebra\n"
        "from qfam import counit_defect, functions_algebra, group_table, run_all\n"
        "held = characters_of(functions_algebra(1))[0]\n"
        "gc.collect()\n"
        "before = len(FdCStarAlgebra._interned)\n"
        "sg = classical_semigroup_algebra(group_table(7))\n"
        "assert counit_defect(sg) == 0.0\n"
        "cyclic = weakref.ref(sg.algebra)\n"
        "del sg\n"
        "gc.collect()\n"
        "for seed in range(3):\n"
        "    run_all(seed=seed)\n"
        "gc.collect()\n"
        "print(cyclic() is None, before, len(FdCStarAlgebra._interned))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qfam.__file__).parents[1]))
    died, before, after = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert died == "True"
    assert after == before
