"""Acceptance gate: the twelve headline verification criteria.

Each test runs one named suite at the default seed and prints a single
ACCEPTANCE line. A criterion passes only when every check inside its suite
passes at the suite's stated tolerance; the printed line carries the worst
observed defect so the margins are visible in the log (run with -s or -rA).
"""

import dataclasses

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
