"""End-to-end command line checks: exit codes, formats, determinism."""

import json
import re

import numpy as np
import pytest

from qfam import (
    LinearFunctional,
    QuantumFamily,
    QuantumSemigroup,
    all_maps_family,
    classical_family,
    classical_semigroup_algebra,
    group_table,
    left_zero_table,
    make_algebra,
    map_monoid_table,
    nonclassical_magic_4x4,
    orthonormal_basis,
    parse_spec_document,
    permutation_magic_unitary,
    save_document,
    serialize,
    set_map_morphism,
    sign_conjugation_family,
    tensor_layout,
    trace_state,
    trivial_family,
    wang_family,
)
import qfam.cli
from qfam.cli import COMMANDS, CheckReport, emit_report, main
from qfam.suites import CheckOutcome
from qfam.morphisms import StarMorphism


def _write(tmp_path, name, obj):
    path = tmp_path / name
    save_document(obj, path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_hom_passes(tmp_path, capsys):
    doc = _write(tmp_path, "phi.json", set_map_morphism([1, 0]))
    code, out, _ = _run(capsys, ["verify-hom", doc])
    assert code == 0
    assert "status: pass" in out
    assert "PASS" in out


def _transpose_morphism():
    alg = make_algebra([2])
    mat = np.zeros((4, 4))
    for i, (k, r, s) in enumerate(alg.basis_labels):
        mat[alg.basis_index(k, s, r), i] = 1.0
    return StarMorphism(alg, alg, mat)


def test_verify_hom_fails_on_transpose(tmp_path, capsys):
    doc = _write(tmp_path, "t.json", _transpose_morphism())
    code, out, _ = _run(capsys, ["verify-hom", doc])
    assert code == 1
    assert "FAIL" in out
    assert "mult" in out


def test_verify_hom_respects_tolerance(tmp_path, capsys):
    doc = _write(tmp_path, "t.json", _transpose_morphism())
    code, _, _ = _run(capsys, ["verify-hom", "--tol", "10", doc])
    assert code == 0


def test_structured_output_schema(tmp_path, capsys):
    doc = _write(tmp_path, "phi.json", set_map_morphism([0, 1]))
    code, out, _ = _run(capsys, ["verify-hom", "--format", "structured", doc])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["command"] == "verify-hom"
    assert payload["status"] == "pass"
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert all(c["passed"] for c in payload["checks"])


def test_compose_emits_the_result_document(tmp_path, capsys):
    fam = all_maps_family(2)
    doc = _write(tmp_path, "fam.json", fam)
    code, out, _ = _run(capsys, ["compose", "--format", "structured", doc, doc])
    assert code == 0
    payload = json.loads(out)
    composed = parse_spec_document(payload["result"])
    assert composed.label.dim == 16
    assert composed.source.dim == 2


def test_check_invariant_pass(tmp_path, capsys):
    fam = wang_family(permutation_magic_unitary([1, 2, 0]))
    fdoc = _write(tmp_path, "fam.json", fam)
    sdoc = _write(tmp_path, "state.json", trace_state(fam.source))
    code, out, _ = _run(capsys, ["check-invariant", fdoc, sdoc])
    assert code == 0


def _assert_hypothesis_violation(capsys, argv, name, detail):
    """Exit 2 and status hypothesis-violation, with one failing check of
    the given name and detail, in both formats."""
    code, out, _ = _run(capsys, argv + ["--format", "structured"])
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "hypothesis-violation"
    assert payload["checks"] == [
        {"name": name, "passed": False, "defect": None, "threshold": None,
         "detail": detail}
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out.splitlines()[1:] == [
        f"  {name}  FAIL  [{detail}]", "status: hypothesis-violation"
    ]


def test_check_invariant_rejects_non_state(tmp_path, capsys):
    fam = all_maps_family(2)
    bad = LinearFunctional.from_values(fam.source, [2.0, -1.0])
    fdoc = _write(tmp_path, "fam.json", fam)
    sdoc = _write(tmp_path, "bad.json", bad)
    _assert_hypothesis_violation(
        capsys, ["check-invariant", fdoc, sdoc], "state-hypothesis",
        "the functional is not a state (positive and of norm one), "
        "so invariance is not defined for it",
    )


def test_check_commute(tmp_path, capsys):
    swap = _write(tmp_path, "swap.json", classical_family([(1, 0)]))
    collapse = _write(tmp_path, "collapse.json", classical_family([(0, 0)]))
    code, out, _ = _run(capsys, ["check-commute", swap, collapse])
    assert code == 1
    code, _, _ = _run(capsys, ["check-commute", swap, swap])
    assert code == 0


def test_check_coassoc(tmp_path, capsys):
    table, _ = map_monoid_table(2)
    sg = classical_semigroup_algebra(table)
    doc = _write(tmp_path, "sg.json", sg)
    code, _, _ = _run(capsys, ["check-coassoc", doc])
    assert code == 0

    lay = tensor_layout(sg.algebra, sg.algebra)
    pert = np.array(sg.comultiplication.matrix)
    pert[0, 0] += 0.1
    broken = QuantumSemigroup(sg.algebra, StarMorphism(sg.algebra, lay.product, pert))
    bdoc = _write(tmp_path, "broken.json", broken)
    code, _, _ = _run(capsys, ["check-coassoc", bdoc])
    assert code == 1


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 12.3 GiB")])
def test_running_out_of_memory_is_not_a_verdict(tmp_path, capsys, monkeypatch, exc):
    """A check that raises MemoryError, as numpy's allocation failures do,
    exits 2 with a message naming the command, in text and in structured
    form: exit 1 stays a failed check."""

    def exhausted(*args):
        raise exc

    monkeypatch.setattr(qfam.cli, "coassociativity_defect", exhausted)
    doc = _write(tmp_path, "sg.json", classical_semigroup_algebra(group_table(3)))
    code, out, err = _run(capsys, ["check-coassoc", doc])
    assert (code, out) == (2, "")
    assert err.startswith("error: check-coassoc ran out of memory")
    code, out, _ = _run(capsys, ["check-coassoc", "--format", "structured", doc])
    report = json.loads(out)
    assert code == 2
    assert (report["command"], report["status"]) == ("check-coassoc", "error")
    assert report["error"].startswith("check-coassoc ran out of memory")
    assert str(exc) in report["error"]


def test_check_counit(tmp_path, capsys):
    table, _ = map_monoid_table(2)
    doc = _write(tmp_path, "sg.json", classical_semigroup_algebra(table))
    code, _, _ = _run(capsys, ["check-counit", doc])
    assert code == 0
    # a left-zero semigroup has no identity, hence no counit to check
    nodoc = _write(
        tmp_path, "lz.json", classical_semigroup_algebra(left_zero_table(2))
    )
    code, _, err = _run(capsys, ["check-counit", nodoc])
    assert code == 2
    assert "counit" in err


def test_check_action(tmp_path, capsys, translation_magic):
    fam = wang_family(translation_magic(3))
    sg = classical_semigroup_algebra(group_table(3))
    fdoc = _write(tmp_path, "fam.json", fam)
    sdoc = _write(tmp_path, "sg.json", sg)
    code, _, _ = _run(capsys, ["check-action", fdoc, sdoc])
    assert code == 0
    mismatched = _write(tmp_path, "fam2.json", all_maps_family(2))
    code, _, _ = _run(capsys, ["check-action", mismatched, sdoc])
    assert code == 2


def test_check_magic(tmp_path, capsys):
    doc = _write(tmp_path, "magic.json", nonclassical_magic_4x4(0.7))
    code, out, _ = _run(capsys, ["check-magic", "--format", "structured", doc])
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 4
    want = abs(np.sin(0.7) * np.cos(0.7))
    assert abs(payload["max_commutator"] - want) <= 1e-12


def test_check_cancellation(tmp_path, capsys):
    doc = _write(tmp_path, "z3.json", classical_semigroup_algebra(group_table(3)))
    code, _, _ = _run(capsys, ["check-cancellation", doc])
    assert code == 0
    lz = _write(tmp_path, "lz.json", classical_semigroup_algebra(left_zero_table(2)))
    code, out, _ = _run(capsys, ["check-cancellation", lz])
    assert code == 1
    assert "left" in out


def test_check_modular(tmp_path, capsys):
    fam = sign_conjugation_family()
    omega = LinearFunctional(
        fam.source, fam.source.element([np.diag([1 / 3, 2 / 3])])
    )
    fdoc = _write(tmp_path, "fam.json", fam)
    odoc = _write(tmp_path, "omega.json", omega)
    code, _, _ = _run(capsys, ["check-modular", fdoc, odoc])
    assert code == 0


def test_check_modular_hypothesis_violation(tmp_path, capsys):
    fam = all_maps_family(2)
    fdoc = _write(tmp_path, "fam.json", fam)
    odoc = _write(tmp_path, "uniform.json", trace_state(fam.source))
    _assert_hypothesis_violation(
        capsys, ["check-modular", fdoc, odoc], "hypotheses",
        "hypothesis violated: omega is not invariant under the family "
        "(defect 5.000e-01 above the bound 1.000e-08)",
    )


def test_check_modular_rejects_a_non_faithful_state(tmp_path, capsys):
    fam = sign_conjugation_family()
    pure = LinearFunctional(fam.source, fam.source.element([np.diag([1.0, 0.0])]))
    fdoc = _write(tmp_path, "fam.json", fam)
    odoc = _write(tmp_path, "pure.json", pure)
    _assert_hypothesis_violation(
        capsys, ["check-modular", fdoc, odoc], "hypotheses",
        "hypothesis violated: omega is not faithful",
    )


def test_a_state_on_the_faithfulness_floor_gets_a_basis_and_a_verdict(tmp_path, capsys):
    """A density on M_3 with eigenvalues 1e-12 (1 + delta), 0.4 and
    0.6 - 1e-12, rotated by the unitary of a QR of a complex Ginibre matrix:
    draw 4433 of default_rng(0), delta uniform in +-1e-2. is_faithful
    accepts it, while the least eigenvalue of its 9 x 9 Gram matrix rounds
    to 9.999e-13, below the floor. The basis and check-modular follow
    is_faithful: a basis, and a verdict rather than an error. The trivial
    family satisfies the modular identity exactly, so the verdict is pass."""
    rng = np.random.default_rng(0)
    for _ in range(4434):
        delta = rng.uniform(-1e-2, 1e-2)
        ginibre = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q = np.linalg.qr(ginibre)[0]
    rho = q @ np.diag([1e-12 * (1 + delta), 0.4, 0.6 - 1e-12]) @ q.conj().T
    alg = make_algebra([3])
    omega = LinearFunctional(alg, alg.element([rho]))
    assert omega.is_faithful()
    basis = orthonormal_basis(omega)
    assert basis.shape == (9, 9) and np.array_equal(basis, np.triu(basis))
    fdoc = _write(tmp_path, "trivial.json", trivial_family(alg, make_algebra([1])))
    odoc = _write(tmp_path, "omega.json", omega)
    code, out, _ = _run(capsys, ["check-modular", fdoc, odoc, "--format", "structured"])
    assert json.loads(out)["status"] == "pass", out
    assert code == 0


@pytest.mark.parametrize("least, eps", [(1e-10, 1.0), (1e-4, 1e-5)])
def test_check_modular_fails_an_error_in_a_lightly_weighted_direction(
    tmp_path, capsys, least, eps
):
    """Psi(E_11) = E_11 + eps E_12 and Psi = id elsewhere, on M_3 with
    omega = diag(least, 0.4, 0.6 - least). omega(E_12) = 0, so omega stays
    invariant, but the identity breaks by eps. Over the canonical basis the
    error sits in a direction of weight least, so the identity defect reads
    about eps * least, within tol; the left-inverse defect reads eps, and
    check-modular fails."""
    alg = make_algebra([3])
    fam = trivial_family(alg, make_algebra([1]))
    mat = fam.morphism.matrix.astype(complex)
    e11, e12 = alg.basis_index(0, 0, 0), alg.basis_index(0, 0, 1)
    mat[e12, e11] += eps
    bad = QuantumFamily(alg, alg, fam.label, StarMorphism(alg, fam.morphism.codomain, mat))
    omega = LinearFunctional(alg, alg.element([np.diag([least, 0.4, 0.6 - least])]))
    fdoc = _write(tmp_path, "bad.json", bad)
    odoc = _write(tmp_path, "omega.json", omega)
    code, out, _ = _run(capsys, ["check-modular", fdoc, odoc, "--format", "structured"])
    report = json.loads(out)
    defects = {c["name"]: c["defect"] for c in report["checks"]}
    assert defects["identity"] <= 1e-9 < eps
    assert defects["left-inverse"] == pytest.approx(eps, rel=1e-6)
    assert report["status"] == "fail" and code == 1


def test_check_podles(tmp_path, capsys):
    doc = _write(tmp_path, "conj.json", sign_conjugation_family())
    code, _, _ = _run(capsys, ["check-podles", doc])
    assert code == 0
    thin = _write(tmp_path, "thin.json", classical_family([(0, 0)]))
    code, _, _ = _run(capsys, ["check-podles", thin])
    assert code == 1


def test_enumerate_classical(tmp_path, capsys):
    code, out, _ = _run(capsys, ["enumerate-classical", "--format", "structured", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["tables"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
    code, out, _ = _run(capsys, ["enumerate-classical", "2"])
    assert code == 0
    assert "1 2" in out


def test_enumerate_classical_cap(capsys):
    code, _, err = _run(capsys, ["enumerate-classical", "9"])
    assert code == 2
    assert "cap" in err


def test_run_suite_single(capsys):
    code, out, _ = _run(capsys, ["run-suite", "--suite", "ergodicity"])
    assert code == 0
    assert "ergodicity:" in out


def test_run_suite_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run-suite", "--suite", "bogus"])
    capsys.readouterr()


def test_run_suite_is_deterministic(capsys):
    argv = ["run-suite", "--suite", "invariance-closure", "--format", "structured"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    checks1 = json.loads(out1)["checks"]
    checks2 = json.loads(out2)["checks"]
    assert checks1 == checks2  # bit-for-bit, including every defect value


def test_run_suite_seed_changes_inputs_not_verdicts(capsys):
    code, out, _ = _run(
        capsys,
        ["run-suite", "--suite", "commutant-closure", "--seed", "7",
         "--format", "structured"],
    )
    assert code == 0
    assert all(c["passed"] for c in json.loads(out)["checks"])


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["verify-hom", str(tmp_path / "absent.json")])
    assert code == 2
    assert "absent.json" in err


def test_malformed_document_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "morphism", "domain": [2]}))
    code, _, err = _run(capsys, ["verify-hom", str(bad)])
    assert code == 2
    assert "codomain" in err


_ONE = [[[1.0, 0.0]]]


@pytest.mark.parametrize(
    "command, doc, largest",
    [
        ("verify-hom", {"kind": "morphism", "domain": {"blocks": [2**70]},
                        "codomain": {"blocks": [1]}, "matrix": _ONE}, 2**70),
        ("verify-hom", {"kind": "morphism", "domain": {"blocks": [3037000500]},
                        "codomain": {"blocks": [1]}, "matrix": _ONE}, 3037000500),
        ("check-coassoc", {"kind": "semigroup", "algebra": {"blocks": [10**6]},
                           "delta_matrix": _ONE}, 10**12),
    ],
)
def test_an_algebra_past_the_index_range_is_an_input_error(
    capsys, tmp_path, command, doc, largest
):
    """A total dimension past the largest array index, of a document's
    algebra or of its tensor square, exits 2 with a message; the only
    numbers printed are the largest block and the limit, so no dimension
    that wrapped around in int64 arithmetic reaches the output."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for fmt in ("text", "structured"):
        code, out, err = _run(capsys, [command, "--format", fmt, str(path)])
        assert code == 2
        message = err if fmt == "text" else json.loads(out)["error"]
        assert "total dimension above" in message
        numbers = {int(x) for x in re.findall(r"-?\d+", message)}
        assert numbers == {largest, np.iinfo(np.intp).max}


@pytest.mark.parametrize(
    "command, doc, path",
    [
        ("check-coassoc", {"kind": "semigroup", "algebra": {"blocks": [10**6]},
                           "delta_matrix": _ONE}, "semigroup.algebra.blocks"),
        ("check-podles", {"kind": "family", "source": {"blocks": [1]},
                          "target_factor": {"blocks": [10**5]}, "label": {"blocks": [10**5]},
                          "morphism": _ONE}, "family.label.blocks"),
    ],
)
def test_a_product_past_the_index_range_is_reported_at_its_algebra(
    capsys, tmp_path, command, doc, path
):
    """A tensor product past the largest array index, of algebras that each
    fit, exits 2 with the document path of the algebra it is built from, as
    an oversized algebra itself does."""
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    code, _, err = _run(capsys, [command, str(big)])
    assert code == 2
    assert err.startswith(f"error: {path}: ") and "total dimension above" in err


def _report(defect, extras=None):
    check = CheckOutcome("verify-hom:mult_defect", False, defect, 1e-9, "detail")
    return CheckReport("verify-hom", ["phi.json"], 1e-9, 0, [check], extras or {})


def test_structured_output_writes_a_non_finite_float_as_null():
    """A NaN or inf defect, or one inside a nested extras list, is written
    as null; the rest of the report is kept."""
    for bad in (float("nan"), float("inf")):
        extras = {"tables": [[1.0, bad]], "nested": {"values": [2.5, [bad]]}}
        out = emit_report(_report(bad, extras), "structured")
        assert '"defect":null' in out
        doc = json.loads(out)
        assert doc["checks"][0]["defect"] is None
        assert doc["tables"] == [[1.0, None]]
        assert doc["nested"] == {"values": [2.5, [None]]}


def test_a_finite_report_is_encoded_in_one_pass(monkeypatch):
    """emit_report walks the report for non-finite floats only when the
    strict encoder refuses it, so a finite report never reaches _strict and
    is written as one compact line."""
    report = _report(1.5e-16, {"tables": [[1, 2]], "matrix_scale": 1.0})
    calls = []
    strict = qfam.cli._strict
    monkeypatch.setattr(qfam.cli, "_strict", lambda value: calls.append(1) or strict(value))
    out = emit_report(report, "structured")
    assert calls == []
    assert out == json.dumps(json.loads(out), separators=(",", ":"), allow_nan=False)
    emit_report(_report(float("nan")), "structured")
    assert calls


def test_nonpositive_tolerance_rejected(capsys, tmp_path):
    doc = _write(tmp_path, "phi.json", set_map_morphism([0, 1]))
    code, _, err = _run(capsys, ["verify-hom", "--tol", "0", doc])
    assert code == 2
    assert "tol" in err


def _strict_json(text):
    """Parse a structured report, refusing the NaN/Infinity extensions."""

    def refuse(name):
        raise ValueError(f"report is not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def test_compose_prints_the_scaled_bound_it_applies(tmp_path, capsys):
    """A family matrix with an entry 2 is held to tol * 2^2, and the report
    prints that bound."""
    fam = all_maps_family(2)
    doubled = QuantumFamily(
        fam.source, fam.target_factor, fam.label,
        StarMorphism(fam.source, fam.morphism.codomain, 2 * fam.morphism.matrix),
    )
    first = _write(tmp_path, "doubled.json", doubled)
    second = _write(tmp_path, "fam.json", fam)
    code, out, _ = _run(
        capsys, ["compose", "--tol", "1e-9", "--format", "structured", first, second]
    )
    checks = {c["name"]: c for c in _strict_json(out)["checks"]}
    assert checks["first-is-hom"]["threshold"] == pytest.approx(4e-9, rel=1e-12)
    assert checks["second-is-hom"]["threshold"] == pytest.approx(1e-9, rel=1e-12)
    assert not checks["first-is-hom"]["passed"]
    assert code == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_hom_overflowing_matrix_fails(tmp_path, capsys):
    """A permutation matrix scaled by 1e200 overflows its bound to inf; no
    check can pass against a non-finite bound, and the overflow itself
    prints no warning."""
    phi = set_map_morphism([1, 0])
    big = StarMorphism(phi.domain, phi.codomain, 1e200 * phi.matrix)
    doc = _write(tmp_path, "big.json", big)
    code, out, err = _run(capsys, ["verify-hom", "--format", "structured", doc])
    assert err == ""
    assert code == 1
    payload = _strict_json(out)
    assert payload["status"] == "fail"
    assert not any(c["passed"] for c in payload["checks"])
    assert all(c["threshold"] is None for c in payload["checks"])
    code, out, err = _run(capsys, ["verify-hom", doc])
    assert err == ""
    assert code == 1
    assert "PASS" not in out


@pytest.mark.parametrize("command", ["check-magic", "verify-hom"])
def test_non_finite_or_boolean_documents_exit_2(tmp_path, capsys, command):
    if command == "check-magic":
        doc = serialize(permutation_magic_unitary([1, 2, 0]))
        doc["entries"][0][0]["blocks"][0][0][0] = [float("nan"), 0.0]
    else:
        doc = serialize(set_map_morphism([1, 0, 2]))
        doc["matrix"] = [[bool(v[0]) for v in row] for row in doc["matrix"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, [command, "--format", "structured", str(path)])
    assert code == 2
    assert _strict_json(out)["status"] == "error"


def test_a_cyclic_group_of_order_90_is_saved_as_its_table(tmp_path, capsys):
    """save_document writes the semigroup of the cyclic group of order 90 as
    its multiplication table, one line under 64 KiB (30.7 MB as an indented
    delta_matrix), which check-coassoc reads back to defect 0 and reports
    on one line of strict JSON."""
    doc = _write(tmp_path, "cyclic-90.json", classical_semigroup_algebra(group_table(90)))
    text = (tmp_path / "cyclic-90.json").read_text()
    assert len(text.encode()) < 64 * 1024
    assert text.index("\n") == len(text) - 1
    assert "classical_table" in json.loads(text)
    code, out, err = _run(capsys, ["check-coassoc", "--format", "structured", doc])
    assert (code, err) == (0, "")
    assert out.index("\n") == len(out) - 1
    (check,) = _strict_json(out)["checks"]
    assert (check["name"], check["defect"]) == ("coassociativity", 0.0)


def test_non_finite_tolerance_rejected(capsys, tmp_path):
    doc = _write(tmp_path, "phi.json", set_map_morphism([0, 1]))
    for tol in ("nan", "inf"):
        code, _, err = _run(capsys, ["verify-hom", "--tol", tol, doc])
        assert code == 2
        assert "tol" in err


def test_calls_in_one_process_share_no_state(tmp_path, capsys):
    """main builds its parser once per process; an option given to one call
    does not carry over to the next."""
    doc = _write(tmp_path, "phi.json", set_map_morphism([1, 0]))
    code, out, _ = _run(capsys, ["verify-hom", "--tol", "1e-3", "--format", "structured", doc])
    assert code == 0
    assert {c["threshold"] for c in _strict_json(out)["checks"]} == {1e-3}
    code, out, _ = _run(capsys, ["verify-hom", "--format", "structured", doc])
    assert code == 0
    assert {c["threshold"] for c in _strict_json(out)["checks"]} == {1e-9}
    code, out, _ = _run(capsys, ["verify-hom", doc])
    assert code == 0
    assert out.startswith("verify-hom: ")
    assert "(limit 1e-09)" in out


# A document of each kind that every command reading that kind parses, and
# one declaring another kind: for a family or semigroup slot, the table
# [[1, 1], [2, 2]] that would also read as the slot's kind.
_SLOT_DOCUMENTS = {
    "morphism": set_map_morphism([1, 0]),
    "family": all_maps_family(2),
    "semigroup": classical_semigroup_algebra(group_table(2)),
    "functional": trace_state(make_algebra([1, 1])),
    "magic_unitary": permutation_magic_unitary([1, 0]),
}
_OTHER_KIND = {"family": "semigroup", "semigroup": "family"}


@pytest.mark.parametrize(
    "command, slot",
    [(name, k) for name, c in COMMANDS.items() for k in range(len(c.kinds))],
)
def test_a_document_of_another_kind_exits_2_in_every_slot(tmp_path, capsys, command, slot):
    """A command refuses a document whose declared kind is not the one its
    slot reads, even one whose fields would parse as that kind."""
    kinds = COMMANDS[command].kinds
    inputs = [_write(tmp_path, f"{k}-{i}.json", _SLOT_DOCUMENTS[k]) for i, k in enumerate(kinds)]
    other = _OTHER_KIND.get(kinds[slot], "family")
    doc = {"kind": other, "classical_table": [[1, 1], [2, 2]]}
    if kinds[slot] not in _OTHER_KIND:
        doc = serialize(_SLOT_DOCUMENTS[kinds[slot]]) | {"kind": other}
    (tmp_path / "wrong.json").write_text(json.dumps(doc))
    inputs[slot] = str(tmp_path / "wrong.json")
    code, out, err = _run(capsys, [command, *inputs])
    assert (code, out) == (2, "")
    assert f"{other!r}, expected {kinds[slot]!r}" in err
