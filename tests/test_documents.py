"""JSON document parsing and serialization for every object kind."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfam import (
    DocumentParseError,
    LinearFunctional,
    QuantumFamily,
    QuantumSemigroup,
    all_maps_family,
    classical_semigroup_algebra,
    group_table,
    left_zero_table,
    make_algebra,
    map_monoid_table,
    nonclassical_magic_4x4,
    parse_spec_document,
    parse_spec_file,
    save_document,
    serialize,
    set_map_morphism,
    sign_conjugation_family,
    trace_state,
)
from qfam.cli import main
from qfam.documents import parse_algebra, parse_element
from qfam.morphisms import StarMorphism
from qfam.representations import MagicUnitary
from qfam.suites import (
    random_algebra,
    random_faithful_state,
    random_family,
    random_label,
    random_magic_unitary,
    random_source_algebra,
    random_unital_hom,
)


def test_algebra_round_trip():
    alg = make_algebra([2, 1, 3])
    doc = serialize(alg)
    assert doc == {"kind": "algebra", "blocks": [2, 1, 3]}
    assert parse_spec_document(doc) == alg


def test_element_round_trip():
    alg = make_algebra([2, 1])
    x = alg.element([np.array([[1, 2j], [0, -1]]), np.array([[3.5]])])
    back = parse_spec_document(serialize(x))
    assert back.algebra == alg
    assert np.array_equal(back.to_vec(), x.to_vec())


def test_element_accepts_plain_numbers_and_pairs():
    doc = {"blocks": [[[1, [0, 2]], [0.5, [3, -4]]]]}
    x = parse_spec_document(doc)
    assert x.algebra == make_algebra([2])
    assert x.blocks[0][0, 1] == 2j
    assert x.blocks[0][1, 1] == 3 - 4j


def test_functional_round_trip():
    omega = trace_state(make_algebra([2, 1]))
    back = parse_spec_document(serialize(omega))
    assert isinstance(back, LinearFunctional)
    assert np.array_equal(back.covector, omega.covector)


def test_morphism_round_trip():
    phi = set_map_morphism([1, 0, 1])
    back = parse_spec_document(serialize(phi))
    assert isinstance(back, StarMorphism)
    assert back.domain == phi.domain
    assert np.array_equal(back.matrix, phi.matrix)


def test_family_round_trip():
    fam = sign_conjugation_family()
    back = parse_spec_document(serialize(fam))
    assert isinstance(back, QuantumFamily)
    assert back.source == fam.source
    assert back.label == fam.label
    assert np.array_equal(back.morphism.matrix, fam.morphism.matrix)


def test_semigroup_round_trip_with_counit():
    table, _ = map_monoid_table(2)
    sg = classical_semigroup_algebra(table)
    back = parse_spec_document(serialize(sg))
    assert isinstance(back, QuantumSemigroup)
    assert np.array_equal(back.comultiplication.matrix, sg.comultiplication.matrix)
    assert back.counit is not None
    assert np.array_equal(back.counit.matrix, sg.counit.matrix)


def test_semigroup_round_trip_without_counit():
    sg = classical_semigroup_algebra([[0, 0], [1, 1]])
    assert sg.counit is None
    back = parse_spec_document(serialize(sg))
    assert back.counit is None


def test_magic_unitary_round_trip():
    u = nonclassical_magic_4x4(0.7)
    back = parse_spec_document(serialize(u))
    assert isinstance(back, MagicUnitary)
    assert back.algebra == u.algebra
    assert np.array_equal(back.entries, u.entries)


def test_classical_table_family_shorthand():
    doc = {
        "kind": "family",
        "classical_table": [[1, 1], [1, 2], [2, 1], [2, 2]],
    }
    fam = parse_spec_document(doc)
    assert np.array_equal(fam.morphism.matrix, all_maps_family(2).morphism.matrix)


def test_classical_table_semigroup_shorthand():
    doc = {"classical_table": [[1, 2], [2, 1]]}
    sg = parse_spec_document(doc)
    assert isinstance(sg, QuantumSemigroup)
    want = classical_semigroup_algebra(group_table(2))
    assert np.array_equal(sg.comultiplication.matrix, want.comultiplication.matrix)


def test_classical_table_kind_override():
    """A square associative table reads as a semigroup by default but can
    be forced to mean a two-member family of maps."""
    doc = {"classical_table": [[1, 2], [2, 1]]}
    fam = parse_spec_document(doc, kind="family")
    assert isinstance(fam, QuantumFamily)
    assert fam.label.dim == 2


def test_classical_table_nonsquare_is_a_family():
    doc = {"classical_table": [[1, 2, 3]]}  # one table, three points
    fam = parse_spec_document(doc)
    assert isinstance(fam, QuantumFamily)
    assert fam.source.dim == 3


def test_classical_table_rejects_zero_based_entries():
    with pytest.raises(DocumentParseError, match="1-based"):
        parse_spec_document({"kind": "family", "classical_table": [[0, 1]]})


def test_kind_inference_without_tags():
    assert parse_spec_document({"blocks": [2, 1]}) == make_algebra([2, 1])
    x = parse_spec_document({"blocks": [[[1.0]]]})
    assert x.algebra == make_algebra([1])
    sg = parse_spec_document(
        {
            "algebra": [1],
            "delta_matrix": [[1]],
        }
    )
    assert isinstance(sg, QuantumSemigroup)


def test_unknown_kind_rejected():
    with pytest.raises(DocumentParseError, match="unknown kind"):
        parse_spec_document({"kind": "widget"})
    with pytest.raises(DocumentParseError, match="unknown kind"):
        parse_spec_document({"blocks": [1]}, kind="widget")


@pytest.mark.parametrize(
    "kind", [[], {"kind": "algebra"}, 3], ids=["list", "dict", "number"]
)
def test_a_kind_that_is_not_a_string_is_unknown(kind):
    with pytest.raises(DocumentParseError, match="unknown kind"):
        parse_spec_document({"kind": kind, "blocks": [2]})


def test_uninferrable_document_rejected():
    with pytest.raises(DocumentParseError, match="infer"):
        parse_spec_document({"something": 1})
    with pytest.raises(DocumentParseError):
        parse_spec_document("not an object")


def test_matrix_row_errors_name_the_row():
    doc = {
        "kind": "morphism",
        "domain": [2],
        "codomain": [2],
        "matrix": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }
    with pytest.raises(DocumentParseError, match=r"matrix\[1\]"):
        parse_spec_document(doc)


def test_matrix_shape_errors_report_expectation():
    doc = {"kind": "morphism", "domain": [2], "codomain": [2], "matrix": [[1, 0]]}
    with pytest.raises(DocumentParseError, match="does not match"):
        parse_spec_document(doc)


def test_bad_entry_values_rejected():
    with pytest.raises(DocumentParseError, match="blocks"):
        parse_element({"blocks": [[["x"]]]})
    with pytest.raises(DocumentParseError):
        parse_algebra({"blocks": [2, True]})
    with pytest.raises(DocumentParseError):
        parse_algebra({"blocks": [0]})


def test_family_shape_mismatch_rejected():
    doc = {
        "kind": "family",
        "source": [2],
        "target_factor": [2],
        "label": [1],
        "morphism": [[1, 0], [0, 1]],
    }
    with pytest.raises(DocumentParseError, match="does not match"):
        parse_spec_document(doc)


def test_magic_entries_must_be_square():
    alg_doc = [1, 1]
    cell = {"blocks": [[[1.0]], [[0.0]]]}
    doc = {"ambient": alg_doc, "entries": [[cell, cell]]}
    with pytest.raises(DocumentParseError, match=r"entries\[0\]"):
        parse_spec_document(doc)


def test_file_round_trip(tmp_path):
    fam = all_maps_family(2)
    path = tmp_path / "family.json"
    save_document(fam, path)
    loaded = parse_spec_file(path)
    assert np.array_equal(loaded.morphism.matrix, fam.morphism.matrix)
    # the file itself is plain JSON
    raw = json.loads(path.read_text())
    assert raw["kind"] == "family"


def test_parse_spec_file_errors(tmp_path):
    with pytest.raises(DocumentParseError, match="cannot read"):
        parse_spec_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DocumentParseError, match="not valid JSON"):
        parse_spec_file(bad)


def _bad_entry_documents():
    """(document, setter, path of the entry it sets) per matrix-bearing field."""
    table, _ = map_monoid_table(2)
    sg = serialize(classical_semigroup_algebra(table))

    def at(*keys):
        def put(doc, value):
            target = doc
            for k in keys[:-1]:
                target = target[k]
            target[keys[-1]] = value

        return put

    return {
        "morphism.matrix": (
            serialize(set_map_morphism([1, 0])), at("matrix", 0, 0), "morphism.matrix[0][0]"
        ),
        "family.morphism": (
            serialize(sign_conjugation_family()), at("morphism", 0, 0), "family.morphism[0][0]"
        ),
        "semigroup.delta_matrix": (
            sg, at("delta_matrix", 0, 0), "semigroup.delta_matrix[0][0]"
        ),
        "semigroup.counit": (sg, at("counit", 0, 0), "semigroup.counit[0][0]"),
        "functional.density": (
            serialize(trace_state(make_algebra([2]))),
            at("density", "blocks", 0, 0, 0),
            "functional.density.blocks[0][0][0]",
        ),
        "element.blocks": (
            serialize(make_algebra([2]).identity()),
            at("blocks", 0, 0, 0),
            "element.blocks[0][0][0]",
        ),
        "magic_unitary.entries": (
            serialize(nonclassical_magic_4x4(0.7)),
            at("entries", 0, 0, "blocks", 0, 0, 0),
            "magic_unitary.entries[0][0].blocks[0][0][0]",
        ),
    }


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), True, [1, float("nan")]],
    ids=["NaN", "Infinity", "true", "pair-NaN"],
)
@pytest.mark.parametrize("field", sorted(_bad_entry_documents()))
def test_non_finite_and_boolean_entries_rejected(tmp_path, field, value):
    """Written as JSON (NaN, Infinity, true), every matrix-bearing field
    refuses the entry and names its path."""
    doc, put, path = _bad_entry_documents()[field]
    put(doc, value)
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(DocumentParseError, match=re.escape(path)):
        parse_spec_file(file)


@pytest.mark.parametrize("change", ["extra-row", "short-rows"])
@pytest.mark.parametrize(
    "field",
    ["morphism.matrix", "family.morphism", "semigroup.delta_matrix", "semigroup.counit"],
)
def test_a_matrix_of_the_wrong_shape_names_its_path_and_shape(field, change):
    doc = _bad_entry_documents()[field][0]
    kind, key = field.split(".")
    rows = doc[key]
    want = (len(rows), len(rows[0]))
    if change == "extra-row":
        doc[key], got = rows + rows[:1], (want[0] + 1, want[1])
    else:
        doc[key], got = [row[:-1] for row in rows], (want[0], want[1] - 1)
    message = f"{field}: shape {got} does not match {want}"
    with pytest.raises(DocumentParseError, match=re.escape(message)):
        parse_spec_document(doc, kind=kind)


_REQUIRED_FIELDS = {
    "algebra": ("blocks",),
    "element": ("blocks",),
    "functional": ("density",),
    "morphism": ("domain", "codomain", "matrix"),
    "family": ("source", "target_factor", "label", "morphism"),
    "semigroup": ("algebra", "delta_matrix"),
    "magic_unitary": ("ambient", "entries"),
}


@pytest.mark.parametrize(
    "kind, field",
    [(kind, field) for kind, fields in _REQUIRED_FIELDS.items() for field in fields],
)
def test_a_missing_field_is_named(kind, field):
    table, _ = map_monoid_table(2)
    doc = serialize({
        "algebra": make_algebra([1, 2]),
        "element": make_algebra([2]).identity(),
        "functional": trace_state(make_algebra([2])),
        "morphism": set_map_morphism([1, 0]),
        "family": sign_conjugation_family(),
        "semigroup": classical_semigroup_algebra(table),
        "magic_unitary": nonclassical_magic_4x4(0.7),
    }[kind])
    del doc[field]
    with pytest.raises(DocumentParseError, match=re.escape(f'{kind}: missing "{field}"')):
        parse_spec_document(doc, kind=kind)


# The command that reads each kind of document; check-invariant reads a
# family document before the functional one. An element document has no
# command of its own, so its parse error, which every command turns into
# exit code 2, is checked directly.
_READERS = {
    "morphism": "verify-hom",
    "family": "check-podles",
    "semigroup": "check-coassoc",
    "semigroup-with-counit": "check-coassoc",
    "functional": "check-invariant",
    "magic_unitary": "check-magic",
}


def _random_document(kind: str, rng: np.random.Generator) -> dict:
    if kind == "morphism":
        obj = random_unital_hom(rng, random_source_algebra(rng), random_algebra(rng))
    elif kind == "family":
        source = random_source_algebra(rng)
        obj = random_family(rng, source, source, random_label(rng))
    elif kind.startswith("semigroup"):
        n = int(rng.integers(2, 5))
        counit = kind == "semigroup-with-counit"
        obj = classical_semigroup_algebra((group_table if counit else left_zero_table)(n))
        assert (obj.counit is not None) == counit
    elif kind in ("functional", "element"):
        obj = random_faithful_state(rng, random_algebra(rng))
        obj = obj if kind == "functional" else obj.density
    else:
        obj = random_magic_unitary(rng, int(rng.integers(1, 4)))
    return serialize(obj)


def _complex_entries(doc, keys=()):
    """Key paths of the [re, im] pairs of a serialized document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _complex_entries(v, keys + (k,))
    elif isinstance(doc, list):
        if len(doc) == 2 and all(isinstance(x, float) for x in doc):
            yield keys
        else:
            for i, v in enumerate(doc):
                yield from _complex_entries(v, keys + (i,))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(_READERS) + ["element"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False]),
    st.data(),
)
def test_a_bad_entry_anywhere_exits_2_with_its_path(kind, seed, value, data):
    """NaN, Infinity, -Infinity, true or false at a random entry of a random
    document of each kind, in place of the [re, im] pair or of one of its
    parts, is refused with exit code 2 and that entry's path, never run."""
    doc = _random_document(kind, np.random.default_rng(seed))
    keys = data.draw(st.sampled_from(list(_complex_entries(doc))))
    part = data.draw(st.sampled_from([None, 0, 1]))
    target = doc
    for k in keys[:-1]:
        target = target[k]
    if part is None:
        target[keys[-1]] = value
    else:
        target[keys[-1]][part] = value
    path = kind.split("-")[0] + "".join(
        f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys
    )
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "doc.json"
        file.write_text(json.dumps(doc))
        if kind == "element":
            with pytest.raises(DocumentParseError, match=re.escape(f"{path}: ")):
                parse_spec_file(file, kind="element")
            return
        inputs = [str(file)]
        if kind == "functional":
            inputs.insert(0, str(Path(tmp) / "family.json"))
            save_document(sign_conjugation_family(), inputs[0])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([_READERS[kind], "--format", "structured", *inputs])
    assert rc == 2
    assert json.loads(out.getvalue())["error"].startswith(f"{path}: ")
