"""JSON document parsing and serialization for every object kind."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfam import (
    Character,
    DocumentParseError,
    InvalidMatrixError,
    LinearFunctional,
    QuantumFamily,
    QuantumSemigroup,
    all_maps_family,
    classical_family,
    classical_semigroup_algebra,
    functions_algebra,
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
    table_identity,
    table_is_associative,
    tensor_layout,
    trace_state,
)
from qfam.cli import main
from qfam.documents import (
    _array_matrix,
    _matrix_doc,
    _parse_matrix,
    parse_algebra,
    parse_element,
)
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
    doc = {"kind": "element", "blocks": [[[1, [0, 2]], [0.5, [3, -4]]]]}
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
    doc = {"kind": "semigroup", "classical_table": [[1, 2], [2, 1]]}
    sg = parse_spec_document(doc)
    assert isinstance(sg, QuantumSemigroup)
    want = classical_semigroup_algebra(group_table(2))
    assert np.array_equal(sg.comultiplication.matrix, want.comultiplication.matrix)


def test_classical_table_kind_override():
    """A document without "kind" takes the kind it is read as: the same
    square associative table is a two-member family of maps or a
    semigroup."""
    doc = {"classical_table": [[1, 2], [2, 1]]}
    fam = parse_spec_document(doc, kind="family")
    assert isinstance(fam, QuantumFamily)
    assert fam.label.dim == 2
    assert isinstance(parse_spec_document(doc, kind="semigroup"), QuantumSemigroup)


def test_classical_table_nonsquare_is_a_family():
    doc = {"kind": "family", "classical_table": [[1, 2, 3]]}  # one table, three points
    fam = parse_spec_document(doc)
    assert isinstance(fam, QuantumFamily)
    assert fam.source.dim == 3
    doc["kind"] = "semigroup"  # a multiplication table is square
    with pytest.raises(DocumentParseError, match=r"semigroup\.classical_table: "):
        parse_spec_document(doc)


@pytest.mark.parametrize("kind", ["family", "semigroup"])
@pytest.mark.parametrize("table", [[["a"]], [[None, 1], [1, 1]]])
def test_square_classical_table_with_a_non_integer_entry_is_refused(table, kind):
    """Read as either kind, a table with a non-integer entry is refused with
    the entry's row, not by subtracting 1 from the entry."""
    with pytest.raises(DocumentParseError, match=rf"{kind}\.classical_table\[0\]"):
        parse_spec_document({"kind": kind, "classical_table": table})


def test_classical_table_rejects_zero_based_entries():
    with pytest.raises(DocumentParseError, match="1-based"):
        parse_spec_document({"kind": "family", "classical_table": [[0, 1]]})


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
    """No kind is guessed from the fields: a document without "kind", read
    without a kind, is refused with a message naming the field."""
    square = {"classical_table": [[1, 2], [2, 1]]}
    for doc in [{"something": 1}, {"blocks": [2, 1]}, square, "text"]:
        with pytest.raises(DocumentParseError, match='"kind"'):
            parse_spec_document(doc)


@pytest.mark.parametrize(
    "declared, kind",
    [
        ("family", "semigroup"),
        ("semigroup", "family"),
        ("algebra", "element"),
        ("widget", "family"),
    ],
)
def test_a_declared_kind_other_than_the_one_asked_for_is_refused(declared, kind):
    """A document's kind is the one it declares; a kind argument that
    differs from it is refused, naming both, even when the fields would
    parse as either."""
    doc = {"kind": declared, "classical_table": [[1, 1], [2, 2]], "blocks": [1]}
    with pytest.raises(DocumentParseError, match=f"{declared!r}, expected {kind!r}"):
        parse_spec_document(doc, kind=kind)
    if declared != "widget":
        assert parse_spec_document(doc, kind=declared) is not None


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


# finite JSON numbers, with the edge cases of a float conversion drawn often:
# signed zeros, subnormals, the largest finite floats, integers near 2**53
# (where float rounding starts) and integers beyond 64 bits
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
]
_JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(2**53 - 3, 2**53 + 3),
    st.integers(-(2**53) - 3, -(2**53) + 3),
    st.integers(-(2**80), 2**80),
)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and same real and imaginary parts, signed zeros included."""
    pa, pb = (np.ascontiguousarray(m, dtype=complex).view(float) for m in (a, b))
    return (
        a.shape == b.shape
        and np.array_equal(pa, pb)
        and np.array_equal(np.signbit(pa), np.signbit(pb))
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_matrices_convert_bit_for_bit_as_one_array(rows, cols, data):
    """A JSON matrix of [re, im] pairs, or of plain numbers, parses to the
    bits complex() gives entry by entry, and serializes to the pairs
    written entry by entry."""
    numbers = st.lists(_JSON_NUMBERS, min_size=rows * cols, max_size=rows * cols)
    entries = [[x, y] for x, y in zip(data.draw(numbers), data.draw(numbers))]
    pairs = json.loads(json.dumps([entries[i * cols : (i + 1) * cols] for i in range(rows)]))
    assert _array_matrix(pairs) is not None
    matrix = _parse_matrix(pairs, "m")
    expected = np.array([[complex(x, y) for x, y in row] for row in pairs])
    assert _same_bits(matrix, expected)

    morphism = StarMorphism(make_algebra([1] * cols), make_algebra([1] * rows), matrix)
    by_entry = [[[z.real, z.imag] for z in map(complex, row)] for row in expected]
    assert json.dumps(serialize(morphism)["matrix"]) == json.dumps(by_entry)

    plain = [[x for x, _ in row] for row in pairs]
    assert _array_matrix(plain) is not None
    expected = np.array([[complex(x) for x in row] for row in plain])
    assert _same_bits(_parse_matrix(plain, "m"), expected)


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
    doc = {"kind": "magic_unitary", "ambient": alg_doc, "entries": [[cell, cell]]}
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_is_refused_before_the_file_is_opened(tmp_path, bad):
    """JSON has no NaN or Infinity, so save_document refuses the object and
    leaves a file already at the path as it was."""
    alg = functions_algebra(2)
    phi = StarMorphism(alg, alg, np.array([[1.0, 0.0], [0.0, bad]]))
    path = tmp_path / "phi.json"
    save_document(set_map_morphism([1, 0]), path)
    before = path.read_bytes()
    with pytest.raises(InvalidMatrixError, match="non-finite"):
        save_document(phi, path)
    assert path.read_bytes() == before
    with pytest.raises(InvalidMatrixError):
        save_document(phi, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()


def test_parse_spec_file_errors(tmp_path):
    with pytest.raises(DocumentParseError, match="cannot read"):
        parse_spec_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DocumentParseError, match="not valid JSON"):
        parse_spec_file(bad)


def _dense_semigroup(sg: QuantumSemigroup) -> dict:
    """The document of sg in its dense fields, algebra, delta_matrix and
    counit, which serialize writes only for a semigroup with no table."""
    doc = {
        "kind": "semigroup",
        "algebra": {"blocks": list(sg.algebra.block_dims)},
        "delta_matrix": _matrix_doc(sg.comultiplication.matrix),
    }
    if sg.counit is not None:
        doc["counit"] = _matrix_doc(sg.counit.matrix)
    return doc


def _dense_family(family: QuantumFamily) -> dict:
    """The document of family in its dense fields, which serialize writes
    only for a family with no classical_table form."""
    return {
        "kind": "family",
        "source": {"blocks": list(family.source.block_dims)},
        "target_factor": {"blocks": list(family.target_factor.block_dims)},
        "label": {"blocks": list(family.label.block_dims)},
        "morphism": _matrix_doc(family.morphism.matrix),
    }


def _bad_entry_documents():
    """(document, setter, path of the entry it sets) per matrix-bearing field."""
    table, _ = map_monoid_table(2)
    sg = _dense_semigroup(classical_semigroup_algebra(table))

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
    "value",
    [float("nan"), float("inf"), True, [1, float("nan")]]
    + ["1.0", 10**400, None, [1.0, 2.0, 3.0]],
    ids=["NaN", "Infinity", "true", "pair-NaN", "string", "huge-int", "null", "triple"],
)
@pytest.mark.parametrize("field", sorted(_bad_entry_documents()))
def test_non_finite_and_boolean_entries_rejected(tmp_path, field, value):
    """Written as JSON (NaN, Infinity, true, a string, an integer too large
    for a float, null, a triple), in place of an entry or of its real part,
    every matrix-bearing field refuses the entry and names its path."""
    for entry in (value, [value, 0.0]):
        doc, put, path = _bad_entry_documents()[field]
        put(doc, entry)
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


_ONE = {"blocks": [1]}


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        (
            "morphism",
            {"domain": _ONE, "codomain": _ONE, "matrix": [[1], 1]},
            "morphism.matrix[1]: expected a list of entries",
        ),
        (
            "morphism",
            {"domain": _ONE, "codomain": _ONE, "matrix": []},
            "morphism.matrix: expected a nonempty list of rows",
        ),
        (
            "magic_unitary",
            {"ambient": _ONE, "entries": []},
            "magic_unitary.entries: expected a nonempty square array",
        ),
        ("element", {"blocks": []}, "element.blocks: expected a nonempty list of matrices"),
        ("element", {"blocks": [[[1, 0]]]}, "element.blocks[0]: block is not square: (1, 2)"),
        ("algebra", {"blocks": 2}, "algebra.blocks: expected a list of positive integers"),
        ("family", [[1]], "family: expected an object"),
        (
            "family",
            {"classical_table": []},
            "family.classical_table: expected a nonempty list of lookup tables",
        ),
    ],
)
def test_a_malformed_document_is_refused_at_its_path(kind, doc, message):
    """Each structural refusal of the readers names the path it found."""
    with pytest.raises(DocumentParseError, match=re.escape(message)):
        parse_spec_document(doc, kind=kind)


@pytest.mark.parametrize(
    "kind, field",
    [(kind, field) for kind, fields in _REQUIRED_FIELDS.items() for field in fields],
)
def test_a_missing_field_is_named(kind, field):
    table, _ = map_monoid_table(2)
    obj = {
        "algebra": make_algebra([1, 2]),
        "element": make_algebra([2]).identity(),
        "functional": trace_state(make_algebra([2])),
        "morphism": set_map_morphism([1, 0]),
        "family": sign_conjugation_family(),
        "semigroup": classical_semigroup_algebra(table),
        "magic_unitary": nonclassical_magic_4x4(0.7),
    }[kind]
    doc = _dense_semigroup(obj) if kind == "semigroup" else serialize(obj)
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
        return _dense_family(random_family(rng, source, source, random_label(rng)))
    elif kind.startswith("semigroup"):
        n = int(rng.integers(2, 5))
        counit = kind == "semigroup-with-counit"
        obj = classical_semigroup_algebra((group_table if counit else left_zero_table)(n))
        assert (obj.counit is not None) == counit
        return _dense_semigroup(obj)
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


# -- classical semigroups and families as tables -----------------------------


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _reread(doc: dict):
    """The object a document describes, read back through JSON text."""
    return parse_spec_document(json.loads(json.dumps(doc)))


def _assert_same_semigroup(back, sg):
    assert isinstance(back, QuantumSemigroup)
    assert back.algebra == sg.algebra
    assert _same_bits(back.comultiplication.matrix, sg.comultiplication.matrix)
    assert (back.counit is None) == (sg.counit is None)
    if sg.counit is not None:
        assert _same_bits(back.counit.matrix, sg.counit.matrix)


def _assert_same_family(back, fam):
    assert isinstance(back, QuantumFamily)
    assert (back.source, back.target_factor, back.label) == (
        fam.source, fam.target_factor, fam.label
    )
    assert _same_bits(back.morphism.matrix, fam.morphism.matrix)


_ASSOCIATIVE_TABLES = {
    "cyclic": group_table,
    "left-zero": left_zero_table,
    "right-zero": lambda n: np.transpose(left_zero_table(n)),
    "min": lambda n: np.minimum.outer(np.arange(n), np.arange(n)),
    "null": lambda n: np.zeros((n, n), dtype=int),
    "map-monoid-2": lambda n: map_monoid_table(2)[0],
}


@st.composite
def associative_tables(draw) -> np.ndarray:
    """A table of the list above, or the direct product of two, with an
    identity adjoined or not, relabelled by a random permutation."""

    def base():
        name = draw(st.sampled_from(sorted(_ASSOCIATIVE_TABLES)))
        return np.asarray(_ASSOCIATIVE_TABLES[name](draw(st.integers(1, 4))))

    table = base()
    if draw(st.booleans()):
        other = base()
        n, m = len(table), len(other)
        table = (table[:, None, :, None] * m + other[None, :, None, :]).reshape(n * m, n * m)
    if draw(st.booleans()):
        e = len(table)
        grown = np.empty((e + 1, e + 1), dtype=int)
        grown[:e, :e] = table
        grown[e, :] = grown[:, e] = np.arange(e + 1)
        table = grown
    perm = np.array(draw(st.permutations(range(len(table)))))
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    return relabelled


@settings(max_examples=60, deadline=None)
@given(associative_tables())
def test_a_classical_semigroup_is_written_as_its_table(table):
    """With or without an identity, and so a counit, the semigroup of an
    associative table is written as that table, 1-based, and reads back
    with the same bits in its comultiplication and counit; so does its
    document in dense fields."""
    assert table_is_associative(table)
    sg = classical_semigroup_algebra(table)
    doc = serialize(sg)
    assert doc == {"kind": "semigroup", "classical_table": (table + 1).tolist()}
    _assert_same_semigroup(_reread(doc), sg)
    _assert_same_semigroup(_reread(_dense_semigroup(sg)), sg)


_LOOKUP_TABLES = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=1, max_size=6
    )
)


@settings(max_examples=60, deadline=None)
@given(_LOOKUP_TABLES)
def test_a_classical_family_is_written_as_its_tables(tables):
    fam = classical_family(tables)
    doc = serialize(fam)
    assert doc == {
        "kind": "family",
        "classical_table": [[v + 1 for v in t] for t in tables],
    }
    _assert_same_family(_reread(doc), fam)


def _semigroup(alg, delta: np.ndarray, counit: Character | None = None):
    square = tensor_layout(alg, alg).product
    return QuantumSemigroup(alg, StarMorphism(alg, square, delta), counit)


def _assert_dense_semigroup_round_trip(sg):
    doc = serialize(sg)
    assert "classical_table" not in doc
    assert {"algebra", "delta_matrix"} <= doc.keys()
    assert ("counit" in doc) == (sg.counit is not None)
    _assert_same_semigroup(_reread(doc), sg)


@settings(max_examples=40, deadline=None)
@given(associative_tables(), st.sampled_from([-1.0, 0.0]), st.data())
def test_a_coefficient_other_than_1_keeps_the_dense_fields(table, value, data):
    """A comultiplication with one coefficient -1, or with a zero row, is no
    classical semigroup's: it is written in its dense fields."""
    sg = classical_semigroup_algebra(table)
    delta = sg.comultiplication.matrix.copy()
    row = data.draw(st.integers(0, len(delta) - 1))
    delta[row, delta[row].nonzero()[0]] = value
    _assert_dense_semigroup_round_trip(_semigroup(sg.algebra, delta, sg.counit))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                       min_size=n, max_size=n)
))
def test_a_non_associative_table_keeps_the_dense_fields(rows):
    """The coproduct of a non-associative table, given straight to
    QuantumSemigroup, has no table classical_semigroup_algebra accepts."""
    table = np.array(rows)
    assume(not table_is_associative(table))
    alg = functions_algebra(len(table))
    delta = np.zeros((len(table) ** 2, len(table)), dtype=complex)
    delta[tensor_layout(alg, alg).pair_index, table] = 1.0
    _assert_dense_semigroup_round_trip(_semigroup(alg, delta))


@settings(max_examples=40, deadline=None)
@given(associative_tables(), st.data())
def test_a_counit_other_than_the_tables_keeps_the_dense_fields(table, data):
    """A counit at a point that is not the table's identity, or no counit
    on a table with an identity, is not the counit the table rebuilds."""
    n, e = len(table), table_identity(table)
    point = data.draw(st.sampled_from([p for p in [*range(n), None] if p != e]))
    sg = classical_semigroup_algebra(table)
    counit = None
    if point is not None:
        row = np.zeros((1, n), dtype=complex)
        row[0, point] = 1.0
        counit = Character(sg.algebra, row)
    _assert_dense_semigroup_round_trip(
        _semigroup(sg.algebra, sg.comultiplication.matrix, counit)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.data())
def test_a_family_into_another_target_keeps_the_dense_fields(n, m, count, data):
    """Pullbacks along maps from m points to n != m points form a classical
    family whose target factor differs from its source: it has no lookup
    tables of self-maps."""
    assume(n != m)
    maps = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
        min_size=count, max_size=count,
    ))
    source, target, label = functions_algebra(n), functions_algebra(m), functions_algebra(count)
    layout = tensor_layout(target, label)
    mat = np.zeros((layout.product.dim, n), dtype=complex)
    mat[layout.pair_index, np.array(maps).T] = 1.0
    fam = QuantumFamily(source, target, label, StarMorphism(source, layout.product, mat))
    doc = serialize(fam)
    assert "classical_table" not in doc
    assert {"source", "target_factor", "label", "morphism"} <= doc.keys()
    _assert_same_family(_reread(doc), fam)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.sampled_from(["zero", "second"]), st.data())
def test_a_family_with_a_zero_or_two_entry_row_keeps_the_dense_fields(n, count, change, data):
    """The lookup tables come from the matrix's monomial form: a zero row
    (column -1) or a row with a second nonzero entry (no form) leaves the
    family without tables."""
    assume(n > 1 or change == "zero")
    tables = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        min_size=count, max_size=count,
    ))
    fam = classical_family(tables)
    mat = fam.morphism.matrix.copy()
    row = data.draw(st.integers(0, len(mat) - 1))
    if change == "zero":
        mat[row] = 0.0
    else:
        mat[row, (mat[row].argmax() + 1) % n] = 1.0
    phi = StarMorphism(fam.source, fam.morphism.codomain, mat)
    fam = QuantumFamily(fam.source, fam.source, fam.label, phi)
    doc = serialize(fam)
    assert "classical_table" not in doc
    _assert_same_family(_reread(doc), fam)


def _with_a_negative_zero(mat: np.ndarray, row: int, where: str) -> np.ndarray:
    """mat with one -0.0: in place of a zero entry of the row, or as the
    imaginary part of its 1."""
    mat = mat.copy()
    one = mat[row].nonzero()[0][0]
    if where == "zero":
        mat[row, (one + 1) % mat.shape[1]] = complex(-0.0, 0.0)
    else:
        mat[row, one] = complex(1.0, -0.0)
    return mat


@settings(max_examples=40, deadline=None)
@given(associative_tables(), st.sampled_from(["zero", "imag"]), st.data())
def test_a_negative_zero_keeps_the_dense_fields(table, where, data):
    """A -0.0 compares equal to 0.0 but is not the bits a table rebuilds:
    one in the comultiplication, as a zero entry or as the imaginary part
    of a 1, keeps a semigroup in its dense fields, and one in the matrix
    of a classical family keeps the family in its dense fields."""
    sg = classical_semigroup_algebra(table)
    n = len(table)
    assume(n > 1 or where == "imag")
    row = data.draw(st.integers(0, n * n - 1))
    delta = _with_a_negative_zero(sg.comultiplication.matrix, row, where)
    _assert_dense_semigroup_round_trip(_semigroup(sg.algebra, delta, sg.counit))
    fam = classical_family(table)  # the rows of the table as self-maps
    mat = _with_a_negative_zero(fam.morphism.matrix, row, where)
    phi = StarMorphism(fam.source, fam.morphism.codomain, mat)
    fam = QuantumFamily(fam.source, fam.source, fam.label, phi)
    doc = serialize(fam)
    assert "classical_table" not in doc
    _assert_same_family(_reread(doc), fam)


def test_serializing_a_classical_semigroup_builds_no_dense_comultiplication(traced_peak):
    """The table form is decided from the monomial form and the matrix's
    bits, not by rebuilding the 8,100 x 90 comultiplication (11.7 MB) of the
    cyclic group of order 90; its classical family likewise."""
    for obj in (classical_semigroup_algebra(group_table(90)), classical_family(group_table(90))):
        doc, peak = traced_peak(lambda: serialize(obj), first=False)
        assert "classical_table" in doc
        assert peak < 2 * 10**6, peak


def _readme_documents() -> list[str]:
    """The JSON documents shown in the README's Documents section, one per
    blank-line-separated paragraph of its json code blocks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Documents\n", 1)[1].split("\n#", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, flags=re.S)
    return [doc for block in blocks for doc in block.split("\n\n") if doc.strip()]


def test_every_readme_document_parses_without_a_kind_argument():
    docs = _readme_documents()
    assert len(docs) >= 5
    for text in docs:
        doc = json.loads(text)
        obj = parse_spec_document(doc)
        assert serialize(obj)["kind"] == doc["kind"]
