"""JSON document formats for algebras, elements, functionals, morphisms,
families, semigroups and magic unitaries.

Every complex scalar is stored as a [re, im] pair, matrices row-major over
the canonical bases. A document's kind is its "kind" field, on which
parse_spec_file dispatches; its kind argument supplies the kind of a
document without the field and must equal the field otherwise. Classical
shorthand: a family document may give "classical_table", a list of 1-based
lookup tables expanded into the diagonal classical family, and a semigroup
document may give a square 1-based multiplication table under the same
key. serialize writes a family or semigroup in that form exactly when
classical_family or classical_semigroup_algebra rebuilds it bit for bit
from its table, and every other object in its dense fields, so saving and
reloading a document reproduces the object bit-for-bit. Documents are
written as one line of compact JSON.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .algebra import (
    AlgebraElement,
    FdCStarAlgebra,
    LinearFunctional,
    make_algebra,
    tensor_layout,
)
from .errors import (
    DocumentParseError,
    InvalidDimensionError,
    InvalidMatrixError,
    QfamError,
)
from .families import QuantumFamily, classical_family
from .morphisms import Character, StarMorphism
from .representations import MagicUnitary
from .semigroups import (
    QuantumSemigroup,
    classical_semigroup_algebra,
    table_identity,
    table_is_associative,
)


def _fail(path: str, message: str) -> DocumentParseError:
    return DocumentParseError(f"{path}: {message}")


def _is_finite_number(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _as_complex(value: Any, path: str) -> complex:
    """A finite number or [re, im] pair of finite numbers; booleans, NaN
    and infinities are refused."""
    if _is_finite_number(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_finite_number(v) for v in value)
    ):
        return complex(value[0], value[1])
    raise _fail(path, f"expected a finite number or [re, im] pair, got {value!r}")


def _fields(doc: Any, path: str, *names: str) -> list:
    """The named fields of an object document, each required."""
    if not isinstance(doc, dict):
        raise _fail(path, "expected an object")
    for name in names:
        if name not in doc:
            raise _fail(path, f'missing "{name}" field')
    return [doc[name] for name in names]


def _array_matrix(data: list) -> np.ndarray | None:
    """The matrix of a list of rows of [re, im] pairs, or of rows of plain
    numbers, read as one array; None for any other form and for any matrix
    with a bad entry, which the entry-by-entry reader then refuses."""
    if not all(isinstance(row, list) for row in data):
        return None
    leaves = set(map(type, chain.from_iterable(data)))
    pairs = leaves == {list}
    if pairs:
        leaves = set(map(type, chain.from_iterable(chain.from_iterable(data))))
    if not leaves <= {int, float}:  # type(), not isinstance: bool is refused
        return None
    try:
        arr = np.array(data, dtype=float)
    except (ValueError, OverflowError):  # ragged, or an int too large for a float
        return None
    if arr.shape[2:] != ((2,) if pairs else ()) or not np.isfinite(arr).all():
        return None
    return arr.view(complex)[..., 0] if pairs else arr.astype(complex)


def _parse_matrix(
    data: Any, path: str, shape: tuple[int, int] | None = None
) -> np.ndarray:
    """A nonempty matrix of finite complex entries, of the given shape if
    one is given.

    A matrix of [re, im] pairs or of plain numbers is converted as one
    array; any other form, and any matrix that conversion refuses, is read
    entry by entry, which raises with the path of the first bad entry.
    Both ways give the same bits for the same entries.
    """
    if not isinstance(data, list) or not data:
        raise _fail(path, "expected a nonempty list of rows")
    matrix = _array_matrix(data)
    if matrix is None:
        rows = []
        width = None
        for r, row in enumerate(data):
            if not isinstance(row, list):
                raise _fail(f"{path}[{r}]", "expected a list of entries")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise _fail(f"{path}[{r}]", f"row has {len(row)} entries, expected {width}")
            rows.append([_as_complex(v, f"{path}[{r}][{c}]") for c, v in enumerate(row)])
        matrix = np.array(rows, dtype=complex)
    if shape is not None and matrix.shape != shape:
        raise _fail(path, f"shape {matrix.shape} does not match {shape}")
    return matrix


def _matrix_doc(mat: np.ndarray) -> list[list[list[float]]]:
    """The [re, im] pair lists of a matrix, converted as one array."""
    mat = np.ascontiguousarray(mat, dtype=complex)
    return mat.view(float).reshape(*mat.shape, 2).tolist()


# -- per-kind loaders -------------------------------------------------------


def parse_algebra(doc: Any, path: str = "algebra") -> FdCStarAlgebra:
    if isinstance(doc, dict):
        (doc,) = _fields(doc, path, "blocks")
    if not isinstance(doc, list):
        raise _fail(f"{path}.blocks", "expected a list of positive integers")
    try:
        return make_algebra(doc)
    except InvalidDimensionError as exc:
        raise _fail(f"{path}.blocks", str(exc)) from exc


def _product(left: FdCStarAlgebra, right: FdCStarAlgebra, path: str, what: str) -> FdCStarAlgebra:
    """left (x) right; a product past the index range is refused at path."""
    try:
        return tensor_layout(left, right).product
    except InvalidDimensionError as exc:
        raise _fail(path, f"{what}: {exc}") from exc


def parse_element(
    doc: Any, algebra: FdCStarAlgebra | None = None, path: str = "element"
) -> AlgebraElement:
    if not isinstance(doc, dict) or "blocks" not in doc:
        raise _fail(path, 'missing "blocks" field')
    blocks_doc = doc["blocks"]
    if not isinstance(blocks_doc, list) or not blocks_doc:
        raise _fail(f"{path}.blocks", "expected a nonempty list of matrices")
    blocks = [
        _parse_matrix(b, f"{path}.blocks[{k}]") for k, b in enumerate(blocks_doc)
    ]
    if algebra is None and "algebra" in doc:
        algebra = parse_algebra(doc["algebra"], f"{path}.algebra")
    if algebra is None:
        dims = []
        for k, b in enumerate(blocks):
            if b.shape[0] != b.shape[1]:
                raise _fail(f"{path}.blocks[{k}]", f"block is not square: {b.shape}")
            dims.append(b.shape[0])
        algebra = make_algebra(dims)
    try:
        return algebra.element(blocks)
    except QfamError as exc:
        raise _fail(f"{path}.blocks", str(exc)) from exc


def parse_functional(doc: Any, path: str = "functional") -> LinearFunctional:
    if not isinstance(doc, dict) or "density" not in doc:
        raise _fail(path, 'missing "density" field')
    algebra = None
    if "algebra" in doc:
        algebra = parse_algebra(doc["algebra"], f"{path}.algebra")
    density = parse_element(doc["density"], algebra, f"{path}.density")
    return LinearFunctional(density.algebra, density)


def parse_morphism(doc: Any, path: str = "morphism") -> StarMorphism:
    domain, codomain, matrix = _fields(doc, path, "domain", "codomain", "matrix")
    domain = parse_algebra(domain, f"{path}.domain")
    codomain = parse_algebra(codomain, f"{path}.codomain")
    matrix = _parse_matrix(matrix, f"{path}.matrix", (codomain.dim, domain.dim))
    return StarMorphism(domain, codomain, matrix)


def _parse_classical(doc: dict, path: str, build):
    """build applied to the document's 1-based "classical_table", made
    0-based; its errors are reported at that field's path."""
    data, path = doc["classical_table"], f"{path}.classical_table"
    if not isinstance(data, list) or not data:
        raise _fail(path, "expected a nonempty list of lookup tables")
    out = []
    for t, tbl in enumerate(data):
        if not isinstance(tbl, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in tbl
        ):
            raise _fail(f"{path}[{t}]", "expected a list of 1-based integers")
        if any(v < 1 for v in tbl):
            raise _fail(f"{path}[{t}]", "entries are 1-based and must be >= 1")
        out.append([v - 1 for v in tbl])
    try:
        return build(out)
    except QfamError as exc:
        raise _fail(path, str(exc)) from exc


def parse_family(doc: Any, path: str = "family") -> QuantumFamily:
    if isinstance(doc, dict) and "classical_table" in doc:
        return _parse_classical(doc, path, classical_family)
    source, target, label, matrix = _fields(
        doc, path, "source", "target_factor", "label", "morphism"
    )
    source = parse_algebra(source, f"{path}.source")
    target = parse_algebra(target, f"{path}.target_factor")
    label = parse_algebra(label, f"{path}.label")
    product = _product(target, label, f"{path}.label.blocks", "target_factor (x) label")
    matrix = _parse_matrix(matrix, f"{path}.morphism", (product.dim, source.dim))
    return QuantumFamily(source, target, label, StarMorphism(source, product, matrix))


def parse_semigroup(doc: Any, path: str = "semigroup") -> QuantumSemigroup:
    if isinstance(doc, dict) and "classical_table" in doc:
        return _parse_classical(doc, path, classical_semigroup_algebra)
    algebra, delta = _fields(doc, path, "algebra", "delta_matrix")
    algebra = parse_algebra(algebra, f"{path}.algebra")
    square = _product(algebra, algebra, f"{path}.algebra.blocks", "algebra (x) algebra")
    delta = _parse_matrix(delta, f"{path}.delta_matrix", (square.dim, algebra.dim))
    counit = None
    if doc.get("counit") is not None:
        cmat = _parse_matrix(doc["counit"], f"{path}.counit", (1, algebra.dim))
        counit = Character(algebra, cmat)
    return QuantumSemigroup(algebra, StarMorphism(algebra, square, delta), counit)


def parse_magic_unitary(doc: Any, path: str = "magic_unitary") -> MagicUnitary:
    algebra, rows = _fields(doc, path, "ambient", "entries")
    algebra = parse_algebra(algebra, f"{path}.ambient")
    if not isinstance(rows, list) or not rows:
        raise _fail(f"{path}.entries", "expected a nonempty square array")
    entries = np.empty((len(rows), len(rows), algebra.dim), dtype=complex)
    for i, row in enumerate(rows):
        at = f"{path}.entries[{i}]"
        if not isinstance(row, list) or len(row) != len(rows):
            raise _fail(at, "array must be square")
        for j, c in enumerate(row):
            entries[i, j] = parse_element(c, algebra, f"{at}[{j}]").to_vec()
    return MagicUnitary(algebra, entries)


_PARSERS = {
    "algebra": parse_algebra,
    "element": parse_element,
    "functional": parse_functional,
    "morphism": parse_morphism,
    "family": parse_family,
    "semigroup": parse_semigroup,
    "magic_unitary": parse_magic_unitary,
}


def parse_spec_document(doc: Any, kind: str | None = None):
    """Parse an in-memory document into the typed object it describes.

    A document's kind is its "kind" field. kind supplies it for a document
    without that field and must equal the field when both are given.
    """
    if isinstance(doc, dict) and "kind" in doc:
        if kind is not None and doc["kind"] != kind:
            raise DocumentParseError(
                f'document "kind" is {doc["kind"]!r}, expected {kind!r}'
            )
        kind = doc["kind"]
    elif kind is None:
        raise DocumentParseError('document has no "kind" field and no kind was given')
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise DocumentParseError(
            f"unknown kind {kind!r}; expected one of {sorted(_PARSERS)}"
        )
    return _PARSERS[kind](doc)


def parse_spec_file(path, kind: str | None = None):
    """Load a JSON document from disk and parse it into a typed object."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise DocumentParseError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"{p} is not valid JSON: {exc}") from exc
    return parse_spec_document(doc, kind)


# -- serialization ----------------------------------------------------------


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """The complex arrays a and b hold the same bits (so -0.0 is not 0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _table_columns(phi: StarMorphism) -> np.ndarray | None:
    """The column of each row's one entry when phi maps into a commutative
    algebra and its matrix is, bit for bit, a table's 0/1 matrix; None
    otherwise. So each entry of its monomial form equals 1, and the matrix
    has as many nonzero 64-bit words as rows: every other word, the
    imaginary parts of the 1s included, is +0.0, as a -0.0 would add one."""
    form = phi.monomial
    if form is None or not (form[1] == 1).all():
        return None
    return form[0] if np.count_nonzero(phi.matrix.view(np.uint64)) == len(form[0]) else None


def _semigroup_table(sg: QuantumSemigroup) -> np.ndarray | None:
    """The 0-based multiplication table from which classical_semigroup_algebra
    rebuilds sg bit for bit, Delta and counit; None when there is none.
    The pair (s, t) is row s * n + t of Delta, and the counit is the
    indicator of the table's identity, if it has one."""
    n = sg.algebra.dim
    cols = _table_columns(sg.comultiplication)  # A (x) A is commutative exactly when A is
    table = None if cols is None else cols.reshape(n, n)
    if table is None or not table_is_associative(table):
        return None
    e = table_identity(table)
    if e is None or sg.counit is None:
        return table if e is None and sg.counit is None else None
    return table if _same_bits(sg.counit.matrix, np.eye(1, n, e, dtype=complex)) else None


def _family_tables(family: QuantumFamily) -> np.ndarray | None:
    """The 0-based lookup tables, one per point of the label, from which
    classical_family rebuilds the family bit for bit; None when there are
    none. Point i under map t is row i * (label points) + t."""
    cols = _table_columns(family.morphism) if family.is_self_map else None
    return None if cols is None else cols.reshape(family.source.dim, family.label.dim).T


def serialize(obj) -> dict:
    """Document form of a supported object, with its "kind" recorded."""
    if isinstance(obj, FdCStarAlgebra):
        return {"kind": "algebra", "blocks": list(obj.block_dims)}
    if isinstance(obj, AlgebraElement):
        return {
            "kind": "element",
            "algebra": {"blocks": list(obj.algebra.block_dims)},
            "blocks": [_matrix_doc(b) for b in obj.blocks],
        }
    if isinstance(obj, LinearFunctional):
        return {
            "kind": "functional",
            "algebra": {"blocks": list(obj.algebra.block_dims)},
            "density": {"blocks": [_matrix_doc(b) for b in obj.density.blocks]},
        }
    if isinstance(obj, QuantumFamily):
        tables = _family_tables(obj)
        if tables is not None:
            return {"kind": "family", "classical_table": (tables + 1).tolist()}
        return {
            "kind": "family",
            "source": {"blocks": list(obj.source.block_dims)},
            "target_factor": {"blocks": list(obj.target_factor.block_dims)},
            "label": {"blocks": list(obj.label.block_dims)},
            "morphism": _matrix_doc(obj.morphism.matrix),
        }
    if isinstance(obj, QuantumSemigroup):
        table = _semigroup_table(obj)
        if table is not None:
            return {"kind": "semigroup", "classical_table": (table + 1).tolist()}
        doc = {
            "kind": "semigroup",
            "algebra": {"blocks": list(obj.algebra.block_dims)},
            "delta_matrix": _matrix_doc(obj.comultiplication.matrix),
        }
        if obj.counit is not None:
            doc["counit"] = _matrix_doc(obj.counit.matrix)
        return doc
    if isinstance(obj, MagicUnitary):
        return {
            "kind": "magic_unitary",
            "ambient": {"blocks": list(obj.algebra.block_dims)},
            "entries": [
                [
                    {"blocks": [_matrix_doc(b) for b in obj.algebra.block_views(v)]}
                    for v in row
                ]
                for row in obj.entries
            ],
        }
    if isinstance(obj, StarMorphism):
        return {
            "kind": "morphism",
            "domain": {"blocks": list(obj.domain.block_dims)},
            "codomain": {"blocks": list(obj.codomain.block_dims)},
            "matrix": _matrix_doc(obj.matrix),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def save_document(obj, path) -> None:
    """Serialize an object and write it as one line of compact JSON.

    An object with a NaN or infinite entry has no JSON form: it raises
    InvalidMatrixError before the file is opened.
    """
    doc = serialize(obj)
    try:
        text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise InvalidMatrixError(f"cannot save a non-finite entry as JSON: {exc}") from exc
    Path(path).write_text(text + "\n")
