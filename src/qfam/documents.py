"""JSON document formats for algebras, elements, functionals, morphisms,
families, semigroups and magic unitaries.

Every complex scalar is stored as a [re, im] pair, matrices row-major over
the canonical bases. Documents may carry a "kind" field; parse_spec_file
dispatches on it, or on the field shape when absent. Classical shorthand:
a family document may give "classical_table", a list of 1-based lookup
tables expanded into the diagonal classical family, and a semigroup
document may give a square 1-based multiplication table under the same
key. Saving and reloading a document reproduces the object bit-for-bit.
"""

from __future__ import annotations

import json
import math
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
from .errors import DocumentParseError, InvalidDimensionError, QfamError
from .families import QuantumFamily, classical_family
from .morphisms import Character, StarMorphism
from .representations import MagicUnitary
from .semigroups import QuantumSemigroup, classical_semigroup_algebra


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


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _fields(doc: Any, path: str, *names: str) -> list:
    """The named fields of an object document, each required."""
    if not isinstance(doc, dict):
        raise _fail(path, "expected an object")
    for name in names:
        if name not in doc:
            raise _fail(path, f'missing "{name}" field')
    return [doc[name] for name in names]


def _parse_matrix(
    data: Any, path: str, shape: tuple[int, int] | None = None
) -> np.ndarray:
    """A nonempty matrix of finite complex entries, of the given shape if
    one is given."""
    if not isinstance(data, list) or not data:
        raise _fail(path, "expected a nonempty list of rows")
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
    return [[_pair(v) for v in row] for row in mat]


# -- per-kind loaders -------------------------------------------------------


def parse_algebra(doc: Any, path: str = "algebra") -> FdCStarAlgebra:
    if isinstance(doc, dict):
        (doc,) = _fields(doc, path, "blocks")
    if not isinstance(doc, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) for n in doc
    ):
        raise _fail(f"{path}.blocks", "expected a list of positive integers")
    try:
        return make_algebra(doc)
    except InvalidDimensionError as exc:
        raise _fail(f"{path}.blocks", str(exc)) from exc


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
    product = tensor_layout(target, label).product
    matrix = _parse_matrix(matrix, f"{path}.morphism", (product.dim, source.dim))
    return QuantumFamily(source, target, label, StarMorphism(source, product, matrix))


def parse_semigroup(doc: Any, path: str = "semigroup") -> QuantumSemigroup:
    if isinstance(doc, dict) and "classical_table" in doc:
        return _parse_classical(doc, path, classical_semigroup_algebra)
    algebra, delta = _fields(doc, path, "algebra", "delta_matrix")
    algebra = parse_algebra(algebra, f"{path}.algebra")
    square = tensor_layout(algebra, algebra).product
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
    entries = []
    for i, row in enumerate(rows):
        at = f"{path}.entries[{i}]"
        if not isinstance(row, list) or len(row) != len(rows):
            raise _fail(at, "array must be square")
        entries.append(
            [parse_element(c, algebra, f"{at}[{j}]") for j, c in enumerate(row)]
        )
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


def _infer_kind(doc: Any) -> str:
    if not isinstance(doc, dict):
        raise DocumentParseError("document root must be a JSON object")
    if "kind" in doc:
        return doc["kind"]
    if "entries" in doc and "ambient" in doc:
        return "magic_unitary"
    if "delta_matrix" in doc:
        return "semigroup"
    if "morphism" in doc or {"source", "target_factor", "label"} <= doc.keys():
        return "family"
    if "classical_table" in doc:
        # a square associative table reads as a semigroup, anything else as
        # the classical-family shorthand; pass kind= to override
        tables = doc["classical_table"]
        if (
            isinstance(tables, list)
            and tables
            and all(isinstance(t, list) and len(t) == len(tables) for t in tables)
        ):
            from .semigroups import table_is_associative

            zero_based = [[v - 1 for v in row] for row in tables]
            if table_is_associative(zero_based):
                return "semigroup"
        return "family"
    if "matrix" in doc and "domain" in doc:
        return "morphism"
    if "density" in doc:
        return "functional"
    if "blocks" in doc:
        blocks = doc["blocks"]
        if isinstance(blocks, list) and all(isinstance(b, int) for b in blocks):
            return "algebra"
        return "element"
    raise DocumentParseError("cannot infer the document kind; add a 'kind' field")


def parse_spec_document(doc: Any, kind: str | None = None):
    """Parse an in-memory document into the typed object it describes."""
    if kind is None:
        kind = _infer_kind(doc)
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
        return {
            "kind": "family",
            "source": {"blocks": list(obj.source.block_dims)},
            "target_factor": {"blocks": list(obj.target_factor.block_dims)},
            "label": {"blocks": list(obj.label.block_dims)},
            "morphism": _matrix_doc(obj.morphism.matrix),
        }
    if isinstance(obj, QuantumSemigroup):
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
    """Serialize an object and write it as JSON."""
    Path(path).write_text(json.dumps(serialize(obj), indent=2) + "\n")
