"""The bit-exact document format: dense nested arrays of scalar strings.

Documents are JSON with a fixed key order and canonical scalar strings
(integers, lowest-terms "a/b" rationals, or residues 0..p-1), so emitted
files are byte-stable and diffable: parse(emit(doc)) is the identity on
canonical documents and emit(parse(text)) canonicalizes.
Derived data (counital matrices, subalgebras) is never stored; documents
carry primary structure constants only and everything else is recomputed.
"""

from __future__ import annotations

import json
from math import lcm

from .errors import MalformedInput
from .exactla import FieldSpec, Matrix, parse_field_name
from .structure import FiniteAlgebra, FiniteCoalgebra
from .weakbia import WeakBialgebra, build_weak_bialgebra
from .comod import Comodule, tensor_over_source, regular_comodule, unit_comodule
from .tannaka import FunctorData

FORMAT_VERSION = "wba/1"
FUNCTOR_FORMAT_VERSION = "wbafunctor/1"
REPORT_FORMAT_VERSION = "wbareport/1"


def parse_text(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(
            f"not valid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    if not isinstance(doc, dict):
        raise MalformedInput("document root must be an object")
    return doc


def emit(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _field_name(field: FieldSpec) -> str:
    return str(field)


def _parse_scalar_grid(parse, grid, shape, path):
    """The rows of a scalar grid, each entry through parse (`FieldSpec.parse` or `parse_ints`)."""
    if not isinstance(grid, list):
        raise MalformedInput(f"{path}: expected a list of {shape[0]} rows")
    if len(grid) != shape[0]:
        raise MalformedInput(f"{path}: expected {shape[0]} rows, got {len(grid)}")
    rows = []
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise MalformedInput(f"{path}[{i}]: expected {shape[1]} entries")
        rows.append(tuple([parse(x) for x in row]))
    return rows


def _parse_matrix(field, grid, shape, path) -> Matrix:
    """The matrix of a scalar grid, parsed straight to int columns at one scale."""
    rows = _parse_scalar_grid(field.parse_ints, grid, shape, path)
    scale = lcm(*{den for row in rows for _, den in row})
    cols = [{} for _ in range(shape[1])]
    for i, row in enumerate(rows):
        for col, (num, den) in zip(cols, row):
            if num:
                col[i] = num * (scale // den)
    return Matrix.from_int_cols(field, cols, scale, shape[0])


def _parse_scalar_vector(field, vec, length, path):
    if not isinstance(vec, list) or len(vec) != length:
        raise MalformedInput(f"{path}: expected {length} entries")
    return tuple(field.parse(x) for x in vec)


def _parse_tensor(field, tensor, n, path):
    if not isinstance(tensor, list) or len(tensor) != n:
        raise MalformedInput(f"{path}: expected {n} slices")
    out = []
    for i, sl in enumerate(tensor):
        if not isinstance(sl, list):
            raise MalformedInput(f"{path}[{i}]: expected a list")
        out.append(_parse_scalar_grid(field.parse, sl, (n, n), f"{path}[{i}]"))
    return out


def wba_from_document(doc: dict):
    """Rebuild and re-verify a weak bialgebra (plus named comodules) from a document."""
    if doc.get("format_version") != FORMAT_VERSION:
        raise MalformedInput(
            f"format_version must be {FORMAT_VERSION!r}, got {doc.get('format_version')!r}"
        )
    field = parse_field_name(doc.get("field", ""))
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 0:
        raise MalformedInput("dim must be a nonnegative integer")
    basis = doc.get("basis")
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(b, str) for b in basis
    ):
        raise MalformedInput("basis must be a list of dim labels")
    mult = _parse_tensor(field, doc.get("mult"), dim, "mult")
    unit = _parse_scalar_vector(field, doc.get("unit"), dim, "unit")
    comult = _parse_tensor(field, doc.get("comult"), dim, "comult")
    counit = _parse_scalar_vector(field, doc.get("counit"), dim, "counit")
    alg = FiniteAlgebra(field, basis, mult, unit)
    coa = FiniteCoalgebra(field, basis, comult, counit)
    h = build_weak_bialgebra(alg, coa)
    if "antipode" in doc:
        s = _parse_matrix(field, doc["antipode"], (dim, dim), "antipode")
        h = h.with_antipode(s)
    entries = doc.get("comodules", [])
    if not isinstance(entries, list):
        raise MalformedInput("comodules must be a list")
    comodules = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MalformedInput(f"comodules[{i}]: expected an object")
        name = entry.get("name")
        cdim = entry.get("dim")
        if not isinstance(name, str) or not isinstance(cdim, int) or cdim < 0:
            raise MalformedInput(f"comodules[{i}]: need a name and a nonnegative dim")
        if name in comodules or name in ("regular", "unit"):
            raise MalformedInput(f"comodules[{i}]: duplicate or reserved name {name!r}")
        rho = _parse_matrix(field, entry.get("coaction"), (cdim * dim, cdim), f"comodules[{i}].coaction")
        comodules[name] = Comodule(h, cdim, rho)
    return h, comodules


def matrix_strings(m: Matrix) -> list:
    return [[m.field.fmt(x) for x in row] for row in m.entries]


def document_from_wba(h: WeakBialgebra, comodules: dict | None = None) -> dict:
    field = h.field
    n = h.dim
    doc = {
        "format_version": FORMAT_VERSION,
        "field": _field_name(field),
        "dim": n,
        "basis": list(h.labels),
        "mult": [
            [[field.fmt(h.mult[i][j][k]) for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
        "unit": [field.fmt(x) for x in h.unit],
        "comult": [
            [[field.fmt(h.comult[i][j][k]) for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
        "counit": [field.fmt(x) for x in h.counit],
    }
    if h.antipode is not None:
        doc["antipode"] = matrix_strings(h.antipode)
    if comodules:
        doc["comodules"] = [
            {
                "name": name,
                "dim": com.dim,
                "coaction": matrix_strings(com.coaction),
            }
            for name, com in comodules.items()
        ]
    return doc


def resolve_comodule(h: WeakBialgebra, named: dict, expr: str) -> Comodule:
    """Resolve "regular", "unit", a document name, or a left-associated
    '*'-separated tensor expression over those."""
    return _resolver(h, named)(expr)


def _resolver(h: WeakBialgebra, named: dict):
    """`resolve_comodule` for the expressions of one document: each leaf is
    resolved, and "regular" and "unit" built, at most once."""
    leaves = {}

    def leaf(name):
        if name not in leaves:
            if name in ("regular", "unit"):
                leaves[name] = (regular_comodule if name == "regular" else unit_comodule)(h)
            elif name in named:
                leaves[name] = named[name]
            else:
                raise MalformedInput(f"unknown comodule name {name!r}")
        return leaves[name]

    def resolve(expr):
        parts = [p.strip() for p in expr.split("*")]
        if any(not p for p in parts):
            raise MalformedInput(f"bad comodule expression {expr!r}")
        out = leaf(parts[0])
        for p in parts[1:]:
            out = tensor_over_source(out, leaf(p))
        return out

    return resolve


def functor_from_document(
    doc: dict, source: WeakBialgebra, source_comodules: dict, target: WeakBialgebra
) -> FunctorData:
    if doc.get("format_version") != FUNCTOR_FORMAT_VERSION:
        raise MalformedInput(
            f"format_version must be {FUNCTOR_FORMAT_VERSION!r}, got {doc.get('format_version')!r}"
        )
    assignments = []
    entries = doc.get("assignments")
    if not isinstance(entries, list) or not entries:
        raise MalformedInput("assignments must be a nonempty list")
    nk = target.dim
    resolve = _resolver(source, source_comodules)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MalformedInput(f"assignments[{i}]: expected an object")
        expr = entry.get("comodule")
        if not isinstance(expr, str):
            raise MalformedInput(f"assignments[{i}]: missing comodule name")
        com = resolve(expr)
        rho = _parse_matrix(target.field, entry.get("coaction"), (com.dim * nk, com.dim),
                            f"assignments[{i}].coaction")
        assignments.append((com, rho))
    unit_map = None
    if "unit_map" in doc:
        unit_map = _parse_matrix(target.field, doc["unit_map"], (target.hs.dim, source.hs.dim), "unit_map")
    return FunctorData(source, target, assignments, unit_map)


def document_from_functor(fd: FunctorData, names: list[str]) -> dict:
    if len(names) != len(fd.assignments):
        raise MalformedInput("one name per assignment required")
    doc = {
        "format_version": FUNCTOR_FORMAT_VERSION,
        "assignments": [
            {
                "comodule": name,
                "coaction": matrix_strings(rho),
            }
            for name, (_, rho) in zip(names, fd.assignments)
        ],
    }
    if fd.unit_map is not None:
        doc["unit_map"] = matrix_strings(fd.unit_map)
    return doc
