"""The field-scalar product loops that the lifted kernels replaced.

`multiply`, `comultiply` and `counit_of` are the earlier `Fraction`/`Mod`
loops of their namesakes in `weakhopf.structure`; `tensor_component` and
`pull_back` are the loops of `weakhopf.decomp` that applied L (x) R to a
tensor, in the leakage tests and in the reassembly check.  They are kept
verbatim, so the references and oracles in tests/ evaluate products without
going through the int kernels that they check.
"""

from weakhopf.errors import MalformedInput
from weakhopf.exactla import vec_zero


def multiply(a, x, y) -> tuple:
    """Bilinear extension of the multiplication tensor."""
    n = a.dim
    if len(x) != n or len(y) != n:
        raise MalformedInput("vector length does not match algebra dimension")
    out = list(vec_zero(a.field, n))
    for i, xi in enumerate(x):
        if not xi:
            continue
        mi = a.mult[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, m in enumerate(mi[j]):
                if m:
                    out[k] = out[k] + c * m
    return tuple(out)


def comultiply(c, x) -> tuple:
    """Delta(x) in row-major tensor-square coordinates."""
    n = c.dim
    if len(x) != n:
        raise MalformedInput("vector length does not match coalgebra dimension")
    out = list(vec_zero(c.field, n * n))
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, row in enumerate(c.comult[i]):
            base = j * n
            for k, d in enumerate(row):
                if d:
                    out[base + k] = out[base + k] + xi * d
    return tuple(out)


def counit_of(c, x):
    acc = c.field.zero
    for e, xi in zip(c.counit, x):
        if e and xi:
            acc = acc + e * xi
    return acc


def tensor_component(h, u, left_mat, right_mat):
    """(L (x) R) u for the row-major field tensor u, as its nonzero {a * n + b: value}."""
    n = h.dim
    z = h.field.zero
    left_cols, right_cols = left_mat.col_nz(), right_mat.col_nz()
    out = {}
    for idx, c in enumerate(u):
        if not c:
            continue
        a, b = divmod(idx, n)
        for a2, x in left_cols[a]:
            for b2, y in right_cols[b]:
                key = a2 * n + b2
                out[key] = out.get(key, z) + c * x * y
    return {k: v for k, v in out.items() if v}


def pull_back(h, flat, inv):
    """(inv (x) inv) flat for the row-major field tensor flat, as its nonzero
    {(a, b): value}: the comultiplication check of the reassembly."""
    n = h.dim
    z = h.field.zero
    inv_cols = inv.col_nz()
    pulled = {}
    for idx, c in enumerate(flat):
        if not c:
            continue
        a, b = divmod(idx, n)
        for a2, x in inv_cols[a]:
            for b2, y in inv_cols[b]:
                key = (a2, b2)
                pulled[key] = pulled.get(key, z) + c * x * y
    return {k: v for k, v in pulled.items() if v}
