"""Dense matrix references for the tests.

The library keeps a morphism's matrix as sparse rows, one {column: entry}
dict of nonzeros per codomain generator, and multiplies only those; only
Smith eliminates on a dense matrix.  The tests check it against the plain
dense arithmetic here, on tuples of row tuples, which shares no code with
it, and against the dense presentation [f | order columns] built here.
"""

from templikit.coeff import FREE, ShapeError


def densify(ring, rows, width):
    """The dense matrix, a tuple of row tuples, of sparse ``rows``."""
    zero = ring.zero()
    return tuple(tuple(row.get(j, zero) for j in range(width)) for row in rows)


def sparsify(ring, matrix):
    """The sparse rows of a dense ``matrix`` of canonical entries."""
    return [{j: x for j, x in enumerate(row) if not ring.is_zero(x)} for row in matrix]


def mat_identity(ring, n):
    one, zero = ring.one(), ring.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_hstack(a, b):
    if not a:
        return b
    if not b:
        return a
    return tuple(ra + rb for ra, rb in zip(a, b))


def order_columns(module):
    """Relation matrix of the presentation of ``module``: one column per
    torsion generator, holding its order at the generator's row."""
    n = module.ngens
    zero = module.ring.zero()
    cols = []
    for i, f in enumerate(module.factors):
        if f != FREE:
            col = [zero] * n
            col[i] = module.order_elt(i)
            cols.append(col)
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def mat_zero(ring, rows, cols):
    return tuple((ring.zero(),) * cols for _ in range(rows))


def dense_mat_mul(ring, a, b, cols=None):
    """The dense product: every column of b for each nonzero of a.  ``cols``
    is the width of b, which a b without rows cannot show (default: 0)."""
    rows = len(a)
    inner = len(b)
    if cols is None:
        cols = len(b[0]) if inner else 0
    if rows and len(a[0]) != inner:
        raise ShapeError(f"cannot multiply {rows}x{len(a[0])} by {inner}x{cols}")
    zero = ring.zero()
    mul, add, is_zero = ring.mul, ring.add, ring.is_zero
    out = []
    for i in range(rows):
        arow = a[i]
        row = [zero] * cols
        for k in range(inner):
            x = arow[k]
            if is_zero(x):
                continue
            brow = b[k]
            for j in range(cols):
                y = brow[j]
                if not is_zero(y):
                    row[j] = add(row[j], mul(x, y))
        out.append(tuple(row))
    return tuple(out)


def dense_mat_add(ring, a, b):
    return tuple(tuple(ring.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_mat_neg(ring, a):
    return tuple(tuple(ring.neg(x) for x in row) for row in a)


def dense_change_basis(ring, left, raw, right, width):
    """left * raw * right for the sparse transforms ``left`` and ``right``
    (None: the identity), densified and multiplied densely; ``width`` is the
    number of columns of ``right`` (of ``raw`` without it)."""
    if left is not None:
        inner = len(raw[0]) if raw else (len(right) if right is not None else width)
        raw = dense_mat_mul(ring, densify(ring, left, len(raw)), raw, inner)
    if right is not None:
        raw = dense_mat_mul(ring, raw, densify(ring, right, width), width)
    return raw


def reduce_torsion_rows(module, matrix):
    """Each entry of a torsion row of ``matrix`` reduced on its own: x %
    order over Z, x % p^f over Z/p^m, truncation at e^f over F_p[e]/(e^m);
    the rows of free generators are kept."""
    ring = module.ring
    rows = []
    for row, f in zip(matrix, module.factors):
        if f == 0:
            rows.append(tuple(row))
        elif ring.kind == "integers":
            rows.append(tuple(x % f for x in row))
        elif ring.kind == "chain":
            rows.append(tuple(x % ring.p ** f for x in row))
        else:
            rows.append(tuple(x[:f] + (0,) * (ring.m - f) for x in row))
    return tuple(rows)
