"""Exact linear algebra over the supported coefficient rings.

Rings: the integers, the rationals, prime fields F_p, chain rings Z/p^m and
dual chain rings F_p[e]/(e^m).  Finitely generated modules are stored in
invariant-factor normal form, morphisms as matrices of canonical ring
elements, and every operation (normal form, kernel, cokernel, tensor, base
change, finite limits and colimits) is computed exactly -- no floating point
anywhere.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod


class TemplikitError(Exception):
    """Base class for all library errors."""


class UnsupportedRingError(TemplikitError):
    """Requested a ring kind or ring pair outside the supported set."""


class RingMismatchError(TemplikitError):
    """Operands live over different rings or incompatible vertex data."""


class ShapeError(TemplikitError):
    """Matrix dimensions or factor data inconsistent with the declared modules."""


class InvalidInstanceError(TemplikitError):
    """An instance failed validation where a validated one was required."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# sets an attribute past Frozen's guard; unlike a write to ``__dict__``, it
# keeps the instance's attributes in their fast inline storage
_set = object.__setattr__


# the hash and a templicial module's caches, kept on the instance
_UNPICKLED = frozenset(("_hash", "_evaluator", "_validation", "_degenerate_parts"))


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in ``_fields``, in order.  Two instances are
    equal when they are of the same class and their fields are equal (else
    ``NotImplemented``), and the hash is that of the tuple of the fields,
    kept in ``_hash`` after the first call and left out of pickles, because
    a ``str`` hashes differently in another process; so are the caches in
    ``_UNPICKLED``, computed again on demand.  The repr is
    ``Class(field=value, ...)`` and assigning or deleting an attribute
    raises ``AttributeError``.  The default ``__init__`` takes the fields
    positionally; a class that validates or has defaults writes its own,
    setting the fields with ``_set``.
    """

    _fields = ()
    _hash = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields as one value, for one field, else as a tuple
        cls._values = operator.attrgetter(*cls._fields)

    def __init__(self, *values):
        names = self._fields
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} "
                            f"arguments ({', '.join(names)}), got {len(values)}")
        for name, value in zip(names, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            values = self._values(self)
            h = hash(values if len(self._fields) > 1 else (values,))
            _set(self, "_hash", h)
        return h

    def __getstate__(self):
        return {name: value for name, value in vars(self).items()
                if name not in _UNPICKLED}

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# Miller-Rabin with the prime bases up to 41 is exact below PRIME_LIMIT
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Primality of 0 <= p < PRIME_LIMIT by deterministic Miller-Rabin."""
    if p < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


INTEGERS = "integers"
RATIONALS = "rationals"
PRIME_FIELD = "prime-field"
CHAIN = "chain"
DUAL_CHAIN = "dual-chain"

_KINDS = (INTEGERS, RATIONALS, PRIME_FIELD, CHAIN, DUAL_CHAIN)


class Ring(Frozen):
    """A supported coefficient ring.

    Elements are plain Python values: ``int`` for the integers, prime fields
    (canonical representative in ``[0, p)``) and chain rings (``[0, p^m)``),
    ``Fraction`` for the rationals, and a length-``m`` tuple of ints in
    ``[0, p)`` for dual chain rings (coefficient of e^i at index i).
    """

    _fields = ("kind", "p", "m")

    def __init__(self, kind, p=None, m=None):
        _set(self, "kind", kind)
        _set(self, "p", p)
        _set(self, "m", m)
        if self.kind not in _KINDS:
            raise UnsupportedRingError(f"unsupported ring kind {self.kind!r}")
        if self.kind in (PRIME_FIELD, CHAIN, DUAL_CHAIN):
            if self.p is not None and self.p >= PRIME_LIMIT:
                raise UnsupportedRingError(
                    f"{self.kind} supports primes below {PRIME_LIMIT}, got {self.p}")
            if self.p is None or not _is_prime(self.p):
                raise UnsupportedRingError(f"{self.kind} requires a prime p, got {self.p!r}")
        else:
            if self.p is not None or self.m is not None:
                raise UnsupportedRingError(f"{self.kind} takes no parameters")
        if self.kind in (CHAIN, DUAL_CHAIN):
            if self.m is None or self.m < 1:
                raise UnsupportedRingError(f"{self.kind} requires nilpotency m >= 1, got {self.m!r}")
        if self.kind == PRIME_FIELD and self.m is not None:
            raise UnsupportedRingError("prime-field takes no nilpotency")
        if self.kind == CHAIN:
            _set(self, "_modulus", self.p ** self.m)
        # zero() and one() return these shared values
        if self.kind == RATIONALS:
            zero, one = Fraction(0), Fraction(1)
        elif self.kind == DUAL_CHAIN:
            zero, one = (0,) * self.m, (1,) + (0,) * (self.m - 1)
        else:
            zero, one = 0, 1
        _set(self, "_zero", zero)
        _set(self, "_one", one)
        # Module.zero(self) returns this shared module
        _set(self, "_zero_module", Module(self, ()))

    # written out, as the generic __eq__ takes about twice as long on this hot path
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.p == other.p and self.m == other.m

    __hash__ = Frozen.__hash__

    # -- constructors -------------------------------------------------

    @staticmethod
    def integers():
        return Ring(INTEGERS)

    @staticmethod
    def rationals():
        return Ring(RATIONALS)

    @staticmethod
    def prime_field(p):
        return Ring(PRIME_FIELD, p=p)

    @staticmethod
    def chain(p, m):
        return Ring(CHAIN, p=p, m=m)

    @staticmethod
    def dual_chain(p, m):
        return Ring(DUAL_CHAIN, p=p, m=m)

    # -- structure ----------------------------------------------------

    @property
    def is_field(self):
        return self.kind in (RATIONALS, PRIME_FIELD)

    @property
    def is_chain_kind(self):
        return self.kind in (CHAIN, DUAL_CHAIN)

    @property
    def uniformizer(self):
        if self.kind == CHAIN:
            return self.reduce(self.p)
        if self.kind == DUAL_CHAIN:
            return self.reduce(tuple(1 if i == 1 else 0 for i in range(max(self.m, 2))))
        raise UnsupportedRingError(f"{self} has no uniformizer")

    def __str__(self):
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME_FIELD:
            return f"F{self.p}"
        if self.kind == CHAIN:
            return f"Z/{self.p}^{self.m}"
        return f"F{self.p}[e]/(e^{self.m})"

    # -- element arithmetic --------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def reduce(self, x):
        """Canonical representative of an element-like value."""
        k = self.kind
        if k == INTEGERS:
            return int(x)
        if k == RATIONALS:
            return Fraction(x)
        if k == PRIME_FIELD:
            return int(x) % self.p
        if k == CHAIN:
            return int(x) % self._modulus
        if type(x) is tuple and len(x) == self.m:
            p = self.p
            for c in x:
                if not (type(c) is int and 0 <= c < p):
                    break
            else:
                return x
        coeffs = tuple(int(c) % self.p for c in x)
        if len(coeffs) < self.m:
            coeffs = coeffs + (0,) * (self.m - len(coeffs))
        return coeffs[: self.m]

    def from_int(self, n):
        if self.kind == DUAL_CHAIN:
            return self.reduce((n,))
        return self.reduce(n)

    def add(self, a, b):
        if self.kind == DUAL_CHAIN:
            p = self.p
            if self.m == 2:
                return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return self.reduce(a + b)

    def neg(self, a):
        if self.kind == DUAL_CHAIN:
            p = self.p
            if self.m == 2:
                return (-a[0] % p, -a[1] % p)
            return tuple([-x % p for x in a])
        return self.reduce(-a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        k = self.kind
        if k == DUAL_CHAIN:
            p, m = self.p, self.m
            if m == 2:
                a0, a1 = a
                b0, b1 = b
                return (a0 * b0 % p, (a0 * b1 + a1 * b0) % p)
            out = [0] * m
            for i, x in enumerate(a):
                if x:
                    for j in range(m - i):
                        y = b[j]
                        if y:
                            out[i + j] = (out[i + j] + x * y) % p
            return tuple(out)
        return self.reduce(a * b)

    def is_zero(self, a):
        if self.kind == DUAL_CHAIN:
            return not any(a)
        return a == 0

    def is_unit(self, a):
        k = self.kind
        if k == INTEGERS:
            return a in (1, -1)
        if k == RATIONALS:
            return a != 0
        if k in (PRIME_FIELD, CHAIN):
            return a % self.p != 0
        return a[0] % self.p != 0

    def inv(self, a):
        """Inverse of a unit."""
        k = self.kind
        if k == INTEGERS:
            if a in (1, -1):
                return a
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        if k == RATIONALS:
            return Fraction(1) / a
        if k == PRIME_FIELD:
            return pow(a, -1, self.p)
        if k == CHAIN:
            return pow(a, -1, self._modulus)
        p, m = self.p, self.m
        b = [pow(a[0], -1, p)]
        for n in range(1, m):
            acc = 0
            for i in range(1, n + 1):
                acc = (acc + a[i] * b[n - i]) % p
            b.append((-b[0] * acc) % p)
        return tuple(b)

    def valuation(self, a):
        """Uniformizer-adic valuation on chain kinds (m for zero)."""
        if self.kind == CHAIN:
            if a == 0:
                return self.m
            if a % self.p:
                return 0
            # the p^(2^k) dividing a give the binary digits of v, highest
            # first: O(log v) big-integer operations
            powers, v = [self.p], 0
            while a % (q := powers[-1] * powers[-1]) == 0:
                powers.append(q)
            for k in range(len(powers) - 1, -1, -1):
                if a % powers[k] == 0:
                    a, v = a // powers[k], v + (1 << k)
            return v
        if self.kind == DUAL_CHAIN:
            for i, c in enumerate(a):
                if c:
                    return i
            return self.m
        raise UnsupportedRingError(f"no valuation on {self}")

    def divides(self, a, b):
        """Whether a | b in the ring (0 | b iff b = 0)."""
        k = self.kind
        if k == INTEGERS:
            return b == 0 if a == 0 else b % a == 0
        if self.is_field:
            return a != 0 or b == 0
        return self.valuation(b) >= self.valuation(a)

    def divide(self, b, a):
        """Exact quotient b / a; caller guarantees a | b."""
        k = self.kind
        if k == INTEGERS:
            return b // a
        if k == RATIONALS:
            return b / a
        if k == PRIME_FIELD:
            return (b * pow(a, -1, self.p)) % self.p
        if k == CHAIN:
            pv = self.p ** self.valuation(a)
            return self.reduce((b // pv) * pow(a // pv, -1, self._modulus))
        va = self.valuation(a)
        ua = self.reduce(a[va:])
        shifted = self.reduce(b[va:])
        return self.mul(shifted, self.inv(ua))

    def pivot_key(self, a):
        """Smaller keys are better Smith pivots (valuation-style)."""
        if self.kind == INTEGERS:
            return abs(a)
        if self.is_field:
            return 0
        return self.valuation(a)

    def normalizing_unit(self, a):
        """Unit u with u*a the canonical associate (positive, 1, or pi^v)."""
        k = self.kind
        if k == INTEGERS:
            return -1 if a < 0 else 1
        if self.is_field:
            return self.inv(a)
        if k == CHAIN:
            return pow(a // self.p ** self.valuation(a), -1, self._modulus)
        v = self.valuation(a)
        return self.inv(self.reduce(a[v:]))


# ---------------------------------------------------------------------------
# matrices: sparse rows, one {column: entry} dict of nonzeros per row.  Only
# Smith eliminates on a dense matrix, a tuple of row tuples; its input is
# densified by _dense and its transforms come out as sparse rows
# ---------------------------------------------------------------------------


def _dense(ring, rows, height, width):
    """The dense ``height`` x ``width`` matrix, a tuple of row tuples, of
    the sparse rows given as (index, {column: entry}) pairs; rows not given
    are zero."""
    zero = ring.zero()
    out = [[zero] * width for _ in range(height)]
    for i, row in rows:
        line = out[i]
        for j, x in row.items():
            line[j] = x
    return tuple(map(tuple, out))


def _nonzero_rows(ring, matrix):
    """The sparse rows of a dense ``matrix``: its entries made canonical,
    the nonzeros of each row as {column: entry}."""
    reduce, zero = ring.reduce, ring.zero()
    return [{j: y for j, x in enumerate(row) if (y := reduce(x)) != zero} for row in matrix]


def _kronecker(ring, inner):
    """(mask, offsets, weights) of the Kronecker substitution for sums of at
    most ``inner`` products over F_p[e]/(e^m).

    x becomes the integer with base-2^shift digits x_0, ..., x_{m-1}
    (``weights`` are the digit values).  Digit k of a sum of such products
    is sum x_i y_j over i + j = k, at most inner * m * (p-1)^2 < 2^shift, so
    no digit carries and the low m digits, read at ``offsets`` under
    ``mask``, are the coordinates of the truncated product.
    """
    p, m = ring.p, ring.m
    shift = (max(inner, 1) * m * (p - 1) ** 2).bit_length()
    offsets = range(0, m * shift, shift)
    return (1 << shift) - 1, offsets, [1 << k for k in offsets]


def mat_mul(ring, a, b):
    """a * b on sparse rows, as a list of sparse rows.

    Row-sparse (Gustavson): each row of a accumulates the products of its
    nonzeros with the nonzeros of the matching rows of b, in one loop per
    ring kind.  Over Z, Q, F_p and Z/p^k the products are summed as
    numbers, and over F_p and Z/p^k each output entry is reduced once by
    one ``% q`` (over Z and Q a sum of canonical products is canonical).
    Over F_p[e]/(e^2) they are summed as two integer coordinates, x0*y0 and
    x0*y1 + x1*y0, each reduced once ``% p``; over F_p[e]/(e^m) for other
    m, packed one coordinate per digit (:func:`_kronecker`).  Entries that
    vanish are left out."""
    kind = ring.kind
    out = []
    if kind != DUAL_CHAIN:
        q = ring._modulus if kind == CHAIN else ring.p if kind == PRIME_FIELD else None
        for arow in a:
            acc = {}
            for k, x in arow.items():
                for j, y in b[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            if q is None:
                out.append({j: t for j, t in acc.items() if t})
            else:
                out.append({j: z for j, t in acc.items() if (z := t % q)})
        return out
    p = ring.p
    if ring.m == 2:
        for arow in a:
            acc = {}
            for k, (x0, x1) in arow.items():
                for j, (y0, y1) in b[k].items():
                    s = acc.get(j)
                    if s is None:
                        acc[j] = [x0 * y0, x0 * y1 + x1 * y0]
                    else:
                        s[0] += x0 * y0
                        s[1] += x0 * y1 + x1 * y0
            out.append({j: z for j, (t0, t1) in acc.items()
                        if (z := (t0 % p, t1 % p)) != (0, 0)})
        return out
    zero = ring.zero()
    mask, offsets, weights = _kronecker(ring, len(b))
    packed = [None] * len(b)
    for arow in a:
        acc = {}
        for k, x in arow.items():
            x = sum(map(operator.mul, x, weights))
            if (bk := packed[k]) is None:
                bk = packed[k] = [(j, sum(map(operator.mul, y, weights)))
                                  for j, y in b[k].items()]
            for j, y in bk:
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: z for j, t in acc.items()
                    if (z := tuple([(t >> k & mask) % p for k in offsets])) != zero})
    return out


def change_basis(ring, left, rows, right):
    """left * rows * right on sparse rows, where a None factor stands for
    the identity."""
    if left is not None:
        rows = mat_mul(ring, left, rows)
    if right is not None:
        rows = mat_mul(ring, rows, right)
    return rows


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SmithResult:
    """U*A*V = diag(d);  A = L*diag(d)*V^-1 with L = U^-1.

    ``d`` lists the min(rows, cols) diagonal entries.  Each transform asked
    for is a list of sparse rows, one {column: entry} dict of nonzeros per
    row; one not asked for is None.  Mutable, so unhashable."""

    _fields = ("d", "left", "row_transform", "col_transform")
    _values = operator.attrgetter(*_fields)

    def __init__(self, d, left=None, row_transform=None, col_transform=None):
        self.d = d
        self.left = left                    # L = U^-1
        self.row_transform = row_transform  # U
        self.col_transform = col_transform  # V

    __repr__ = Frozen.__repr__
    __eq__ = Frozen.__eq__
    __hash__ = None


def smith(ring, matrix, *, left=False, row_t=False, col_t=False):
    """Diagonalize the dense ``matrix``, of canonical ring elements, by
    invertible row and column operations.

    Deterministic pivoting: smallest nonzero valuation (absolute value over
    the integers), ties broken by lowest row then column index.  Diagonal
    entries come out as canonical associates in successive-divisibility
    order.

    One elimination carries every transform.  U (``row_t``) extends the rows
    of A as [A | U], so a row operation is one pass over one row; V
    (``col_t``) is stacked below A, so a column operation is one pass down
    the stacked rows.  L^T (``left``) takes the inverse row operations as
    row operations: row i += c*row k on A is row k -= c*row i on L^T.  A
    transform nobody asked for has no entries, so it costs no arithmetic.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    zero, one = ring.zero(), ring.one()
    add, mul = ring.add, ring.mul
    neg = ring.neg if ring.kind == DUAL_CHAIN else operator.neg

    def unit_rows(n, keep):
        # the rows of the n x n identity, or n empty rows (never written)
        return [[one if j == i else zero for j in range(n)] for i in range(n)] if keep else [[]] * n

    u = unit_rows(rows, row_t)
    a = [list(matrix[i]) + u[i] for i in range(rows)]
    if col_t:
        a += unit_rows(cols, True)
    linv = unit_rows(rows, left)  # L^T

    # y += c*x over each nonzero x: ring arithmetic on tuples, inline
    # arithmetic elsewhere (zero tests by truthiness, reduced mod q over F_p
    # and Z/p^m, unreduced over Z and Q)
    if ring.kind == DUAL_CHAIN:
        def axpy(dst, src, c):
            for j, x in enumerate(src):
                if x != zero:
                    dst[j] = add(dst[j], mul(c, x))

        def col_op(j, k, c):
            for r in a:
                x = r[k]
                if x != zero:
                    r[j] = add(r[j], mul(c, x))
    elif ring.kind in (INTEGERS, RATIONALS):
        def axpy(dst, src, c):
            for j, x in enumerate(src):
                if x:
                    dst[j] = dst[j] + c * x

        def col_op(j, k, c):
            for r in a:
                x = r[k]
                if x:
                    r[j] = r[j] + c * x
    else:
        q = ring.p if ring.kind == PRIME_FIELD else ring._modulus

        def axpy(dst, src, c):
            for j, x in enumerate(src):
                if x:
                    dst[j] = (dst[j] + c * x) % q

        def col_op(j, k, c):
            for r in a:
                x = r[k]
                if x:
                    r[j] = (r[j] + c * x) % q

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        linv[i], linv[k] = linv[k], linv[i]

    def row_op(i, k, c):
        # row i += c * row k; on L^T, row k -= c * row i
        axpy(a[i], a[k], c)
        axpy(linv[k], linv[i], neg(c))

    def row_scale(i, w):
        # row i *= w; on L^T, row i *= w^-1
        for row, s in ((a[i], w), (linv[i], ring.inv(w))):
            for j, x in enumerate(row):
                if x != zero:
                    row[j] = mul(s, x)

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]

    euclid = ring.kind == INTEGERS
    # over chain kinds and fields the minimal valuation of the remaining
    # submatrix never decreases, so the previous pivot's key is a sharp
    # early-exit bound; over Z remainders can shrink, keep the bound at 1
    bound = 1 if euclid else 0
    pivot_key = ring.pivot_key

    def find_pivot(t):
        best = best_key = None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if x != zero:
                    key = pivot_key(x)
                    if best is None or key < best_key:
                        best, best_key = (i, j), key
                        if key <= bound:
                            return best, key
        return best, best_key

    def pivot_to(t):
        # move the best pivot of the remaining submatrix to (t, t); its key
        best, key = find_pivot(t)
        if best is not None:
            row_swap(t, best[0])
            col_swap(t, best[1])
        return key

    limit = min(rows, cols)
    for t in range(limit):
        key = pivot_to(t)
        if key is None:
            break
        if not euclid:
            bound = max(bound, key)
            piv = a[t][t]
            for i in range(t + 1, rows):
                x = a[i][t]
                if x != zero:
                    row_op(i, t, neg(ring.divide(x, piv)))
            for j in range(t + 1, cols):
                x = a[t][j]
                if x != zero:
                    col_op(j, t, neg(ring.divide(x, piv)))
            continue
        while True:
            if a[t][t] < 0:
                row_scale(t, -1)
            piv = a[t][t]
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, -(a[i][t] // piv))
            if any(a[i][t] for i in range(t + 1, rows)):
                pivot_to(t)
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_op(j, t, -(a[t][j] // piv))
            if any(a[t][t + 1:cols]):
                pivot_to(t)
                continue
            # the pivot must divide the rest; else add a row it does not
            # divide to row t and go round again
            if piv == 1:
                break
            bad = next((i for i in range(t + 1, rows)
                        if any(x % piv for x in a[i][t + 1:cols])), None)
            if bad is None:
                break
            row_op(t, bad, 1)

    d = []
    for i in range(limit):
        x = a[i][i]
        if x != zero:
            w = ring.normalizing_unit(x)
            if w != one:
                row_scale(i, w)
        d.append(a[i][i] if x != zero else zero)

    def sparse(lines, start=0):
        # the nonzeros of columns start.. of each row, renumbered from 0
        return [{j: x for j, x in enumerate(r[start:]) if x != zero} for r in lines]

    return SmithResult(
        d=d,
        left=sparse(zip(*linv)) if left else None,
        row_transform=sparse(a[:rows], cols) if row_t else None,
        col_transform=sparse(a[rows:]) if col_t else None,
    )


def normal_form(ring, matrix):
    """Public Smith decomposition: (d, L, R) with matrix = L * diag(d) * R.

    ``d`` is the tuple of diagonal invariant factors (canonical associates in
    successive-divisibility order); L and R are square invertible transforms,
    dense tuples of row tuples.
    """
    if not isinstance(ring, Ring):
        raise UnsupportedRingError(f"not a supported ring: {ring!r}")
    res = smith(ring, matrix, left=True, col_t=True)
    v = res.col_transform
    # R = V^-1, the unique solution of V*R = I
    right = solve_linear(ring, _dense(ring, enumerate(v), len(v), len(v)),
                         [{i: ring.one()} for i in range(len(v))])
    return tuple(res.d), *(_dense(ring, enumerate(t), len(t), len(t))
                           for t in (res.left, right))


def invariant_factors(ring, matrix):
    return tuple(smith(ring, matrix).d)


def solve_linear(ring, a, b, cols=None):
    """One X with A*X = B over the ring, for a dense A and B given as sparse
    rows (one per row of A); X as sparse rows (one per unknown), or None if
    no solution exists.  ``cols``, the number of unknowns, is read only
    when A has no rows to show it (default: 0)."""
    if len(b) != len(a):
        raise ShapeError("solve_linear: row count mismatch")
    if not a:
        return [{} for _ in range(cols or 0)]
    res = smith(ring, a, row_t=True, col_t=True)
    d = res.d
    z = [{} for _ in res.col_transform]
    for i, row in enumerate(mat_mul(ring, res.row_transform, b)):
        di = d[i] if i < len(d) else None
        for j, rhs in row.items():
            if di is None or ring.is_zero(di) or not ring.divides(di, rhs):
                return None
            z[i][j] = ring.divide(rhs, di)
    return mat_mul(ring, res.col_transform, z)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

FREE = 0


def _factor_sort_key(f):
    # torsion ascending first, free factors (0) last
    return (1, 0) if f == FREE else (0, f)


def _canonical_factor(ring, f):
    """Normalize a raw cyclic order indicator; None means the factor is trivial."""
    if f == FREE:
        return FREE
    if ring.kind == INTEGERS:
        f = abs(f)
        return None if f == 1 else f
    if ring.is_field:
        raise UnsupportedRingError(f"no torsion factors over {ring}")
    if f <= 0:
        return None
    return FREE if f >= ring.m else f


def _factor_order_elt(ring, f):
    """Generator annihilator as a ring element (zero for free generators).
    Over the integers that is the order f itself; elsewhere it is cached,
    at most m values per ring."""
    if ring.kind == INTEGERS:
        return f
    return _chain_order_elt(ring, f)


@lru_cache(maxsize=None)
def _chain_order_elt(ring, f):
    if f == FREE:
        return ring.zero()
    if ring.kind == CHAIN:
        return ring.reduce(ring.p ** f)
    return tuple(1 if t == f else 0 for t in range(ring.m))


class Module(Frozen):
    """Finitely generated module in invariant-factor normal form.

    ``factors`` lists cyclic orders: 0 means a free summand; over the
    integers a value d >= 2 means Z/d, over chain kinds an exponent
    1 <= e < m means R/(pi^e).  Torsion factors come first in ascending
    divisibility order, free factors last.

    ``Module(ring, factors)`` is the trust boundary, as for :class:`Morphism`:
    it checks the factors' orders and normal form.  ``_trusted`` skips that
    for base change and the view over the source, Smith diagonals
    (``_diagonal_factors``), counted cokernels and extension sub values.
    """

    _fields = ("ring", "factors")

    def __init__(self, ring, factors):
        _set(self, "ring", ring)
        _set(self, "factors", factors)
        field, integers, m = ring.is_field, ring.kind == INTEGERS, ring.m
        for f in factors:
            if f == FREE:
                continue
            if field:
                raise UnsupportedRingError(f"torsion factor over field {ring}")
            if integers and f < 2:
                raise ShapeError(f"invalid integer torsion order {f}")
            if not integers and not 1 <= f < m:
                raise ShapeError(f"invalid chain exponent {f} for {ring}")
        torsion = [f for f in factors if f != FREE]
        ntors = len(torsion)
        if ntors and (list(factors[:ntors]) != torsion or torsion != sorted(torsion)):
            raise ShapeError(f"factors not in normal form: {factors}")
        if integers:
            for a, b in zip(torsion, torsion[1:]):
                if b % a:
                    raise ShapeError(f"integer factors lack divisibility chain: {factors}")
        # the torsion generators come first: factors[:_ntorsion]
        _set(self, "_ntorsion", ntors)

    @staticmethod
    def _trusted(ring, factors, ntorsion):
        """Unchecked: ``factors`` in normal form, the first ``ntorsion`` torsion."""
        out = object.__new__(Module)
        _set(out, "ring", ring)
        _set(out, "factors", factors)
        _set(out, "_ntorsion", ntorsion)
        return out

    # written out, as the generic __eq__ takes about twice as long on this hot path
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.factors) == (other.ring, other.factors)

    __hash__ = Frozen.__hash__

    @staticmethod
    def free(ring, rank):
        return Module(ring, (FREE,) * rank)

    @staticmethod
    def zero(ring):
        """The zero module, one per ring."""
        return ring._zero_module

    @property
    def rank(self):
        return len(self.factors) - self._ntorsion

    @property
    def ngens(self):
        return len(self.factors)

    @property
    def is_zero(self):
        return not self.factors

    def order_elt(self, i):
        return _factor_order_elt(self.ring, self.factors[i])

    def is_flat(self):
        """Flat = projective = free for f.g. modules over the supported rings."""
        return all(f == FREE for f in self.factors)

    def __str__(self):
        if not self.factors:
            return "0"
        parts = []
        for f in self.factors:
            if f == FREE:
                parts.append(str(self.ring))
            elif self.ring.kind == INTEGERS:
                parts.append(f"Z/{f}")
            elif self.ring.kind == CHAIN:
                parts.append(f"Z/{self.ring.p}^{f}" if f > 1 else f"Z/{self.ring.p}")
            else:
                parts.append(f"F{self.ring.p}[e]-span/(e^{f})")
        return " + ".join(parts)


def _onto_quotient(ring, local):
    """The map of canonical elements of ``ring`` onto their residues in its
    quotient ``local`` = R/(pi^e) (:func:`_quotient_ring`)."""
    if local.kind == DUAL_CHAIN:
        e = local.m
        return lambda x: x[:e]
    if ring.kind == DUAL_CHAIN:
        return operator.itemgetter(0)
    q = local._modulus
    return lambda x: x % q


def _order_rows(ring, rows, orders, width, local=None):
    """Fresh sparse rows of the presentation [map | order columns] of the
    cokernel of a map with ``width`` columns, given by the nonzeros ``rows``
    ({column: entry}, one dict per codomain generator), into the sum of
    cyclics of the raw ``orders``: the k-th torsion generator, of order f,
    gets f at column width + k.  When ``local``, a quotient R/(pi^e) of the
    ring (:func:`_quotient_ring`), is given, the entries are mapped onto it.
    Zero entries and rows are left out; the result maps row indices to
    rows."""
    residue = None if local is None else _onto_quotient(ring, local)
    zero = (local or ring).zero()
    out, column = {}, width
    for i, (row, f) in enumerate(zip(rows, orders)):
        if residue is None:
            entries = dict(row)
        else:
            entries = {j: y for j, x in row.items() if (y := residue(x)) != zero}
        if f != FREE:
            x = _factor_order_elt(ring, f)
            if residue is not None:
                x = residue(x)
            if x != zero:
                entries[column] = x
            column += 1
        if entries:
            out[i] = entries
    return out


def _presentation_matrix(ring, rows, orders, width):
    """The dense [map | order columns] of :func:`_order_rows`, as Smith
    reads it: one row per generator, one column per column of the map and
    per torsion generator."""
    ntors = sum(f != FREE for f in orders)
    return _dense(ring, _order_rows(ring, rows, orders, width).items(), len(orders),
                  width + ntors)


def _reduce_row(ring, f, row):
    """A sparse ``row`` of a generator of order ``f`` (0: free), of
    canonical entries, reduced modulo that order, without its zero entries:
    x % f over Z, x % p^f over Z/p^m, and over F_p[e]/(e^m) the truncation
    to the coordinates below e^f (x0 alone when f = 1)."""
    if f == FREE:
        zero = ring.zero()
        return {j: x for j, x in row.items() if x != zero}
    kind = ring.kind
    if kind != DUAL_CHAIN:
        q = f if kind == INTEGERS else ring.p ** f
        return {j: y for j, x in row.items() if (y := x % q)}
    pad = (0,) * (ring.m - f)
    if f == 1:
        return {j: (x[0],) + pad for j, x in row.items() if x[0]}
    return {j: x[:f] + pad for j, x in row.items() if any(x[:f])}


def _reduce_torsion(codomain, rows):
    """Sparse ``rows`` into ``codomain`` with the rows of its torsion
    generators reduced modulo their orders; the rows of free generators are
    kept as they are."""
    ntors = codomain._ntorsion
    if not ntors:
        return rows
    ring = codomain.ring
    return [_reduce_row(ring, f, row) for f, row in zip(codomain.factors, rows[:ntors])] \
        + rows[ntors:]


class Morphism(Frozen):
    """Matrix morphism between presented modules.

    ``rows`` holds the matrix: one {column: entry} dict of the nonzero
    entries per codomain generator, where entry (i, j) is the coefficient of
    codomain generator i in the image of domain generator j.  Entries are
    canonical ring elements, reduced modulo the codomain generator orders,
    and no row stores a zero.  ``matrix`` is the dense view, a tuple of row
    tuples built on first read, for the public surface only: the instance
    encoder and Smith's inputs (:func:`_presentation_matrix`) read ``rows``.
    Two maps are equal, and hash equal, exactly when their domains,
    codomains and entries agree.

    Invariants are checked once, at the trust boundary.  ``Morphism(domain,
    codomain, matrix)`` takes a dense matrix and validates: it checks that
    both modules share the ring and that the shape matches, reduces every
    entry, and verifies the congruence condition making the map well defined
    on cyclic generators.  Instance parsing, the constructors, the
    validators and every map read off a Smith normal form (kernels,
    cokernels, images, solutions of linear systems, the factorizations
    through limits and colimits, and the witnesses of a normalized direct
    sum) go through these checks; Smith's sparse transforms and their
    products enter them as sparse rows (``_checked``).  The dense input is
    made sparse here and nowhere else.

    Results that are valid whenever their operands are skip those checks and
    are written as sparse rows (``_trusted``): ``identity``, ``zero``,
    ``compose``, ``+``, ``-``, ``scale``, tensor products of morphisms
    (``tensor_morphisms`` and the components of ``tensor_quiver_morphisms``,
    which also carry the coherence isomorphisms between bracketings), base
    change along a ring extension and the view of a target map over the
    source (``RingExtension.base_change_morphism`` and
    ``view_morphism_over_source``), the block witnesses of a direct sum that
    is a plain concatenation, and the difference maps and cones of finite
    limits and colimits.  Sums, products and composites of congruence-valid
    entries stay congruence-valid and ring operations return canonical
    elements, so these only reduce the rows of torsion generators.
    """

    _fields = ("domain", "codomain", "rows")

    def __init__(self, domain, codomain, matrix):
        if domain.ring != codomain.ring:
            raise RingMismatchError(f"{domain.ring} vs {codomain.ring}")
        rows, cols = codomain.ngens, domain.ngens
        if len(matrix) != rows or any(len(r) != cols for r in matrix):
            raise ShapeError(f"matrix shape mismatch, expected {rows}x{cols}")
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)
        _set(self, "rows", _reduce_torsion(codomain, _nonzero_rows(domain.ring, matrix)))
        self.__post_init__()

    # named for perfbench/layers.py, whose ``METHODS`` times it as the
    # ``coeff.Morphism`` span; test_public_surface.py guards the name
    def __post_init__(self):
        """Check that every entry is congruence-valid: pi^a x vanishes in the
        codomain for a domain generator of order pi^a (a over Z)."""
        ntors = self.domain._ntorsion
        if not ntors:
            return
        ring, source, target = self.ring, self.domain.order_elt, self.codomain.order_elt
        bad = [(j, i, x) for i, row in enumerate(self.rows) for j, x in row.items()
               if j < ntors and not ring.divides(target(i), ring.mul(source(j), x))]
        if bad:
            j, i, x = min(bad, key=lambda entry: entry[:2])
            raise ShapeError(
                f"entry ({i},{j}) = {x!r} not congruence-valid "
                f"({self.domain.factors[j]} -> {self.codomain.factors[i]})")

    @staticmethod
    def _checked(domain, codomain, rows):
        """The morphism of sparse ``rows`` of canonical ring elements, of the
        right shape and without zeros, with the constructor's check of its
        entries."""
        out = Morphism._trusted(domain, codomain, rows)
        out.__post_init__()
        return out

    @staticmethod
    def _trusted(domain, codomain, rows):
        """A morphism whose sparse rows are congruence-valid by construction.

        ``rows`` must be a list of the right shape holding canonical ring
        elements and no zeros.  Only the rows of torsion generators are
        reduced, because products and sums over Z or a chain ring can leave
        them above the generator order; free rows are kept as they are.
        """
        out = object.__new__(Morphism)
        _set(out, "domain", domain)
        _set(out, "codomain", codomain)
        _set(out, "rows", _reduce_torsion(codomain, rows))
        return out

    # its own hash, because its rows are dicts
    def __hash__(self):
        return hash((self.domain, self.codomain,
                     tuple(frozenset(row.items()) for row in self.rows)))

    @cached_property
    def matrix(self):
        """The dense matrix, a tuple of row tuples, built on first read."""
        return _dense(self.ring, enumerate(self.rows), len(self.rows), self.domain.ngens)

    @property
    def ring(self):
        return self.domain.ring

    @staticmethod
    def identity(module):
        one = module.ring.one()
        return Morphism._trusted(module, module, [{i: one} for i in range(module.ngens)])

    @staticmethod
    def zero(domain, codomain):
        return Morphism._trusted(domain, codomain, [{} for _ in range(codomain.ngens)])

    def compose(self, other):
        """self o other."""
        if other.codomain != self.domain:
            raise ShapeError("composition mismatch")
        return Morphism._trusted(other.domain, self.codomain,
                                 mat_mul(self.ring, self.rows, other.rows))

    def __add__(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError("morphism sum mismatch")
        return self._sum(other.rows)

    def __sub__(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError("morphism difference mismatch")
        neg = self.ring.neg
        return self._sum([{j: neg(x) for j, x in row.items()} for row in other.rows])

    def _sum(self, rows):
        add, zero = self.ring.add, self.ring.zero()
        out = []
        for mine, theirs in zip(self.rows, rows):
            row = dict(mine)
            for j, x in theirs.items():
                if j not in row:
                    row[j] = x
                elif (s := add(row[j], x)) != zero:
                    row[j] = s
                else:
                    del row[j]
            out.append(row)
        return Morphism._trusted(self.domain, self.codomain, out)

    def scale(self, c):
        mul, zero = self.ring.mul, self.ring.zero()
        return Morphism._trusted(self.domain, self.codomain, [
            {j: y for j, x in row.items() if (y := mul(c, x)) != zero} for row in self.rows])

    @property
    def is_zero_map(self):
        return not any(self.rows)


def _diagonal_factors(ring, d, n):
    """The quotient of R^n by a Smith diagonal ``d`` (missing entries are 0).

    Returns (kept, module): the generators i < n whose d_i is not a unit,
    ordered like the factors of ``module``, the quotient in normal form.
    """
    kept, factors = [], []
    for i in range(n):
        di = d[i] if i < len(d) else ring.zero()
        if ring.is_zero(di):
            factors.append(FREE)
        elif ring.is_unit(di):
            continue
        else:
            factors.append(abs(di) if ring.kind == INTEGERS else ring.valuation(di))
        kept.append(i)
    order = sorted(range(len(factors)), key=lambda k: _factor_sort_key(factors[k]))
    module = Module._trusted(ring, tuple(factors[k] for k in order),
                             len(factors) - factors.count(FREE)) if factors else Module.zero(ring)
    return [kept[k] for k in order], module


def _presentation(ring, rows, orders, width):
    """Normal form of the module generated by cyclics of the raw ``orders``
    with the relations ``rows``, the sparse rows of a map with ``width``
    columns into their sum, and witnessing isos.

    Returns (module, to_norm, from_norm), the isos as sparse rows: to_norm
    maps raw generator coordinates to normal-form coordinates, from_norm is
    a section of it.
    """
    if not orders:
        return Module.zero(ring), [], []
    res = smith(ring, _presentation_matrix(ring, rows, orders, width), left=True, row_t=True)
    kept, module = _diagonal_factors(ring, res.d, len(orders))
    from_norm = [{k: row[i] for k, i in enumerate(kept) if i in row} for row in res.left]
    return module, [res.row_transform[i] for i in kept], from_norm


def normalize_orders(ring, raw_factors):
    """Normal form of a direct sum of cyclics given by raw order indicators.

    Raw indicators use the Module conventions (0 = free); trivial factors
    must already be removed by the caller.  Returns (module, to_norm,
    from_norm) like :func:`_presentation`, except that both transforms are
    None when the raw generators already are the normal form.
    """
    if not raw_factors:
        return Module.zero(ring), None, None
    n = len(raw_factors)
    canonical = [_canonical_factor(ring, f) for f in raw_factors]
    if any(c is None for c in canonical):
        raise ShapeError("normalize_orders received a trivial factor")
    try:
        return Module(ring, tuple(canonical)), None, None
    except ShapeError:
        pass
    # permutation path: sort factors; over Z also require a divisibility chain
    order = sorted(range(n), key=lambda k: _factor_sort_key(canonical[k]))
    sorted_f = [canonical[k] for k in order]
    ok = True
    if ring.kind == INTEGERS:
        torsion = [f for f in sorted_f if f != FREE]
        ok = all(b % a == 0 for a, b in zip(torsion, torsion[1:]))
    if ok:
        one = ring.one()
        from_norm = [None] * n
        for r, i in enumerate(order):
            from_norm[i] = {r: one}
        return Module(ring, tuple(sorted_f)), [{i: one} for i in order], from_norm
    return _presentation(ring, [{}] * n, canonical, 0)


class DirectSum(Frozen):
    """Biproduct of ``summands``; ``to_norm``/``from_norm`` change basis
    between the concatenated generators and ``module``, as sparse rows
    (None: identity).  The injection and projection witnesses are built on
    first read."""

    _fields = ("module", "summands", "to_norm", "from_norm")

    def _blocks(self):
        starts, _ = _block_starts(self.summands)
        return zip(starts, self.summands)

    @cached_property
    def injections(self):
        module, to_n = self.module, self.to_norm
        if to_n is not None:
            return tuple(Morphism._checked(m, module, [
                {j - start: x for j, x in row.items() if start <= j < start + m.ngens}
                for row in to_n]) for start, m in self._blocks())
        # concatenation already canonical: block unit witnesses
        one = module.ring.one()
        return tuple(Morphism._trusted(m, module, [
            {r - start: one} if start <= r < start + m.ngens else {}
            for r in range(module.ngens)]) for start, m in self._blocks())

    @cached_property
    def projections(self):
        module, from_n = self.module, self.from_norm
        if from_n is not None:
            return tuple(Morphism._checked(module, m, from_n[start:start + m.ngens])
                         for start, m in self._blocks())
        one = module.ring.one()
        return tuple(Morphism._trusted(module, m, [{start + r: one} for r in range(m.ngens)])
                     for start, m in self._blocks())


def direct_sum(ring, modules):
    """Biproduct with injection/projection witnesses."""
    modules = tuple(modules)
    if any(m.ring != ring for m in modules):
        raise RingMismatchError("direct_sum over mixed rings")
    module, to_n, from_n = normalize_orders(ring, [f for m in modules for f in m.factors])
    return DirectSum(module, modules, to_n, from_n)


def _counts(f):
    """Whether sizes (:func:`_size`) decide the predicates of f: over a
    field or a chain ring, or over the integers with every factor of its
    domain and codomain torsion."""
    return f.ring.kind != INTEGERS or not (f.domain.rank or f.codomain.rank)


class Analysis:
    """Kernel, image and cokernel of a morphism, with witnessing maps.

    Each part is computed on its first read and kept on the morphism, so
    every analysis of the same morphism shares it.  Where sizes decide
    (:func:`_counts`), the predicates count: f is onto iff coker f = 0, and
    injective iff the domain and coker f together have the size of the
    codomain.  The cokernel's invariant factors come from a kept
    ``cokernel`` part if there is one, and otherwise from
    :func:`cokernel_module`, kept as the ``counted`` part.  A kept kernel
    part is read instead of counting.  Over the integers with a free factor
    the predicates read the kernel and the cokernel witnesses.
    """

    def __init__(self, f):
        self.morphism = f
        parts = f.__dict__.get("_analysis")
        if parts is None:
            parts = {}
            object.__setattr__(f, "_analysis", parts)
        self._parts = parts

    def _part(self, name, compute):
        value = self._parts.get(name)
        if value is None:
            value = self._parts[name] = compute()
        return value

    def _kernel(self):
        return self._part("kernel", lambda: kernel_data(self.morphism))

    def _image(self):
        return self._part("image", lambda: _image_data(self.morphism, *self._kernel()[2]))

    def _cokernel(self):
        return self._part("cokernel", lambda: cokernel_data(self.morphism))

    @property
    def kernel(self):
        return self._kernel()[0]

    @property
    def kernel_inclusion(self):
        return self._kernel()[1]

    @property
    def image(self):
        return self._image()[0]

    @property
    def image_inclusion(self):
        return self._image()[1]

    @property
    def cokernel(self):
        return self._cokernel()[0]

    @property
    def cokernel_projection(self):
        return self._cokernel()[1]

    def _cokernel_factors(self):
        """The invariant factors of coker f, read from a kept part or
        counted once."""
        kept = self._parts.get("cokernel")
        if kept is not None:
            return kept[0].factors
        return self._part("counted", lambda: cokernel_module(self.morphism)).factors

    @property
    def injective(self):
        f = self.morphism
        if "kernel" in self._parts or not _counts(f):
            return self.kernel.is_zero
        if f.domain.is_zero:
            return True
        return (_size(f.ring, f.domain.factors + self._cokernel_factors())
                == _size(f.ring, f.codomain.factors))

    @property
    def surjective(self):
        if _counts(self.morphism):
            return not self._cokernel_factors()
        return self.cokernel.is_zero

    @property
    def split_mono(self):
        return self.injective and self.cokernel.is_flat()

    @property
    def is_iso(self):
        return self.injective and self.surjective


def _kernel_rows(ring, rows, orders, width):
    """Generators of {x : f(x) = 0 in the presented codomain} for the map f
    with ``width`` columns and sparse ``rows`` into the cyclics of the raw
    ``orders``: the sparse rows of their coordinates, and their number.

    They are the first ``width`` coordinates of generators of the kernel of
    [f | order columns], read off its column transform V: column i of V when
    d_i = 0 and, over a chain ring, pi^(m-e) times it when d_i has valuation
    0 < e < m.  The generators that vanish there are left out.
    """
    w = _presentation_matrix(ring, rows, orders, width)
    cols = len(w[0]) if w else 0
    res = smith(ring, w, col_t=True)
    # one column per generator, selecting and scaling its column of V
    select = [{} for _ in range(cols)]
    for i, di in enumerate(res.d + [ring.zero()] * (cols - len(res.d))):
        if ring.is_zero(di):
            select[i][i] = ring.one()
        elif ring.is_chain_kind and 0 < (e := ring.valuation(di)) < ring.m:
            select[i][i] = _factor_order_elt(ring, ring.m - e)
    gens = mat_mul(ring, res.col_transform[:width], select)
    live = {i: k for k, i in enumerate(sorted({i for row in gens for i in row}))}
    return [{live[i]: x for i, x in row.items()} for row in gens], len(live)


def kernel_data(f):
    """(kernel module, inclusion, (K, r)) without cokernel bookkeeping: K
    holds, as sparse rows over the domain's generators, r columns that
    generate {x : f(x) = 0 in the presented codomain}."""
    ring = f.ring
    m = f.domain
    s = m.ngens
    if s == 0:
        return m, Morphism.zero(m, m), ([], 0)
    if f.codomain.is_zero:
        one = ring.one()
        k0, r = [{i: one} for i in range(s)], s
    else:
        k0, r = _kernel_rows(ring, f.rows, f.codomain.factors, s)
    # the relations of the r generators: the kernel of K into the domain
    rel, width = _kernel_rows(ring, k0, m.factors, r) if r else ([], 0)
    ker, _, from_k = _presentation(ring, rel, (FREE,) * r, width)
    incl = Morphism._checked(ker, m, mat_mul(ring, k0, from_k))
    return ker, incl, (k0, r)


def cokernel_data(f):
    """(cokernel module, projection) without kernel bookkeeping."""
    ring = f.ring
    n = f.codomain
    if n.ngens == 0:
        coker = Module.zero(ring)
        return coker, Morphism.zero(n, coker)
    res = smith(ring, _presentation_matrix(ring, f.rows, n.factors, f.domain.ngens),
                row_t=True)
    kept, coker = _diagonal_factors(ring, res.d, n.ngens)
    return coker, Morphism._checked(n, coker, [res.row_transform[i] for i in kept])


def _image_data(f, k0, r):
    """(image module, inclusion): the image is generated by the columns of
    f, with the ``r`` kernel generators ``k0`` of :func:`kernel_data` as
    relations."""
    img, _, from_i = _presentation(f.ring, k0, (FREE,) * f.domain.ngens, r)
    return img, Morphism._checked(img, f.codomain, mat_mul(f.ring, f.rows, from_i))


def analyze(f):
    """Kernel, image and cokernel of a morphism, with witnessing maps, each
    computed on first read (see :class:`Analysis`)."""
    return Analysis(f)


_TRIAL_DIVISION_BOUND = 1 << 10


def _prime_powers(e):
    """The pairs (p, k) with p^k exactly dividing e >= 2, or None when e
    does not factor cheaply: trial division below _TRIAL_DIVISION_BOUND
    leaves a cofactor that is not a prime below PRIME_LIMIT."""
    parts, d = [], 2
    while d < _TRIAL_DIVISION_BOUND and d * d <= e:
        if e % d == 0:
            k = 0
            while e % d == 0:
                e, k = e // d, k + 1
            parts.append((d, k))
        d += 1 if d == 2 else 2
    if e > 1:
        if e >= PRIME_LIMIT or not _is_prime(e):
            return None
        parts.append((e, 1))
    return parts


def _pivot_valuations(ring, rows):
    """The valuations of the nonzero Smith diagonal entries of a sparse
    matrix over a field (all 0) or a chain ring; ``rows`` is consumed.

    Each step takes a pivot of least valuation, from the shortest column
    holding one and then from the shortest row, to keep the fill-in small.
    The least valuation never decreases, so the search starts at the
    previous pivot's.  The pivot divides every entry left, so clearing its
    column by row operations and then dropping its row and column (the
    column operations that would clear its row touch nothing else) leaves a
    matrix whose diagonal is the rest of the Smith diagonal.  A row with x
    in the pivot's column gains x w_j at each column j of the pivot row,
    where w_j = -y_j / piv is formed once per pivot as -(y_j / pi^v) / u for
    the pivot pi^v u (u a unit; pi^v divides y_j).
    """
    kind = ring.kind
    zero = ring.zero()
    if kind == DUAL_CHAIN:
        add, mul = ring.add, ring.mul
    elif kind != RATIONALS:
        p = ring.p
        q = ring._modulus if kind == CHAIN else p
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    vals, bound = [], 0
    while rows:
        best = None
        while best is None:
            # an entry has valuation > bound iff it vanishes modulo pi^(bound + 1)
            if kind == CHAIN:
                low = p ** (bound + 1)
            elif kind == DUAL_CHAIN:
                low = bound + 1
                low_zero = zero[:low]
            for j, col in cols.items():
                n = len(col)
                if best is not None and n >= best[0]:
                    continue
                for i in col:
                    row = rows[i]
                    x = row[j]
                    if (kind == CHAIN and x % low == 0
                            or kind == DUAL_CHAIN and x[:low] == low_zero):
                        continue
                    if best is None or (n, len(row)) < best[:2]:
                        best = (n, len(row), i, j)
                if best is not None and best[0] == 1:
                    break
            if best is None:
                bound += 1
        _, _, pi, pj = best
        vals.append(bound)
        prow = rows.pop(pi)
        for j in prow:
            col = cols[j]
            col.discard(pi)
            if not col:
                del cols[j]
        piv = prow.pop(pj)
        below = cols.pop(pj, ())
        if not below:
            continue
        if kind == DUAL_CHAIN:
            pad = zero[:bound]
            minus_inv = ring.neg(ring.inv(piv[bound:] + pad))
            step = [(j, mul(y[bound:] + pad, minus_inv)) for j, y in prow.items()]
        elif kind == RATIONALS:
            step = [(j, -y / piv) for j, y in prow.items()]
        else:
            pv = p ** bound
            minus_inv = -pow(piv // pv, -1, q)
            step = [(j, y // pv * minus_inv % q) for j, y in prow.items()]
        for i in below:
            row = rows[i]
            x = row.pop(pj)
            for j, w in step:
                if kind == DUAL_CHAIN:
                    z = mul(x, w)
                    if j in row:
                        z = add(row[j], z)
                    nonzero = z != zero
                elif kind == RATIONALS:
                    z = nonzero = row.get(j, 0) + x * w
                else:
                    z = nonzero = (row.get(j, 0) + x * w) % q
                if nonzero:
                    if j not in row:
                        cols.setdefault(j, set()).add(i)
                    row[j] = z
                elif j in row:
                    del row[j]
                    col = cols[j]
                    col.discard(i)
                    if not col:
                        del cols[j]
            if not row:
                del rows[i]
    return vals


def _quotient_ring(ring, p, k):
    """R/(pi^k) for the prime p over the integers or the uniformizer pi of
    a chain ring, or None when that is the ring itself (a field counts as a
    chain ring of nilpotency 1): Z/p^k over Z and over Z/p^m, and
    F_p[e]/(e^k) over F_p[e]/(e^m), whose quotient by e is the integer ring
    Z/p."""
    if ring.kind != INTEGERS and k == (ring.m or 1):
        return None
    if ring.kind == DUAL_CHAIN and k > 1:
        return Ring.dual_chain(p, k)
    return Ring.chain(p, k)


def _cokernel_of_rows(ring, rows, orders, width):
    """Invariant factors of the cokernel of a map with ``width`` columns into
    the direct sum of cyclics of the raw ``orders`` (Module conventions, in
    any order), read off a sparse elimination that computes only the Smith
    diagonal of [map | order columns] (:func:`_pivot_valuations`).
    ``rows`` holds the map's nonzeros, one {column: entry} dict per codomain
    generator; it is not changed.

    Over a chain ring pi^e kills the cokernel, where e is the largest order
    (m if one is free), so the elimination runs over R/(pi^e) on the
    entries reduced modulo pi^e; a field is the case m = 1.  Over the
    integers with every order torsion, the cokernel is the sum of its
    p-parts, one for each p^k exactly dividing the exponent (the lcm of the
    orders), and each runs over Z/p^k.  A generator of order pi^e then loses
    its relation column, and each row left without a pivot adds a factor of
    order pi^e.  Over the integers with a free order, or when the exponent
    does not factor cheaply (:func:`_prime_powers`), it reads the dense
    Smith diagonal instead.
    """
    n = len(orders)
    if n == 0:
        return Module.zero(ring)
    if ring.kind != INTEGERS:
        m = ring.m or 1
        parts = [(ring.p, m if FREE in orders else max(orders))]
    elif FREE in orders or (parts := _prime_powers(lcm(*orders))) is None:
        return _diagonal_factors(ring, smith(ring, _presentation_matrix(
            ring, rows, orders, width)).d, n)[1]
    # the p-part of each invariant factor, largest first
    exponents = []
    for p, k in parts:
        local = _quotient_ring(ring, p, k)
        vals = _pivot_valuations(local or ring, _order_rows(ring, rows, orders, width, local))
        exponents.append((p, sorted([v for v in vals if v] + [k] * (n - len(vals)),
                                    reverse=True)))
    if ring.kind != INTEGERS:
        factors = tuple(FREE if k == m else k for k in reversed(exponents[0][1]))
    else:
        length = max(len(e) for _, e in exponents)
        factors = tuple(prod(p ** e[i] for p, e in exponents if i < len(e))
                        for i in reversed(range(length)))
    return Module._trusted(ring, factors, len(factors) - factors.count(FREE)) \
        if factors else Module.zero(ring)


def cokernel_module(f):
    """Invariant factors of coker(f), without a transform
    (:func:`_cokernel_of_rows` on the nonzeros of f)."""
    return _cokernel_of_rows(f.ring, f.rows, f.codomain.factors, f.domain.ngens)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


def _tensor_factor(ring, a, b):
    """Order of the tensor of two cyclic factors; None if it is trivial."""
    if ring.is_field:
        return FREE
    if ring.kind == INTEGERS:
        if a == FREE and b == FREE:
            return FREE
        if a == FREE:
            return b
        if b == FREE:
            return a
        g = gcd(a, b)
        return None if g == 1 else g
    ea = a if a != FREE else ring.m
    eb = b if b != FREE else ring.m
    e = min(ea, eb)
    return FREE if e >= ring.m else e


@lru_cache(maxsize=None)
def _tensor_layout(m, n):
    """Raw generator pairs with nontrivial tensor order, as a dict from the
    pair to its raw index, plus normalization (None transforms when the raw
    pairs already are the normal form)."""
    ring = m.ring
    pairs = {}
    raw = []
    for i, a in enumerate(m.factors):
        for j, b in enumerate(n.factors):
            t = _tensor_factor(ring, a, b)
            if t is not None:
                pairs[(i, j)] = len(raw)
                raw.append(t)
    module, to_n, from_n = normalize_orders(ring, raw)
    return pairs, module, to_n, from_n


def tensor(m, n):
    """M (x) N in normal form (the valuation-min / gcd rule on cyclics)."""
    if m.ring != n.ring:
        raise RingMismatchError(f"{m.ring} vs {n.ring}")
    return _tensor_layout(m, n)[1]


def tensor_morphisms(f, g):
    """f (x) g with respect to the canonical tensor normal forms.  Each raw
    row holds the products of the nonzeros of one row of f and one row of
    g; a product on a pair with trivial tensor order is skipped."""
    if f.ring != g.ring:
        raise RingMismatchError(f"{f.ring} vs {g.ring}")
    ring = f.ring
    dpairs, dom, _, dfrom = _tensor_layout(f.domain, g.domain)
    cpairs, cod, cto, _ = _tensor_layout(f.codomain, g.codomain)
    if not dpairs or not cpairs:
        return Morphism.zero(dom, cod)
    zero, mul, column = ring.zero(), ring.mul, dpairs.get
    raw = []
    for ic, jc in cpairs:
        row = {}
        if grow := g.rows[jc]:
            for idx, x in f.rows[ic].items():
                for jdx, y in grow.items():
                    if (c := column((idx, jdx))) is not None and (z := mul(x, y)) != zero:
                        row[c] = z
        raw.append(row)
    return Morphism._trusted(dom, cod, change_basis(ring, cto, raw, dfrom))


# ---------------------------------------------------------------------------
# ring extensions and base change
# ---------------------------------------------------------------------------


class RingExtension(Frozen):
    """A supported surjective ring map theta: R -> k with nilpotent kernel.

    ``kernel_exponent`` and ``small`` are computed from the two rings."""

    _fields = ("source", "target", "kernel_exponent", "small")

    def __init__(self, source, target):
        _set(self, "source", source)
        _set(self, "target", target)
        r, k = source, target
        ok = False
        if r.kind == CHAIN and k.kind == CHAIN and r.p == k.p and r.m > k.m:
            ok = True
        elif r.kind == DUAL_CHAIN and k.kind == DUAL_CHAIN and r.p == k.p and r.m > k.m:
            ok = True
        elif r.kind in (CHAIN, DUAL_CHAIN) and k.kind == PRIME_FIELD and r.p == k.p:
            ok = True
        if not ok:
            raise UnsupportedRingError(f"no canonical surjection {r} -> {k}")
        mt = k.m if k.is_chain_kind else 1
        _set(self, "kernel_exponent", -(-r.m // mt))
        _set(self, "small", self.kernel_exponent <= 2)

    @property
    def target_nilpotency(self):
        return self.target.m if self.target.is_chain_kind else 1

    def reduce_element(self, x):
        """theta(x) for a canonical source element x: x % p^mt from
        Z/p^m, and from F_p[e]/(e^m) the first mt coordinates (x0 alone
        onto F_p), each already canonical."""
        r, k = self.source, self.target
        if r.kind == CHAIN:
            return x % (k._modulus if k.kind == CHAIN else k.p)
        if k.kind == PRIME_FIELD:
            return x[0]
        return x[:k.m]

    def lift_element(self, x):
        """Canonical-representative lift k -> R of a canonical target
        element: the same integer in Z/p^m, and in F_p[e]/(e^m) its
        coordinates padded with zeros."""
        r, k = self.source, self.target
        if r.kind == CHAIN:
            return x
        if k.kind == PRIME_FIELD:
            return (x,) + (0,) * (r.m - 1)
        return x + (0,) * (r.m - k.m)

    def base_change_factor(self, f):
        if f == FREE:
            return FREE
        e = min(f, self.target_nilpotency)
        return FREE if e >= self.target_nilpotency else e

    def base_change(self, module):
        if module.ring != self.source:
            raise RingMismatchError(f"module over {module.ring}, extension from {self.source}")
        if module.is_zero:
            return Module.zero(self.target)
        factors = tuple(map(self.base_change_factor, module.factors))
        return Module._trusted(self.target, factors, len(factors) - factors.count(FREE))

    def base_change_morphism(self, f):
        """k (x) f, entrywise.  Congruence-valid when f is: reduction cuts
        an entry's valuation and every generator order to at most the
        target's nilpotency, so pi^b | pi^a x survives it."""
        dom = self.base_change(f.domain)
        cod = self.base_change(f.codomain)
        return Morphism._trusted(dom, cod, _entrywise(self.reduce_element, f.rows,
                                                      self.target.zero()))

    def kernel_as_target_module(self):
        """I = Ker(theta) as a k-module (requires I^2 = 0)."""
        if not self.small:
            raise UnsupportedRingError("kernel is a target module only for small extensions")
        e = self.source.m - self.target_nilpotency
        if e == 0:
            return Module.zero(self.target)
        f = FREE if e >= self.target_nilpotency else e
        return Module(self.target, (f,))

    def view_module_over_source(self, module):
        """A k-module regarded as an R-module along theta.

        Free k-summands become R/(pi^mt) and k-torsion exponents are kept,
        which preserves the generator order (all exponents stay <= mt).
        """
        if module.ring != self.target:
            raise RingMismatchError("view_module_over_source expects a target module")
        if module.is_zero:
            return Module.zero(self.source)
        mt = self.target_nilpotency
        return Module._trusted(self.source, tuple(mt if f == FREE else f for f in module.factors),
                               module.ngens)

    def view_morphism_over_source(self, f):
        """A k-linear f regarded as an R-linear map, by lifted entries.
        Congruence-valid when f is: the lifts keep each nonzero entry's
        valuation and every order is at most the target's nilpotency, so
        pi^b | pi^a x in k lifts to R."""
        dom = self.view_module_over_source(f.domain)
        cod = self.view_module_over_source(f.codomain)
        return Morphism._trusted(dom, cod, _entrywise(self.lift_element, f.rows,
                                                      self.source.zero()))

    def small_factorization(self):
        """theta as a chain of small extensions, outermost source first."""
        if self.small:
            return (self,)
        r, k = self.source, self.target
        steps = []
        cur = r.m
        lower = k.m if k.is_chain_kind else 2
        while cur > lower:
            steps.append(RingExtension(Ring(r.kind, p=r.p, m=cur), Ring(r.kind, p=r.p, m=cur - 1)))
            cur -= 1
        if not k.is_chain_kind:
            steps.append(RingExtension(Ring(r.kind, p=r.p, m=2), k))
        return tuple(steps)


def _entrywise(fn, rows, zero):
    """``fn`` applied to the nonzeros of sparse ``rows``, leaving out the
    entries it sends to ``zero``."""
    return [{j: y for j, x in row.items() if (y := fn(x)) != zero} for row in rows]


def base_change(extension, module):
    return extension.base_change(module)


# ---------------------------------------------------------------------------
# finite limits and colimits of module diagrams
# ---------------------------------------------------------------------------


class ModuleDiagram(Frozen):
    """Finite diagram: nodes and arrows (src_index, tgt_index, Morphism)."""

    _fields = ("ring", "nodes", "arrows")

    def __init__(self, ring, nodes, arrows):
        _set(self, "ring", ring)
        _set(self, "nodes", nodes)
        _set(self, "arrows", arrows)
        for src, tgt, f in arrows:
            if f.domain != nodes[src] or f.codomain != nodes[tgt]:
                raise ShapeError(f"arrow {src}->{tgt} endpoints inconsistent with diagram")


class LimitResult(Frozen):
    """A limit as the kernel of the difference map of its forest equations.

    ``cone`` holds the projections limit -> node_i, one per node of the
    diagram; ``inclusion`` embeds the limit into the direct sum of the free
    nodes of its ``equations``, the :class:`_LimitEquations`.
    """

    _fields = ("module", "cone", "inclusion", "equations")


class ColimitResult(Frozen):
    """A colimit presented on the free nodes (the sinks) of a spanning forest;
    the dual of :class:`LimitResult`.

    ``cocone`` holds the injections node_i -> colimit, one per node;
    ``projection`` maps onto the colimit from the direct sum of the ``free``
    nodes, the :class:`DirectSum` ``nodes_sum``.
    """

    _fields = ("module", "cocone", "projection", "nodes_sum", "free")


def _block_starts(modules):
    """Offset of each module's generators in their concatenation, and the
    concatenation's length."""
    starts, total = [], 0
    for m in modules:
        starts.append(total)
        total += m.ngens
    return starts, total


def _spanning_forest(size, arrows, reverse=False):
    """A spanning forest of a diagram, grown along its arrows (against them
    when ``reverse``).

    The roots, called free nodes, are the nodes no arrow from another node
    reaches; when a cycle leaves nodes unreached, the lowest-index one is
    freed as well.  Returns ``(free, tree, order)``: the free nodes in
    ascending order, ``tree[t]`` the index of the arrow that reaches t (None
    for a free node), and all nodes in breadth-first order, each after the
    node its tree arrow comes from.
    """
    succ = [[] for _ in range(size)]
    seen = [True] * size
    for a, (src, tgt, _) in enumerate(arrows):
        if src != tgt:
            if reverse:
                src, tgt = tgt, src
            succ[src].append((a, tgt))
            seen[tgt] = False
    free = [i for i in range(size) if seen[i]]
    tree = [None] * size
    order = list(free)
    done, lowest = 0, 0
    while True:
        while done < len(order):
            for a, t in succ[order[done]]:
                if not seen[t]:
                    seen[t] = True
                    tree[t] = a
                    order.append(t)
            done += 1
        while lowest < size and seen[lowest]:
            lowest += 1
        if lowest == size:
            return sorted(free), tree, order
        seen[lowest] = True
        free.append(lowest)
        order.append(lowest)


def _forest_paths(ring, nodes, arrows, tree, order, reverse=False):
    """Root of every node and the composite along its tree path.

    ``path[t]`` is the composite root -> t (t -> root when ``reverse``) as
    sparse rows, one {column: entry} dict of nonzeros per generator of its
    codomain, reduced modulo that generator's order; None stands for the
    identity of a root.
    """
    root = list(range(len(nodes)))
    path = [None] * len(nodes)
    for t in order:
        a = tree[t]
        if a is None:
            continue
        src, tgt, f = arrows[a]
        rows = f.rows
        s = tgt if reverse else src
        r = root[s]
        if path[s] is not None:
            if reverse:
                rows, node = mat_mul(ring, path[s], rows), nodes[r]
            else:
                rows, node = mat_mul(ring, rows, path[s]), nodes[t]
            # the products hold no zeros; only torsion rows need reducing
            rows = _reduce_torsion(node, rows)
        path[t] = rows
        root[t] = r
    return root, path


class _LimitEquations(Frozen):
    """A limit as the kernel of its difference map F --delta--> T.

    F is the direct sum of the ``free`` nodes (ascending) of a spanning
    forest of the diagram's ``nodes`` (node i's generators start at
    ``at[i]`` in their concatenation) and T the sum of the targets of the
    arrows off the forest.  Every node t is determined by its free root
    ``root[t]`` along the composite ``path[t]`` (None for a root).

    ``rows`` holds delta on the concatenated generators, one {column:
    entry} dict of nonzeros per generator of T, each reduced modulo that
    generator's order; ``free_orders`` and ``target_orders`` are the raw
    orders of the generators of F and of T.  The composites are sparse rows
    (see :func:`_forest_paths`).  The normal forms, ``free_sum`` and the
    morphism ``delta`` between them, are built on first read.
    """

    _fields = ("ring", "nodes", "free", "root", "path", "at", "rows", "free_orders",
               "target_orders")

    @cached_property
    def free_sum(self):
        return direct_sum(self.ring, [self.nodes[i] for i in self.free])

    @cached_property
    def delta(self):
        return _delta_map(self)


def _limit_equations(diagram):
    """The difference map of ``diagram``'s limit on a spanning forest.

    A node t that is not free is reached by a tree arrow s -> t, so on the
    limit x_t = f(x_s); unwinding the forest gives x_t = P_t(x) for a
    composite P_t out of the direct sum of the free nodes.  Eliminating t is
    exact, because its block in the difference map is -id.  The tree arrows'
    equations then hold by construction, and delta has one block row
    f_a o P_src - P_tgt for every other arrow a: src -> tgt, written from
    nonzeros.
    """
    ring = diagram.ring
    nodes, arrows = diagram.nodes, diagram.arrows
    free, tree, order = _spanning_forest(len(nodes), arrows)
    root, path = _forest_paths(ring, nodes, arrows, tree, order)
    starts, _ = _block_starts(nodes[i] for i in free)
    at = dict(zip(free, starts))
    add, neg = ring.add, ring.neg
    equations = [(src, tgt, f) for a, (src, tgt, f) in enumerate(arrows) if tree[tgt] != a]
    rows, minus_paths = [], {}
    eq = _LimitEquations(ring, nodes, tuple(free), root, path, at, rows,
                         tuple(f for i in free for f in nodes[i].factors),
                         tuple(f for _, tgt, _ in equations for f in nodes[tgt].factors))

    def minus_path(t):
        """-P_t as sparse rows over F's generators."""
        if t not in minus_paths:
            c0 = at[root[t]]
            if path[t] is None:
                minus_one = neg(ring.one())
                minus_paths[t] = [{c0 + k: minus_one} for k in range(nodes[t].ngens)]
            else:
                minus_paths[t] = [{c0 + c: neg(x) for c, x in row.items()}
                                  for row in path[t]]
        return minus_paths[t]

    for src, tgt, f in equations:
        lhs = f.rows
        if path[src] is not None:
            lhs = mat_mul(ring, lhs, path[src])
        c0 = at[root[src]]
        for row, minus, o in zip(lhs, minus_path(tgt), nodes[tgt].factors):
            row = {c0 + c: x for c, x in row.items()}
            for c, x in minus.items():
                row[c] = add(row[c], x) if c in row else x
            rows.append(_reduce_row(ring, o, row))
    return eq


def _delta_map(eq):
    """The difference map of ``eq`` as a morphism between the normal forms
    of F and T."""
    ring = eq.ring
    target, to_norm, _ = normalize_orders(ring, eq.target_orders)
    return Morphism._trusted(eq.free_sum.module, target,
                             change_basis(ring, to_norm, eq.rows, eq.free_sum.from_norm))


def finite_limit(diagram):
    """Limit of a finite diagram, solved on a spanning forest.

    The limit is the kernel of the difference map of
    :func:`_limit_equations`, and the cone to a node t is P_t o inclusion.
    The arrows need only generate the diagram's equations: for a functor on
    a poset the covering arrows suffice, since every composite's equation
    follows from those of its factors.
    """
    ring = diagram.ring
    nodes = diagram.nodes
    eq = _limit_equations(diagram)
    root, path, at = eq.root, eq.path, eq.at
    kernel, incl, _ = kernel_data(eq.delta)
    into_free = change_basis(ring, eq.free_sum.from_norm, incl.rows, None)
    cone = []
    for t, node in enumerate(nodes):
        r = root[t]
        block = into_free[at[r]:at[r] + nodes[r].ngens]
        if path[t] is not None:
            block = mat_mul(ring, path[t], block)
        cone.append(Morphism._trusted(kernel, node, block))
    return LimitResult(kernel, tuple(cone), incl, eq)


def finite_colimit(diagram):
    """Colimit of a finite diagram, solved on a spanning forest.

    The dual of :func:`finite_limit`: the forest grows against the arrows
    from the free nodes, which are the sinks.  A node s that is not free
    leaves along a tree arrow s -> t, so on the colimit its injection is
    P_s = P_t o f; the colimit is the cokernel of the difference map whose
    block column for every other arrow a: src -> tgt is P_tgt o f_a - P_src,
    and the cocone at s is projection o P_s.
    """
    ring = diagram.ring
    nodes, arrows = diagram.nodes, diagram.arrows
    free, tree, order = _spanning_forest(len(nodes), arrows, reverse=True)
    root, path = _forest_paths(ring, nodes, arrows, tree, order, reverse=True)
    free_sum = direct_sum(ring, [nodes[i] for i in free])
    starts, height = _block_starts(nodes[i] for i in free)
    at = dict(zip(free, starts))
    relations = [(src, tgt, f) for a, (src, tgt, f) in enumerate(arrows) if tree[src] != a]
    sources = [nodes[src] for src, _, _ in relations]
    arrow_at, _ = _block_starts(sources)
    arr_mod, _, arr_from = normalize_orders(ring, [f for m in sources for f in m.factors])
    zero, one, sub = ring.zero(), ring.one(), ring.sub
    raw = [{} for _ in range(height)]
    for c0, (src, tgt, f) in zip(arrow_at, relations):
        rhs = f.rows
        if path[tgt] is not None:
            rhs = mat_mul(ring, path[tgt], rhs)
        for k, row in enumerate(rhs, at[root[tgt]]):
            line = raw[k]
            for c, x in row.items():
                line[c0 + c] = x
        p_src = path[src]
        if p_src is None:
            p_src = [{k: one} for k in range(nodes[src].ngens)]
        for k, row in enumerate(p_src, at[root[src]]):
            line = raw[k]
            for c, x in row.items():
                if (y := sub(line.get(c0 + c, zero), x)) != zero:
                    line[c0 + c] = y
                else:
                    del line[c0 + c]
    delta = Morphism._trusted(arr_mod, free_sum.module,
                              change_basis(ring, free_sum.to_norm, raw, arr_from))
    coker, proj = cokernel_data(delta)
    from_free = change_basis(ring, None, proj.rows, free_sum.to_norm)
    # the columns of each free node's block, renumbered from 0
    blocks = {r: [{} for _ in from_free] for r in free}
    owner = [(r, c - at[r]) for r in free for c in range(at[r], at[r] + nodes[r].ngens)]
    for i, row in enumerate(from_free):
        for c, x in row.items():
            r, j = owner[c]
            blocks[r][i][j] = x
    cocone = []
    for s, node in enumerate(nodes):
        block = blocks[root[s]]
        if path[s] is not None:
            block = mat_mul(ring, block, path[s])
        cocone.append(Morphism._trusted(node, coker, block))
    return ColimitResult(coker, tuple(cocone), proj, free_sum, tuple(free))


def factor_through_mono(inclusion, given):
    """u with inclusion o u = given (exact, unique when inclusion is mono)."""
    ring = inclusion.ring
    if given.codomain != inclusion.codomain:
        raise ShapeError("factor_through_mono: codomain mismatch")
    if inclusion.codomain.is_zero:
        # every map into the zero module is zero, and so is u
        return Morphism.zero(given.domain, inclusion.domain)
    amat = _presentation_matrix(ring, inclusion.rows, inclusion.codomain.factors,
                                inclusion.domain.ngens)
    x = solve_linear(ring, amat, given.rows)
    if x is None:
        raise ShapeError("map does not factor through the inclusion")
    u = Morphism._checked(given.domain, inclusion.domain, x[:inclusion.domain.ngens])
    if inclusion.compose(u) != given:
        raise ShapeError("mono factorization verification failed")
    return u


def factor_through_epi(projection, given):
    """u with u o projection = given (exact, unique), for a surjective
    ``projection``; the dual of :func:`factor_through_mono`.

    One linear solve gives a section S of the projection on generators
    (projection o S = id modulo the orders of its codomain), and u = given o S.
    Raises ShapeError when the projection is not surjective or ``given``
    does not factor through it.
    """
    ring = projection.ring
    if given.domain != projection.domain:
        raise ShapeError("factor_through_epi: domain mismatch")
    mid = projection.codomain
    amat = _presentation_matrix(ring, projection.rows, mid.factors, projection.domain.ngens)
    n = projection.domain.ngens
    x = solve_linear(ring, amat, [{i: ring.one()} for i in range(mid.ngens)],
                     n + mid._ntorsion)
    if x is None:
        raise ShapeError("factor_through_epi: the projection is not surjective")
    u = Morphism._checked(mid, given.codomain, mat_mul(ring, given.rows, x[:n]))
    if u.compose(projection) != given:
        raise ShapeError("map does not factor through the projection")
    return u


def _cone_on_forest(eq, legs, domain):
    """The legs to the free nodes of ``eq`` as the sparse rows of one map
    s: domain -> F on F's concatenated generators, once ``legs`` is checked
    to be a cone: every leg is a map domain -> node, delta o s = 0 modulo
    the orders of T (the arrows off the forest), and every other leg is its
    forest composite P_t o s_root (the tree arrows).  Raises ShapeError
    otherwise."""
    nodes = eq.nodes
    if len(legs) != len(nodes):
        raise ShapeError("factor_through_limit needs one leg per node")
    for i, (leg, node) in enumerate(zip(legs, nodes)):
        if leg.domain != domain or leg.codomain != node:
            raise ShapeError(f"leg {i} is not a map from the domain to node {i}")
    ring = domain.ring
    s = [row for i in eq.free for row in legs[i].rows]
    for row, f in zip(mat_mul(ring, eq.rows, s), eq.target_orders):
        if _reduce_row(ring, f, row):
            raise ShapeError("map does not factor through the inclusion")
    for t, leg in enumerate(legs):
        if eq.path[t] is None:
            continue
        r = eq.root[t]
        composite = mat_mul(ring, eq.path[t], s[eq.at[r]:eq.at[r] + nodes[r].ngens])
        if _reduce_torsion(nodes[t], composite) != leg.rows:
            raise ShapeError("limit factorization verification failed")
    return s


def _free_legs(eq, s, domain):
    """The map domain -> F, on the normal form of F, whose rows on F's
    concatenated generators are the sparse ``s``."""
    free_sum = eq.free_sum
    return Morphism._checked(domain, free_sum.module,
                             change_basis(domain.ring, free_sum.to_norm, s, None))


def factor_through_limit(limit, legs, domain):
    """The unique u: domain -> limit with cone_i o u = legs[i]; a family
    that is not a cone raises ShapeError (see :func:`_cone_on_forest`)."""
    eq = limit.equations
    return factor_through_mono(limit.inclusion,
                               _free_legs(eq, _cone_on_forest(eq, legs, domain), domain))


def _size(ring, factors):
    """The composition length of the direct sum of cyclics of orders
    ``factors`` over a field or a chain ring (where a free factor counts
    m), or its order over the integers (0 when a factor is free)."""
    if ring.kind == INTEGERS:
        return prod(factors)
    if ring.is_field:
        return len(factors)
    return sum(ring.m if f == FREE else f for f in factors)


def _rank_over_q(rows):
    """The rank over Q of an integer matrix given by its sparse ``rows``,
    from an exact elimination over Q (:func:`_pivot_valuations`)."""
    return len(_pivot_valuations(Ring.rationals(), {
        i: {j: Fraction(x) for j, x in row.items()} for i, row in enumerate(rows) if row}))


def _free_integer_counts(eq, s, domain):
    """(onto, injective) over the integers with a free node, when every
    generator of T is free; None for what this does not decide.

    Let C = coker(s: domain -> F), relations of F included.  delta kills
    im s, so it induces C -> T, and ker delta / im s is its kernel.  T is
    torsion-free, so that map kills the torsion of C: the map into the
    limit is onto iff C is torsion-free and rank C is the rank over Q of
    delta, whose rows vanish on the torsion columns of F.  For a free
    domain, s is injective iff im s, of rank rank F - rank C, has the rank
    of the domain.  C is one diagonal-only cokernel
    (:func:`_cokernel_of_rows`), and the rank an exact elimination over Q
    (:func:`_rank_over_q`), not a rank modulo a prime.
    """
    if any(f != FREE for f in eq.target_orders):
        return None, None
    coker_s = _cokernel_of_rows(eq.ring, s, eq.free_orders, domain.ngens)
    onto = coker_s.rank == coker_s.ngens and coker_s.rank == _rank_over_q(eq.rows)
    injective = None
    if domain.rank == domain.ngens:
        injective = eq.free_orders.count(FREE) - coker_s.rank == domain.rank
    return onto, injective


def _counted_cone(eq, s, domain):
    """(onto, injective) for the map from ``domain`` into the limit whose
    forest equations are ``eq`` (:func:`_limit_equations`), given by the
    sparse rows ``s``: domain -> F of legs to the free nodes that are
    trusted to extend to a cone; None for what counting does not decide.

    With delta: F -> T the difference map, the limit is ker delta and
    contains im s.  So the map is onto iff im s = ker delta, that is iff
    coker s and coker delta together have the size of T; and, ker delta -> F
    being mono, it is injective iff s is, that is iff the domain and
    coker s together have the size of F.  A size (:func:`_size`) is a length
    over a field or a chain ring and an order over the integers with
    torsion nodes: two sparse eliminations on the rows of s and delta that
    read only the diagonal (:func:`_cokernel_of_rows`, which runs over
    R/(pi^e) when pi^e kills the orders).  Over the integers with a free
    node, sizes do not decide; :func:`_free_integer_counts` decides when T
    is free, and otherwise both are None.
    """
    ring = eq.ring
    if ring.kind == INTEGERS and any(node.rank for node in eq.nodes):
        return _free_integer_counts(eq, s, domain)
    coker_s = _cokernel_of_rows(ring, s, eq.free_orders, domain.ngens)
    coker_delta = _cokernel_of_rows(ring, eq.rows, eq.target_orders, len(eq.free_orders))
    onto = _size(ring, coker_s.factors + coker_delta.factors) == _size(ring, eq.target_orders)
    injective = _size(ring, domain.factors + coker_s.factors) == _size(ring, eq.free_orders)
    return onto, injective


def _witness(eq, s, domain):
    """s as a map into the kernel of the morphism delta, as on
    :func:`finite_limit`."""
    return factor_through_mono(kernel_data(eq.delta)[1], _free_legs(eq, s, domain))


def _limit_cokernel(eq, s, domain):
    """:func:`limit_cokernel` on the forest equations ``eq`` and the legs
    ``s`` to their free nodes, trusted to extend to a cone."""
    if _counted_cone(eq, s, domain)[0]:
        return Module.zero(eq.ring)
    return cokernel_module(_witness(eq, s, domain))


def limit_cokernel(diagram, legs, domain):
    """The cokernel of the map from ``domain`` into the limit of ``diagram``
    given by the cone ``legs``: zero iff that map is onto.

    The legs are checked to be a cone on the limit's forest equations
    (:func:`_cone_on_forest`); a family that is not one raises ShapeError.
    An onto map is then recognized by counting (:func:`_counted_cone`): by
    sizes over a field, a chain ring or the integers with torsion nodes;
    and over the integers with a free node and a free T, by C = coker s
    being torsion-free of rank rank_Q(delta), since ker delta / im s is the
    kernel of C -> T and T torsion-free kills the torsion of C.  Otherwise
    (a map that is not onto, or Z with a free node and torsion in T) the
    cokernel is that of s as a map into ker delta over the diagram's ring,
    as on :func:`finite_limit`.
    """
    eq = _limit_equations(diagram)
    return _limit_cokernel(eq, _cone_on_forest(eq, legs, domain), domain)


def limit_is_iso(diagram, legs, domain):
    """Whether the map from ``domain`` into the limit of ``diagram`` given
    by the cone ``legs`` is an isomorphism, without building the limit.

    The legs are checked to be a cone as in :func:`limit_cokernel`, and a
    family that is not one raises ShapeError.  The map is an isomorphism
    iff it is onto and injective, both counted (:func:`_counted_cone`).
    Injectivity is that of s, since ker delta -> F is mono: by sizes where
    sizes decide, and over Z with a free node and a free T, for a free
    domain, by rank F - rank coker s = rank domain, as im s is free of
    rank rank F - rank coker s.  Over Z with a free node, a map onto the
    limit whose domain has torsion, or any map when T has torsion, is
    analyzed as a map into ker delta instead.
    """
    eq = _limit_equations(diagram)
    s = _cone_on_forest(eq, legs, domain)
    onto, injective = _counted_cone(eq, s, domain)
    if onto is False:
        return False
    if injective is None:
        return analyze(_witness(eq, s, domain)).is_iso
    return injective


def factor_through_colimit(colimit, legs, codomain):
    """The unique u: colimit -> codomain with u o cocone_i = legs[i].

    u is solved on the legs from the free nodes and then checked against
    every leg, so a family that is not a cocone raises ShapeError.
    """
    if len(legs) != len(colimit.cocone):
        raise ShapeError("factor_through_colimit needs one leg per node")
    for i, (leg, coc) in enumerate(zip(legs, colimit.cocone)):
        if leg.domain != coc.domain or leg.codomain != codomain:
            raise ShapeError(f"leg {i} is not a map from node {i} to the codomain")
    ds = colimit.nodes_sum
    starts, _ = _block_starts(ds.summands)
    rows = [{} for _ in range(codomain.ngens)]
    for c0, i in zip(starts, colimit.free):
        for row, leg_row in zip(rows, legs[i].rows):
            for c, x in leg_row.items():
                row[c0 + c] = x
    stacked = Morphism._checked(ds.module, codomain,
                                change_basis(codomain.ring, None, rows, ds.from_norm))
    u = factor_through_epi(colimit.projection, stacked)
    for coc, leg in zip(colimit.cocone, legs):
        if u.compose(coc) != leg:
            raise ShapeError("colimit factorization verification failed")
    return u


def image_equals_kernel(incl, proj):
    """Exactness of  A --incl--> B --proj--> C  at B.

    With proj o incl = 0, im incl lies in ker proj, so they are equal iff
    they have the same size: size im incl = size B - size coker incl and
    size ker proj = size B - size C + size coker proj, so iff C has the size
    of coker incl and coker proj together (products in place of sums over
    the integers).  Both cokernels are counted (see :class:`Analysis`).
    Over the integers with a free factor, ``incl`` is factored through the
    kernel inclusion of ``proj`` and that factorization must be onto.
    """
    if not proj.compose(incl).is_zero_map:
        return False
    if _counts(incl) and _counts(proj):
        ring = proj.ring
        return _size(ring, proj.codomain.factors) == _size(
            ring, Analysis(incl)._cokernel_factors() + Analysis(proj)._cokernel_factors())
    ker_incl = analyze(proj).kernel_inclusion
    try:
        u = factor_through_mono(ker_incl, incl)
    except ShapeError:
        return False
    return analyze(u).surjective
