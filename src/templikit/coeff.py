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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Ring:
    """A supported coefficient ring.

    Elements are plain Python values: ``int`` for the integers, prime fields
    (canonical representative in ``[0, p)``) and chain rings (``[0, p^m)``),
    ``Fraction`` for the rationals, and a length-``m`` tuple of ints in
    ``[0, p)`` for dual chain rings (coefficient of e^i at index i).
    """

    kind: str
    p: int | None = None
    m: int | None = None

    def __post_init__(self):
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
            object.__setattr__(self, "_modulus", self.p ** self.m)

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
        if self.kind == RATIONALS:
            return Fraction(0)
        if self.kind == DUAL_CHAIN:
            return (0,) * self.m
        return 0

    def one(self):
        if self.kind == RATIONALS:
            return Fraction(1)
        if self.kind == DUAL_CHAIN:
            return tuple(1 if i == 0 else 0 for i in range(self.m))
        return 1

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
            return tuple((x + y) % p for x, y in zip(a, b))
        return self.reduce(a + b)

    def neg(self, a):
        if self.kind == DUAL_CHAIN:
            p = self.p
            return tuple((-x) % p for x in a)
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
# matrices (tuples of row tuples; rows index codomain generators)
# ---------------------------------------------------------------------------


def mat_identity(ring, n):
    one, zero = ring.one(), ring.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_zero(ring, rows, cols):
    zero = ring.zero()
    return tuple((zero,) * cols for _ in range(rows))


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


def mat_mul(ring, a, b, cols=None):
    """a * b.  ``cols`` is the width of b: a b without rows cannot show it,
    so callers pass it where the inner dimension may be 0 (default: 0).

    Row-sparse (Gustavson): the nonzeros of each row of b are listed once,
    and each row of a accumulates only its nonzero products.  Products are
    summed as integers (over F_p[e]/(e^m), packed one coordinate per digit)
    and each output entry is reduced once.  A zero output entry is the
    shared ``zero``."""
    rows = len(a)
    inner = len(b)
    if cols is None:
        cols = len(b[0]) if inner else 0
    if rows and len(a[0]) != inner:
        raise ShapeError(f"cannot multiply {rows}x{len(a[0])} by {inner}x{cols}")
    zero = ring.zero()
    out = []
    if ring.kind != DUAL_CHAIN:
        reduce = ring.reduce
        bnz = [[(j, y) for j, y in enumerate(brow) if y] for brow in b]
        for arow in a:
            acc = {}
            for x, nz in zip(arow, bnz):
                if x:
                    for j, y in nz:
                        acc[j] = acc.get(j, 0) + x * y
            row = [zero] * cols
            for j, s in acc.items():
                s = reduce(s)
                if s:
                    row[j] = s
            out.append(tuple(row))
    else:
        p = ring.p
        mask, offsets, weights = _kronecker(ring, inner)
        bnz = [
            [(j, sum(map(operator.mul, y, weights))) for j, y in enumerate(brow) if y != zero]
            for brow in b
        ]
        for arow in a:
            acc = {}
            for x, nz in zip(arow, bnz):
                if nz and x != zero:
                    x = sum(map(operator.mul, x, weights))
                    for j, y in nz:
                        acc[j] = acc.get(j, 0) + x * y
            row = [zero] * cols
            for j, s in acc.items():
                s = tuple([(s >> k & mask) % p for k in offsets])
                if s != zero:
                    row[j] = s
            out.append(tuple(row))
    return tuple(out)


def mat_hstack(a, b):
    if not a:
        return b
    if not b:
        return a
    return tuple(ra + rb for ra, rb in zip(a, b))


def mat_add(ring, a, b):
    add = ring.add
    return tuple(tuple(add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(ring, a):
    neg = ring.neg
    return tuple(tuple(neg(x) for x in row) for row in a)


def change_basis(ring, left, a, right):
    """left * a * right, where a None factor stands for the identity."""
    if left is not None:
        a = mat_mul(ring, left, a)
    if right is not None:
        a = mat_mul(ring, a, right)
    return a


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass
class SmithResult:
    """U*A*V = diag(d);  A = L*diag(d)*R with L = U^-1, R = V^-1."""

    d: list
    left: tuple | None = None          # L = U^-1
    right: tuple | None = None         # R = V^-1
    row_transform: tuple | None = None  # U
    col_transform: tuple | None = None  # V
    aug: tuple | None = None           # row ops applied to an augmented block


def smith(ring, matrix, *, left=False, right=False, row_t=False, col_t=False, aug=None):
    """Diagonalize ``matrix`` by invertible row and column operations.

    Deterministic pivoting: smallest nonzero valuation (absolute value over
    the integers), ties broken by lowest row then column index.  Diagonal
    entries come out as canonical associates in successive-divisibility
    order.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [list(r) for r in mat_identity(ring, rows)] if row_t else None
    linv = [list(r) for r in mat_identity(ring, rows)] if left else None
    v = [list(r) for r in mat_identity(ring, cols)] if col_t else None
    rinv = [list(r) for r in mat_identity(ring, cols)] if right else None
    ag = [list(row) for row in aug] if aug is not None else None

    is_zero, mul, add, neg = ring.is_zero, ring.mul, ring.add, ring.neg
    # integer-backed rings get inline arithmetic in the hot loops: zero tests
    # by truthiness and (a + c*x) mod q with q = None meaning no reduction
    fast = ring.kind != DUAL_CHAIN
    if ring.kind == PRIME_FIELD:
        q = ring.p
    elif ring.kind == CHAIN:
        q = ring.p ** ring.m
    else:
        q = None

    def _axpy(dst, src, c, upto):
        if fast:
            if q is None:
                for j in range(upto):
                    x = src[j]
                    if x:
                        dst[j] = dst[j] + c * x
            else:
                for j in range(upto):
                    x = src[j]
                    if x:
                        dst[j] = (dst[j] + c * x) % q
        else:
            for j in range(upto):
                x = src[j]
                if any(x):
                    dst[j] = add(dst[j], mul(c, x))

    def row_swap(i, k):
        if i == k:
            return
        a[i], a[k] = a[k], a[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]
        if ag is not None:
            ag[i], ag[k] = ag[k], ag[i]
        if linv is not None:
            for r in linv:
                r[i], r[k] = r[k], r[i]

    def row_axpy(i, k, c):
        # row i += c * row k
        if is_zero(c):
            return
        _axpy(a[i], a[k], c, cols)
        if u is not None:
            _axpy(u[i], u[k], c, rows)
        if ag is not None:
            _axpy(ag[i], ag[k], c, len(ag[i]))
        if linv is not None:
            nc = neg(c)
            for r in linv:
                x = r[i]
                if not is_zero(x):
                    r[k] = add(r[k], mul(nc, x))

    def row_scale(i, w):
        ai = a[i]
        for j in range(cols):
            if not is_zero(ai[j]):
                ai[j] = mul(w, ai[j])
        if u is not None:
            ui = u[i]
            for j in range(rows):
                if not is_zero(ui[j]):
                    ui[j] = mul(w, ui[j])
        if ag is not None:
            gi = ag[i]
            for j in range(len(gi)):
                if not is_zero(gi[j]):
                    gi[j] = mul(w, gi[j])
        if linv is not None:
            wi = ring.inv(w)
            for r in linv:
                if not is_zero(r[i]):
                    r[i] = mul(wi, r[i])

    def col_swap(j, k):
        if j == k:
            return
        for r in a:
            r[j], r[k] = r[k], r[j]
        if v is not None:
            for r in v:
                r[j], r[k] = r[k], r[j]
        if rinv is not None:
            rinv[j], rinv[k] = rinv[k], rinv[j]

    def col_axpy(j, k, c):
        # col j += c * col k
        if is_zero(c):
            return
        if fast:
            if q is None:
                for r in a:
                    x = r[k]
                    if x:
                        r[j] = r[j] + c * x
                if v is not None:
                    for r in v:
                        x = r[k]
                        if x:
                            r[j] = r[j] + c * x
            else:
                for r in a:
                    x = r[k]
                    if x:
                        r[j] = (r[j] + c * x) % q
                if v is not None:
                    for r in v:
                        x = r[k]
                        if x:
                            r[j] = (r[j] + c * x) % q
        else:
            for r in a:
                x = r[k]
                if any(x):
                    r[j] = add(r[j], mul(c, x))
            if v is not None:
                for r in v:
                    x = r[k]
                    if any(x):
                        r[j] = add(r[j], mul(c, x))
        if rinv is not None:
            nc = neg(c)
            rj, rk = rinv[j], rinv[k]
            for t in range(len(rj)):
                x = rj[t]
                if not is_zero(x):
                    rk[t] = add(rk[t], mul(nc, x))

    euclid = ring.kind == INTEGERS
    # over chain kinds and fields the minimal valuation of the remaining
    # submatrix never decreases, so the previous pivot's key is a sharp
    # early-exit bound; over Z remainders can shrink, keep the bound at 1
    bound = [1 if euclid else 0]
    pivot_key = ring.pivot_key

    def find_pivot(t):
        best = None
        best_key = None
        stop = bound[0]
        if fast:
            for i in range(t, rows):
                ai = a[i]
                for j in range(t, cols):
                    x = ai[j]
                    if not x:
                        continue
                    key = pivot_key(x)
                    if best is None or key < best_key:
                        best, best_key = (i, j), key
                        if key <= stop:
                            return best, best_key
            return (best, best_key) if best is not None else None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if not any(x):
                    continue
                key = pivot_key(x)
                if best is None or key < best_key:
                    best, best_key = (i, j), key
                    if key <= stop:
                        return best, best_key
        return (best, best_key) if best is not None else None

    t = 0
    limit = min(rows, cols)
    while t < limit:
        found = find_pivot(t)
        if found is None:
            break
        if not euclid:
            bound[0] = max(bound[0], found[1])
        found = found[0]
        row_swap(t, found[0])
        col_swap(t, found[1])
        if euclid:
            while True:
                if a[t][t] < 0:
                    row_scale(t, -1)
                piv = a[t][t]
                dirty = False
                for i in range(t + 1, rows):
                    x = a[i][t]
                    if x:
                        row_axpy(i, t, -(x // piv))
                        if a[i][t]:
                            dirty = True
                if dirty:
                    found = find_pivot(t)[0]
                    row_swap(t, found[0])
                    col_swap(t, found[1])
                    continue
                for j in range(t + 1, cols):
                    x = a[t][j]
                    if x:
                        col_axpy(j, t, -(x // piv))
                        if a[t][j]:
                            dirty = True
                if dirty:
                    found = find_pivot(t)[0]
                    row_swap(t, found[0])
                    col_swap(t, found[1])
                    continue
                piv = a[t][t]
                bad = None
                for i in range(t + 1, rows):
                    ai = a[i]
                    for j in range(t + 1, cols):
                        if ai[j] % piv:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                row_axpy(t, bad, 1)
        else:
            piv = a[t][t]
            for i in range(t + 1, rows):
                x = a[i][t]
                if not is_zero(x):
                    row_axpy(i, t, neg(ring.divide(x, piv)))
            for j in range(t + 1, cols):
                x = a[t][j]
                if not is_zero(x):
                    col_axpy(j, t, neg(ring.divide(x, piv)))
        t += 1

    d = []
    for i in range(limit):
        x = a[i][i]
        if is_zero(x):
            d.append(ring.zero())
            continue
        w = ring.normalizing_unit(x)
        if not is_zero(ring.sub(w, ring.one())):
            row_scale(i, w)
        d.append(a[i][i])

    return SmithResult(
        d=d,
        left=tuple(tuple(r) for r in linv) if linv is not None else None,
        right=tuple(tuple(r) for r in rinv) if rinv is not None else None,
        row_transform=tuple(tuple(r) for r in u) if u is not None else None,
        col_transform=tuple(tuple(r) for r in v) if v is not None else None,
        aug=tuple(tuple(r) for r in ag) if ag is not None else None,
    )


def normal_form(ring, matrix):
    """Public Smith decomposition: (d, L, R) with matrix = L * diag(d) * R.

    ``d`` is the tuple of diagonal invariant factors (canonical associates in
    successive-divisibility order); L and R are square invertible transforms.
    """
    if not isinstance(ring, Ring):
        raise UnsupportedRingError(f"not a supported ring: {ring!r}")
    res = smith(ring, matrix, left=True, right=True)
    return tuple(res.d), res.left, res.right


def invariant_factors(ring, matrix):
    return tuple(smith(ring, matrix).d)


def solve_linear(ring, a, b):
    """One X with A*X = B over the ring, or None if no solution exists."""
    rows = len(a)
    if len(b) != rows:
        raise ShapeError("solve_linear: row count mismatch")
    bcols = len(b[0]) if b else 0
    cols = len(a[0]) if rows else 0
    res = smith(ring, a, col_t=True, aug=b)
    d, v, bb = res.d, res.col_transform, res.aug
    zero = ring.zero()
    z = [[zero] * bcols for _ in range(cols)]
    for i in range(rows):
        di = d[i] if i < len(d) else None
        for j in range(bcols):
            rhs = bb[i][j]
            if di is None or ring.is_zero(di):
                if not ring.is_zero(rhs):
                    return None
            else:
                if not ring.divides(di, rhs):
                    return None
                z[i][j] = ring.divide(rhs, di)
    if cols == 0:
        return ()
    return mat_mul(ring, v, tuple(tuple(r) for r in z))


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


@lru_cache(maxsize=None)
def _factor_order_elt(ring, f):
    """Generator annihilator as a ring element (zero for free generators)."""
    if f == FREE:
        return ring.zero()
    if ring.kind == INTEGERS:
        return f
    if ring.kind == CHAIN:
        return ring.reduce(ring.p ** f)
    return tuple(1 if t == f else 0 for t in range(ring.m))


@dataclass(frozen=True)
class Module:
    """Finitely generated module in invariant-factor normal form.

    ``factors`` lists cyclic orders: 0 means a free summand; over the
    integers a value d >= 2 means Z/d, over chain kinds an exponent
    1 <= e < m means R/(pi^e).  Torsion factors come first in ascending
    divisibility order, free factors last.
    """

    ring: Ring
    factors: tuple

    def __post_init__(self):
        for f in self.factors:
            if f == FREE:
                continue
            if self.ring.is_field:
                raise UnsupportedRingError(f"torsion factor over field {self.ring}")
            if self.ring.kind == INTEGERS and f < 2:
                raise ShapeError(f"invalid integer torsion order {f}")
            if self.ring.is_chain_kind and not 1 <= f < self.ring.m:
                raise ShapeError(f"invalid chain exponent {f} for {self.ring}")
        torsion = [f for f in self.factors if f != FREE]
        frees = len(self.factors) - len(torsion)
        if list(self.factors) != torsion + [FREE] * frees or torsion != sorted(torsion):
            raise ShapeError(f"factors not in normal form: {self.factors}")
        if self.ring.kind == INTEGERS:
            for a, b in zip(torsion, torsion[1:]):
                if b % a:
                    raise ShapeError(f"integer factors lack divisibility chain: {self.factors}")

    @staticmethod
    def free(ring, rank):
        return Module(ring, (FREE,) * rank)

    @staticmethod
    def zero(ring):
        return Module(ring, ())

    @property
    def rank(self):
        return sum(1 for f in self.factors if f == FREE)

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


def _order_columns(module):
    """Relation matrix of the presentation: one column per torsion generator."""
    n = module.ngens
    zero = module.ring.zero()
    cols = []
    for i, f in enumerate(module.factors):
        if f != FREE:
            col = [zero] * n
            col[i] = module.order_elt(i)
            cols.append(col)
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def _reduce_torsion_rows(module, matrix):
    """``matrix`` with the rows of ``module``'s torsion generators reduced
    modulo their orders; the rows of free generators are kept as they are."""
    ntors = module.ngens - module.rank
    if not ntors:
        return matrix
    ring = module.ring
    rows = list(matrix)
    for i in range(ntors):
        f = module.factors[i]
        if ring.kind == INTEGERS:
            rows[i] = tuple(x % f for x in rows[i])
        elif ring.kind == CHAIN:
            q = ring.p ** f
            rows[i] = tuple(x % q for x in rows[i])
        else:
            pad = (0,) * (ring.m - f)
            rows[i] = tuple(x[:f] + pad if any(x[f:]) else x for x in rows[i])
    return tuple(rows)


@dataclass(frozen=True)
class Morphism:
    """Matrix morphism between presented modules.

    ``matrix[i][j]`` is the coefficient of codomain generator i in the image
    of domain generator j.  Entries are stored reduced modulo the codomain
    generator orders.

    Invariants are checked once, at the trust boundary.  ``Morphism(...)``
    validates: it checks that both modules share the ring and that the shape
    matches, reduces every entry, and verifies the congruence condition
    making the map well defined on cyclic generators.  Instance parsing, the
    constructors, the validators and every map read off a Smith normal form
    (kernels, cokernels, images, solutions of linear systems and the
    factorizations through limits and colimits) go through it.

    Results that are valid whenever their operands are skip those checks:
    ``identity``, ``zero``, ``compose``, ``+``, ``-``, ``scale``, tensor
    products of morphisms (``tensor_morphisms`` and the components of
    ``tensor_quiver_morphisms``), the components of the coherence
    isomorphisms ``flatten_iso``, the block witnesses of a direct sum that
    is a plain concatenation, and the difference maps of finite limits
    (densified from their sparse rows, see ``_dense_delta``) and colimits.
    Sums, products and composites of congruence-valid entries stay
    congruence-valid and ring operations return canonical elements, so
    these only reduce the rows of torsion generators (see ``_trusted``).
    """

    domain: Module
    codomain: Module
    matrix: tuple

    def __post_init__(self):
        if self.domain.ring != self.codomain.ring:
            raise RingMismatchError(f"{self.domain.ring} vs {self.codomain.ring}")
        rows, cols = self.codomain.ngens, self.domain.ngens
        if len(self.matrix) != rows or any(len(r) != cols for r in self.matrix):
            raise ShapeError(f"matrix shape mismatch, expected {rows}x{cols}")
        ring = self.ring
        reduced = _reduce_torsion_rows(
            self.codomain, tuple(tuple(map(ring.reduce, row)) for row in self.matrix))
        object.__setattr__(self, "matrix", reduced)
        for j in range(cols):
            od = self.domain.order_elt(j)
            if ring.is_zero(od):
                continue
            for i in range(rows):
                x = reduced[i][j]
                if ring.is_zero(x):
                    continue
                if not ring.divides(self.codomain.order_elt(i), ring.mul(od, x)):
                    raise ShapeError(
                        f"entry ({i},{j}) = {x!r} not congruence-valid "
                        f"({self.domain.factors[j]} -> {self.codomain.factors[i]})"
                    )

    @staticmethod
    def _trusted(domain, codomain, matrix):
        """A morphism whose matrix is congruence-valid by construction.

        ``matrix`` must be a tuple of row tuples of the right shape holding
        canonical ring elements.  Only the rows of torsion generators are
        reduced, because products and sums over Z or a chain ring can leave
        them above the generator order; free rows are kept as they are.
        """
        out = object.__new__(Morphism)
        object.__setattr__(out, "domain", domain)
        object.__setattr__(out, "codomain", codomain)
        object.__setattr__(out, "matrix", _reduce_torsion_rows(codomain, matrix))
        return out

    @property
    def ring(self):
        return self.domain.ring

    @staticmethod
    def identity(module):
        return Morphism._trusted(module, module, mat_identity(module.ring, module.ngens))

    @staticmethod
    def zero(domain, codomain):
        return Morphism._trusted(domain, codomain,
                                 mat_zero(domain.ring, codomain.ngens, domain.ngens))

    def compose(self, other):
        """self o other."""
        if other.codomain != self.domain:
            raise ShapeError("composition mismatch")
        return Morphism._trusted(other.domain, self.codomain,
                                 mat_mul(self.ring, self.matrix, other.matrix,
                                         other.domain.ngens))

    def __add__(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError("morphism sum mismatch")
        return Morphism._trusted(self.domain, self.codomain,
                                 mat_add(self.ring, self.matrix, other.matrix))

    def __sub__(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError("morphism difference mismatch")
        return Morphism._trusted(self.domain, self.codomain,
                                 mat_add(self.ring, self.matrix, mat_neg(self.ring, other.matrix)))

    def scale(self, c):
        mul = self.ring.mul
        return Morphism._trusted(
            self.domain, self.codomain,
            tuple(tuple(mul(c, x) for x in row) for row in self.matrix),
        )

    @property
    def is_zero_map(self):
        z = self.ring.is_zero
        return all(z(x) for row in self.matrix for x in row)


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
    return [kept[k] for k in order], Module(ring, tuple(factors[k] for k in order))


def _presentation(ring, ngens, relations):
    """Normal form of the module <ngens | relations> with witnessing isos.

    Returns (module, to_norm, from_norm): to_norm maps raw generator
    coordinates to normal-form coordinates, from_norm is a section of it.
    """
    if ngens == 0:
        return Module.zero(ring), (), ()
    res = smith(ring, relations, left=True, row_t=True)
    kept, module = _diagonal_factors(ring, res.d, ngens)
    to_norm = tuple(res.row_transform[i] for i in kept)
    from_norm = tuple(tuple(row[k] for k in kept) for row in res.left)
    return module, to_norm, from_norm


def normalize_orders(ring, raw_factors):
    """Normal form of a direct sum of cyclics given by raw order indicators.

    Raw indicators use the Module conventions (0 = free); trivial factors
    must already be removed by the caller.  Returns (module, to_norm,
    from_norm) like :func:`_presentation`, except that both transforms are
    None when the raw generators already are the normal form.
    """
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
        module = Module(ring, tuple(sorted_f))
        zero, one = ring.zero(), ring.one()
        to_norm = tuple(
            tuple(one if j == order[r] else zero for j in range(n)) for r in range(n)
        )
        from_norm = tuple(
            tuple(one if order[r] == i else zero for r in range(n)) for i in range(n)
        )
        return module, to_norm, from_norm
    rel_cols = []
    for i, f in enumerate(canonical):
        if f != FREE:
            col = [ring.zero()] * n
            col[i] = _factor_order_elt(ring, f)
            rel_cols.append(col)
    rel = tuple(tuple(col[i] for col in rel_cols) for i in range(n))
    return _presentation(ring, n, rel)


@dataclass(frozen=True)
class DirectSum:
    """Biproduct of ``summands``; ``to_norm``/``from_norm`` change basis
    between the concatenated generators and ``module`` (None: identity).
    The injection and projection witnesses are built on first read."""

    module: Module
    summands: tuple
    to_norm: tuple | None
    from_norm: tuple | None

    def _blocks(self):
        starts, _ = _block_starts(self.summands)
        return zip(starts, self.summands)

    @cached_property
    def injections(self):
        module, to_n = self.module, self.to_norm
        if to_n is not None:
            return tuple(Morphism(m, module, tuple(row[start:start + m.ngens] for row in to_n))
                         for start, m in self._blocks())
        # concatenation already canonical: block unit witnesses
        zero, one = module.ring.zero(), module.ring.one()
        return tuple(Morphism._trusted(m, module, tuple(
            tuple(one if r == start + c else zero for c in range(m.ngens))
            for r in range(module.ngens))) for start, m in self._blocks())

    @cached_property
    def projections(self):
        module, from_n = self.module, self.from_norm
        if from_n is not None:
            return tuple(Morphism(module, m, from_n[start:start + m.ngens])
                         for start, m in self._blocks())
        zero, one = module.ring.zero(), module.ring.one()
        return tuple(Morphism._trusted(module, m, tuple(
            tuple(one if start + r == c else zero for c in range(module.ngens))
            for r in range(m.ngens))) for start, m in self._blocks())


def direct_sum(ring, modules):
    """Biproduct with injection/projection witnesses."""
    modules = tuple(modules)
    if any(m.ring != ring for m in modules):
        raise RingMismatchError("direct_sum over mixed rings")
    module, to_n, from_n = normalize_orders(ring, [f for m in modules for f in m.factors])
    return DirectSum(module, modules, to_n, from_n)


class Analysis:
    """Kernel, image and cokernel of a morphism, with witnessing maps.

    Each part is computed on its first read and kept on the morphism, so
    every analysis of the same morphism shares it; the predicates read only
    the parts they need.
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
        return self._part("image", lambda: _image_data(self.morphism, self._kernel()[2]))

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

    @property
    def injective(self):
        return self.kernel.is_zero

    @property
    def surjective(self):
        return self.cokernel.is_zero

    @property
    def split_mono(self):
        return self.injective and self.cokernel.is_flat()

    @property
    def is_iso(self):
        return self.injective and self.surjective


def _kernel_columns(ring, w, res):
    """Generators of ker(W) for W between free columns, from a smith run."""
    cols = len(w[0]) if w else 0
    d, v = res.d, res.col_transform
    gens = []
    for i in range(cols):
        di = d[i] if i < len(d) else ring.zero()
        if ring.is_zero(di):
            gens.append(tuple(v[r][i] for r in range(cols)))
        elif ring.is_chain_kind:
            e = ring.valuation(di)
            if 0 < e < ring.m:
                ann = _factor_order_elt(ring, ring.m - e) if ring.m - e < ring.m else ring.zero()
                col = tuple(ring.mul(v[r][i], ann) for r in range(cols))
                if any(not ring.is_zero(x) for x in col):
                    gens.append(col)
    return gens


def _kernel_generator_columns(ring, f):
    """Columns over R^s generating {x : f(x) = 0 in the presented codomain}."""
    s, t = f.domain.ngens, f.codomain.ngens
    if t == 0:
        return [tuple(ring.one() if r == i else ring.zero() for r in range(s))
                for i in range(s)]
    w = mat_hstack(f.matrix, _order_columns(f.codomain))
    res = smith(ring, w, col_t=True)
    cols = [col[:s] for col in _kernel_columns(ring, w, res)]
    return [c for c in cols if any(not ring.is_zero(x) for x in c)]


def kernel_data(f):
    """(kernel module, inclusion) without cokernel bookkeeping."""
    ring = f.ring
    m = f.domain
    s = m.ngens
    if s == 0:
        return m, Morphism.zero(m, m), ()
    k0_cols = _kernel_generator_columns(ring, f)
    r = len(k0_cols)
    k0 = tuple(tuple(col[i] for col in k0_cols) for i in range(s))
    if r:
        wk = mat_hstack(k0, _order_columns(m))
        res_k = smith(ring, wk, col_t=True)
        rel_k_cols = [col[:r] for col in _kernel_columns(ring, wk, res_k)]
        rel_k = tuple(tuple(col[i] for col in rel_k_cols) for i in range(r))
    else:
        rel_k = ()
    ker, _, from_k = _presentation(ring, r, rel_k)
    incl = Morphism(ker, m, mat_mul(ring, k0, from_k) if r else mat_zero(ring, s, 0))
    return ker, incl, k0


def cokernel_data(f):
    """(cokernel module, projection) without kernel bookkeeping."""
    ring = f.ring
    n = f.codomain
    if n.ngens == 0:
        coker = Module.zero(ring)
        return coker, Morphism.zero(n, coker)
    w = mat_hstack(f.matrix, _order_columns(n))
    res = smith(ring, w, row_t=True)
    kept, coker = _diagonal_factors(ring, res.d, n.ngens)
    return coker, Morphism(n, coker, tuple(res.row_transform[i] for i in kept))


def _image_data(f, k0):
    """(image module, inclusion): the image is generated by the columns of
    f, with the kernel columns ``k0`` as relations."""
    ring = f.ring
    s, t = f.domain.ngens, f.codomain.ngens
    rel_im = mat_identity(ring, s) if t == 0 else k0
    img, _, from_i = _presentation(ring, s, rel_im)
    return img, Morphism(img, f.codomain, mat_mul(ring, f.matrix, from_i) if s and t
                         else mat_zero(ring, t, img.ngens))


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


def _nonzero_rows(ring, matrix):
    """The nonzero entries of each row of ``matrix`` as {column: entry}."""
    zero = ring.zero()
    return [{j: x for j, x in enumerate(row) if x != zero} for row in matrix]


def _reduce_row(ring, f, row):
    """A sparse ``row`` of a generator of order ``f`` (0: free) reduced
    modulo that order, without its zero entries."""
    if f == FREE:
        zero = ring.zero()
        return {j: x for j, x in row.items() if x != zero}
    if ring.kind == DUAL_CHAIN:
        zero, pad = ring.zero(), (0,) * (ring.m - f)
        return {j: y for j, x in row.items() if (y := x[:f] + pad) != zero}
    q = f if ring.kind == INTEGERS else ring.p ** f
    return {j: y for j, x in row.items() if (y := x % q)}


def _order_rows(ring, rows, orders, width, q=None):
    """Fresh sparse rows of [map | order columns] for a map with ``width``
    columns, given by the nonzeros ``rows`` ({column: entry}, one dict per
    codomain generator), into the sum of cyclics of the raw ``orders``:
    generator i of order f gets f at column width + i.  Entries are reduced
    modulo ``q`` when it is given; zero rows are left out."""
    out = {}
    for i, (row, f) in enumerate(zip(rows, orders)):
        if q is None:
            entries = dict(row)
        else:
            entries = {j: y for j, x in row.items() if (y := x % q)}
        if f != FREE:
            x = _factor_order_elt(ring, f)
            if q is not None:
                x %= q
            if x != ring.zero():
                entries[width + i] = x
        if entries:
            out[i] = entries
    return out


def _pivot_valuations(ring, rows):
    """The valuations of the nonzero Smith diagonal entries of a sparse
    matrix over a field (all 0) or a chain ring; ``rows`` is consumed.

    Each step takes a pivot of least valuation, from the shortest column
    holding one and then from the shortest row, to keep the fill-in small.
    The least valuation never decreases, so the search starts at the
    previous pivot's.  The pivot divides every entry left, so clearing its
    column by row operations and then dropping its row and column (the
    column operations that would clear its row touch nothing else) leaves a
    matrix whose diagonal is the rest of the Smith diagonal.
    """
    kind = ring.kind
    if kind == DUAL_CHAIN:
        zero, divide, mul, sub = ring.zero(), ring.divide, ring.mul, ring.sub
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
        if kind in (PRIME_FIELD, CHAIN):
            pv = p ** bound
            unit = pow(piv // pv, -1, q)
        for i in cols.pop(pj, ()):
            row = rows[i]
            x = row.pop(pj)
            if kind == DUAL_CHAIN:
                c = divide(x, piv)
            elif kind == RATIONALS:
                c = x / piv
            else:
                c = x // pv * unit
            for j, y in prow.items():
                if kind == DUAL_CHAIN:
                    z = sub(row.get(j, zero), mul(c, y))
                    nonzero = z != zero
                elif kind == RATIONALS:
                    z = nonzero = row.get(j, 0) - c * y
                else:
                    z = nonzero = (row.get(j, 0) - c * y) % q
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


def _cokernel_of_rows(ring, rows, orders, width):
    """Invariant factors of the cokernel of a map with ``width`` columns into
    the direct sum of cyclics of the raw ``orders`` (Module conventions, in
    any order), read off a sparse elimination that computes only the Smith
    diagonal of [map | order columns].  ``rows`` holds the map's nonzeros,
    one {column: entry} dict per codomain generator; it is not changed.

    Over a field or a chain ring it runs on the entries themselves
    (:func:`_pivot_valuations`).  Over the integers with every order
    torsion, the cokernel is the sum of its p-parts, one for each p^k
    exactly dividing the exponent e (the lcm of the orders), so the
    elimination runs over each Z/p^k, where entries stay below p^k.  Over
    the integers with a free order, or when e does not factor cheaply
    (:func:`_prime_powers`), it reads the dense Smith diagonal instead.
    """
    n = len(orders)
    if n == 0:
        return Module.zero(ring)
    if ring.kind != INTEGERS:
        vals = _pivot_valuations(ring, _order_rows(ring, rows, orders, width))
        torsion = tuple(sorted(v for v in vals if v))
        return Module(ring, torsion + (FREE,) * (n - len(vals)))
    parts = None if FREE in orders else _prime_powers(lcm(*orders))
    if parts is None:
        w = [[0] * (width + n) for _ in range(n)]
        for i, row in _order_rows(ring, rows, orders, width).items():
            for j, x in row.items():
                w[i][j] = x
        return _diagonal_factors(ring, smith(ring, w).d, n)[1]
    # the p-part of each invariant factor, largest first
    exponents = []
    for p, k in parts:
        local = _order_rows(ring, rows, orders, width, p ** k)
        vals = _pivot_valuations(Ring.chain(p, k), local)
        exponents.append((p, sorted([v for v in vals if v] + [k] * (n - len(vals)),
                                    reverse=True)))
    length = max(len(e) for _, e in exponents)
    return Module(ring, tuple(prod(p ** e[i] for p, e in exponents if i < len(e))
                              for i in reversed(range(length))))


def cokernel_module(f):
    """Invariant factors of coker(f), without a transform
    (:func:`_cokernel_of_rows` on the nonzeros of f)."""
    return _cokernel_of_rows(f.ring, _nonzero_rows(f.ring, f.matrix), f.codomain.factors,
                             f.domain.ngens)


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
    """Raw generator pairs with nontrivial tensor order, plus normalization
    (None transforms when the raw pairs already are the normal form)."""
    ring = m.ring
    pairs = []
    raw = []
    for i, a in enumerate(m.factors):
        for j, b in enumerate(n.factors):
            t = _tensor_factor(ring, a, b)
            if t is not None:
                pairs.append((i, j))
                raw.append(t)
    module, to_n, from_n = normalize_orders(ring, raw)
    return pairs, module, to_n, from_n


def tensor(m, n):
    """M (x) N in normal form (the valuation-min / gcd rule on cyclics)."""
    if m.ring != n.ring:
        raise RingMismatchError(f"{m.ring} vs {n.ring}")
    return _tensor_layout(m, n)[1]


def tensor_morphisms(f, g):
    """f (x) g with respect to the canonical tensor normal forms."""
    if f.ring != g.ring:
        raise RingMismatchError(f"{f.ring} vs {g.ring}")
    ring = f.ring
    dpairs, dom, _, dfrom = _tensor_layout(f.domain, g.domain)
    cpairs, cod, cto, _ = _tensor_layout(f.codomain, g.codomain)
    if not dpairs or not cpairs:
        return Morphism.zero(dom, cod)
    raw = tuple(
        tuple(ring.mul(f.matrix[ic][idx], g.matrix[jc][jdx]) for (idx, jdx) in dpairs)
        for (ic, jc) in cpairs
    )
    return Morphism._trusted(dom, cod, change_basis(ring, cto, raw, dfrom))


# ---------------------------------------------------------------------------
# ring extensions and base change
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingExtension:
    """A supported surjective ring map theta: R -> k with nilpotent kernel."""

    source: Ring
    target: Ring
    kernel_exponent: int = field(init=False)
    small: bool = field(init=False)

    def __post_init__(self):
        r, k = self.source, self.target
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
        object.__setattr__(self, "kernel_exponent", -(-r.m // mt))
        object.__setattr__(self, "small", self.kernel_exponent <= 2)

    @property
    def target_nilpotency(self):
        return self.target.m if self.target.is_chain_kind else 1

    def reduce_element(self, x):
        r, k = self.source, self.target
        if r.kind == CHAIN:
            return k.reduce(x)
        if k.kind == PRIME_FIELD:
            return x[0] % k.p
        return k.reduce(x[: k.m])

    def lift_element(self, x):
        """Canonical-representative lift k -> R of a target element."""
        r, k = self.source, self.target
        if r.kind == CHAIN:
            return r.reduce(x)
        if k.kind == PRIME_FIELD:
            return r.reduce((x,))
        return r.reduce(tuple(x))

    def base_change_factor(self, f):
        if f == FREE:
            return FREE
        e = min(f, self.target_nilpotency)
        return FREE if e >= self.target_nilpotency else e

    def base_change(self, module):
        if module.ring != self.source:
            raise RingMismatchError(f"module over {module.ring}, extension from {self.source}")
        return Module(self.target, tuple(self.base_change_factor(f) for f in module.factors))

    def base_change_morphism(self, f):
        dom = self.base_change(f.domain)
        cod = self.base_change(f.codomain)
        mat = tuple(tuple(self.reduce_element(x) for x in row) for row in f.matrix)
        return Morphism(dom, cod, mat)

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
        mt = self.target_nilpotency
        factors = tuple(mt if f == FREE else f for f in module.factors)
        return Module(self.source, factors)

    def view_morphism_over_source(self, f):
        dom = self.view_module_over_source(f.domain)
        cod = self.view_module_over_source(f.codomain)
        mat = tuple(tuple(self.lift_element(x) for x in row) for row in f.matrix)
        return Morphism(dom, cod, mat)

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


def base_change(extension, module):
    return extension.base_change(module)


# ---------------------------------------------------------------------------
# finite limits and colimits of module diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleDiagram:
    """Finite diagram: nodes and arrows (src_index, tgt_index, Morphism)."""

    ring: Ring
    nodes: tuple
    arrows: tuple

    def __post_init__(self):
        for src, tgt, f in self.arrows:
            if f.domain != self.nodes[src] or f.codomain != self.nodes[tgt]:
                raise ShapeError(f"arrow {src}->{tgt} endpoints inconsistent with diagram")


@dataclass(frozen=True)
class LimitResult:
    """A limit as the kernel of the difference map of its forest equations.

    ``inclusion`` embeds it into the direct sum of the free nodes of its
    ``equations``; ``cone`` has one leg per node of the diagram.
    """

    module: Module
    cone: tuple            # projections limit -> node_i, for every node
    inclusion: Morphism    # into the direct sum of the free nodes
    equations: _LimitEquations


@dataclass(frozen=True)
class ColimitResult:
    """A colimit presented on the free nodes (the sinks) of a spanning forest;
    the dual of :class:`LimitResult`."""

    module: Module
    cocone: tuple          # injections node_i -> colimit, for every node
    projection: Morphism   # from the direct sum of the free nodes
    nodes_sum: DirectSum   # of the free nodes
    free: tuple


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

    ``path[t]`` is the raw matrix of the composite root -> t (t -> root when
    ``reverse``), reduced modulo the torsion of its codomain; None stands
    for the identity of a root.
    """
    root = list(range(len(nodes)))
    path = [None] * len(nodes)
    for t in order:
        a = tree[t]
        if a is None:
            continue
        src, tgt, f = arrows[a]
        if reverse:
            r = root[tgt]
            path[t] = f.matrix if path[tgt] is None else _reduce_torsion_rows(
                nodes[r], mat_mul(ring, path[tgt], f.matrix, nodes[t].ngens))
        else:
            r = root[src]
            path[t] = f.matrix if path[src] is None else _reduce_torsion_rows(
                nodes[t], mat_mul(ring, f.matrix, path[src], nodes[r].ngens))
        root[t] = r
    return root, path


@dataclass(frozen=True)
class _LimitEquations:
    """A limit as the kernel of its difference map F --delta--> T.

    F is the direct sum of the ``free`` nodes (ascending) of a spanning
    forest of the diagram's ``nodes`` (node i's generators start at
    ``at[i]`` in their concatenation) and T the sum of the targets of the
    arrows off the forest.  Every node t is determined by its free root
    ``root[t]`` along the composite ``path[t]`` (None for a root).

    ``rows`` holds delta on the concatenated generators, one {column:
    entry} dict of nonzeros per generator of T, each reduced modulo that
    generator's order; ``free_orders`` and ``target_orders`` are the raw
    orders of the generators of F and of T.  The normal forms, ``free_sum``
    and the dense ``delta`` between them, are built on first read, and so
    is the sparse form of each composite (:meth:`sparse_path`).
    """

    ring: Ring
    nodes: tuple
    free: tuple
    root: list
    path: list
    at: dict
    rows: list
    free_orders: tuple
    target_orders: tuple
    _sparse_paths: dict = field(default_factory=dict, repr=False, compare=False)

    def sparse_path(self, t):
        """P_t as sparse rows over its root's generators, kept once built."""
        rows = self._sparse_paths.get(t)
        if rows is None:
            rows = self._sparse_paths[t] = _nonzero_rows(self.ring, self.path[t])
        return rows

    @cached_property
    def free_sum(self):
        return direct_sum(self.ring, [self.nodes[i] for i in self.free])

    @cached_property
    def delta(self):
        return _dense_delta(self)


def _row_products(ring, a, b):
    """The rows of a * b for sparse rows ``a`` and ``b`` (one {column:
    entry} dict of nonzeros per row), as sparse rows of canonical entries.
    The arithmetic is that of :func:`mat_mul`."""
    zero = ring.zero()
    if ring.kind != DUAL_CHAIN:
        reduce = ring.reduce
        for arow in a:
            acc = {}
            for k, x in arow.items():
                for j, y in b[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            yield {j: z for j, t in acc.items() if (z := reduce(t)) != zero}
        return
    p = ring.p
    mask, offsets, weights = _kronecker(ring, len(b))
    packed = [{j: sum(map(operator.mul, y, weights)) for j, y in row.items()} for row in b]
    for arow in a:
        acc = {}
        for k, x in arow.items():
            x = sum(map(operator.mul, x, weights))
            for j, y in packed[k].items():
                acc[j] = acc.get(j, 0) + x * y
        yield {j: z for j, t in acc.items()
               if (z := tuple([(t >> k & mask) % p for k in offsets])) != zero}


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
                                  for row in eq.sparse_path(t)]
        return minus_paths[t]

    for src, tgt, f in equations:
        lhs = _nonzero_rows(ring, f.matrix)
        if path[src] is not None:
            lhs = _row_products(ring, lhs, eq.sparse_path(src))
        c0 = at[root[src]]
        for row, minus, o in zip(lhs, minus_path(tgt), nodes[tgt].factors):
            row = {c0 + c: x for c, x in row.items()}
            for c, x in minus.items():
                row[c] = add(row[c], x) if c in row else x
            rows.append(_reduce_row(ring, o, row))
    return eq


def _dense_delta(eq):
    """The difference map of ``eq`` as a morphism between the normal forms
    of F and T, densified from its rows."""
    ring = eq.ring
    zero, width = ring.zero(), len(eq.free_orders)
    raw = []
    for row in eq.rows:
        line = [zero] * width
        for j, x in row.items():
            line[j] = x
        raw.append(tuple(line))
    target, to_norm, _ = normalize_orders(ring, eq.target_orders)
    return Morphism._trusted(eq.free_sum.module, target,
                             change_basis(ring, to_norm, tuple(raw), eq.free_sum.from_norm))


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
    k = kernel.ngens
    into_free = (incl.matrix if eq.free_sum.from_norm is None
                 else mat_mul(ring, eq.free_sum.from_norm, incl.matrix, k))
    cone = []
    for t, node in enumerate(nodes):
        r = root[t]
        block = into_free[at[r]:at[r] + nodes[r].ngens]
        if path[t] is not None:
            block = mat_mul(ring, path[t], block, k)
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
    arrow_at, width = _block_starts(sources)
    arr_mod, _, arr_from = normalize_orders(ring, [f for m in sources for f in m.factors])
    zero, sub = ring.zero(), ring.sub
    raw = [[zero] * width for _ in range(height)]
    for c0, (src, tgt, f) in zip(arrow_at, relations):
        rhs = f.matrix if path[tgt] is None else mat_mul(ring, path[tgt], f.matrix,
                                                         nodes[src].ngens)
        r0 = at[root[tgt]]
        for k, row in enumerate(rhs):
            raw[r0 + k][c0:c0 + len(row)] = row
        p_src = path[src]
        if p_src is None:
            p_src = mat_identity(ring, nodes[src].ngens)
        for k, row in enumerate(p_src, at[root[src]]):
            line = raw[k]
            for c, x in enumerate(row, c0):
                if x != zero:
                    line[c] = sub(line[c], x)
    delta = Morphism._trusted(
        arr_mod, free_sum.module,
        change_basis(ring, free_sum.to_norm, tuple(map(tuple, raw)), arr_from))
    coker, proj = cokernel_data(delta)
    from_free = (proj.matrix if free_sum.to_norm is None
                 else mat_mul(ring, proj.matrix, free_sum.to_norm, height))
    cocone = []
    for s, node in enumerate(nodes):
        r = root[s]
        c0 = at[r]
        block = tuple(row[c0:c0 + nodes[r].ngens] for row in from_free)
        if path[s] is not None:
            block = mat_mul(ring, block, path[s], node.ngens)
        cocone.append(Morphism._trusted(node, coker, block))
    return ColimitResult(coker, tuple(cocone), proj, free_sum, tuple(free))


def factor_through_mono(inclusion, given):
    """u with inclusion o u = given (exact, unique when inclusion is mono)."""
    ring = inclusion.ring
    if given.codomain != inclusion.codomain:
        raise ShapeError("factor_through_mono: codomain mismatch")
    amat = mat_hstack(inclusion.matrix, _order_columns(inclusion.codomain))
    x = solve_linear(ring, amat, given.matrix)
    if x is None:
        raise ShapeError("map does not factor through the inclusion")
    u = Morphism(given.domain, inclusion.domain, tuple(x[: inclusion.domain.ngens]))
    if inclusion.compose(u).matrix != given.matrix:
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
    amat = mat_hstack(projection.matrix, _order_columns(mid))
    x = solve_linear(ring, amat, mat_identity(ring, mid.ngens))
    if x is None:
        raise ShapeError("factor_through_epi: the projection is not surjective")
    n = projection.domain.ngens
    section = x[:n] if mid.ngens else ((),) * n
    u = Morphism(mid, given.codomain, mat_mul(ring, given.matrix, section, mid.ngens))
    if u.compose(projection).matrix != given.matrix:
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
    s = _nonzero_rows(ring, [row for i in eq.free for row in legs[i].matrix])
    for row, f in zip(_row_products(ring, eq.rows, s), eq.target_orders):
        if _reduce_row(ring, f, row):
            raise ShapeError("map does not factor through the inclusion")
    for t, leg in enumerate(legs):
        if eq.path[t] is None:
            continue
        r = eq.root[t]
        composite = _row_products(ring, eq.sparse_path(t), s[eq.at[r]:eq.at[r] + nodes[r].ngens])
        if [_reduce_row(ring, f, row) for row, f in zip(composite, nodes[t].factors)] \
                != _nonzero_rows(ring, leg.matrix):
            raise ShapeError("limit factorization verification failed")
    return s


def _free_legs(eq, s, domain):
    """The map domain -> F, on the normal form of F, whose rows on F's
    concatenated generators are the sparse ``s``."""
    ring = domain.ring
    zero, width = ring.zero(), domain.ngens
    rows = tuple(tuple(row.get(j, zero) for j in range(width)) for row in s)
    free_sum = eq.free_sum
    return Morphism(domain, free_sum.module, change_basis(ring, free_sum.to_norm, rows, None))


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


def _counted_cone(diagram, legs, domain):
    """(eq, s, onto, injective) for the map from ``domain`` into the limit
    of ``diagram`` given by the cone ``legs``.

    With s: domain -> F the legs to the free nodes (sparse rows, see
    :func:`_cone_on_forest`) and delta: F -> T the difference map of
    :func:`_limit_equations`, the limit is ker delta and contains im s.  So
    the map is onto iff im s = ker delta, that is iff coker s and coker
    delta together have the size of T; and, ker delta -> F being mono, it is
    injective iff s is, that is iff the domain and coker s together have
    the size of F.  A size (:func:`_size`) is a length over a field or a
    chain ring and an order over the integers with torsion nodes: two
    sparse eliminations on the rows of s and delta that read only the
    diagonal (:func:`_cokernel_of_rows`).  Over the integers with a free
    node sizes do not decide, and ``onto`` and ``injective`` are None.  A
    family that is not a cone raises ShapeError.
    """
    ring = diagram.ring
    eq = _limit_equations(diagram)
    s = _cone_on_forest(eq, legs, domain)
    if ring.kind == INTEGERS and any(node.rank for node in diagram.nodes):
        return eq, s, None, None
    coker_s = _cokernel_of_rows(ring, s, eq.free_orders, domain.ngens)
    coker_delta = _cokernel_of_rows(ring, eq.rows, eq.target_orders, len(eq.free_orders))
    onto = _size(ring, coker_s.factors + coker_delta.factors) == _size(ring, eq.target_orders)
    injective = _size(ring, domain.factors + coker_s.factors) == _size(ring, eq.free_orders)
    return eq, s, onto, injective


def _witness(eq, s, domain):
    """s as a map into the kernel of the dense delta, as on
    :func:`finite_limit`."""
    return factor_through_mono(kernel_data(eq.delta)[1], _free_legs(eq, s, domain))


def limit_cokernel(diagram, legs, domain):
    """The cokernel of the map from ``domain`` into the limit of ``diagram``
    given by the cone ``legs``: zero iff that map is onto.

    An onto map is recognized by counting (:func:`_counted_cone`).
    Otherwise (a map that is not onto, or Z with a free node) the cokernel
    is that of s as a map into ker delta, as on :func:`finite_limit`.
    """
    eq, s, onto, _ = _counted_cone(diagram, legs, domain)
    if onto:
        return Module.zero(diagram.ring)
    return cokernel_module(_witness(eq, s, domain))


def limit_is_iso(diagram, legs, domain):
    """Whether the map from ``domain`` into the limit of ``diagram`` given
    by the cone ``legs`` is an isomorphism, without building the limit.

    It is iff it is onto and injective, both counted (:func:`_counted_cone`);
    over Z with a free node the map into ker delta is analyzed instead.  A
    family that is not a cone raises ShapeError.
    """
    eq, s, onto, injective = _counted_cone(diagram, legs, domain)
    if onto is None:
        return analyze(_witness(eq, s, domain)).is_iso
    return onto and injective


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
    rows = tuple(tuple(x for i in colimit.free for x in legs[i].matrix[r])
                 for r in range(codomain.ngens))
    stacked = Morphism(ds.module, codomain,
                       change_basis(colimit.module.ring, None, rows, ds.from_norm))
    u = factor_through_epi(colimit.projection, stacked)
    for coc, leg in zip(colimit.cocone, legs):
        if u.compose(coc).matrix != leg.matrix:
            raise ShapeError("colimit factorization verification failed")
    return u


def image_equals_kernel(incl, proj):
    """Exactness of  A --incl--> B --proj--> C  at B, decided constructively."""
    if not proj.compose(incl).is_zero_map:
        return False
    ker_incl = analyze(proj).kernel_inclusion
    try:
        u = factor_through_mono(ker_incl, incl)
    except ShapeError:
        return False
    return analyze(u).surjective
