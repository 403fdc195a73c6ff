"""Exact arithmetic in GF(q), q = p^e, on integer-coded elements.

An element is an integer in [0, q) whose base-p digits are the coefficients
of the residue polynomial, constant term least significant.  For e = 1 a
code is simply the residue mod p.  Code 0 is the additive identity and
code 1 the multiplicative identity in every field.

The reduction modulus is the lexicographically smallest monic irreducible
polynomial of degree e over F_p, comparing coefficient tuples from the
constant term upward, so element encodings are reproducible across runs.
GF(4) gets x^2 + x + 1.  For e = 1 the modulus is the degree-1 polynomial
x, under which "residue polynomial" degenerates to the residue mod p.

The vector routines share one arithmetic path for every q: scoring, the
kernel mask and the oracle each call ``matmul``, the package's only
product over GF(q).  An element is its e digits over F_p, and multiplying
by a fixed element is its e-by-e matrix over F_p (the regular
representation), so a product of code matrices over GF(q) is an integer
matmul of digits against the block-expanded right operand, reduced mod p,
one output digit at a time (``matmul``).  The digits and matrices of all
q elements come from one cached table pair; for e = 1 the digits are the
codes and the expansion is the matrix itself.  Every digit product is a
sum of nonnegative terms, so at p = 2 (GF(2) and every GF(2^e)) the
reduction is a mask, ``& 1``, which costs a fraction of the integer
division of ``% p``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .config import Q_CAP


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _poly_mod(a, mod, p):
    """Remainder of a modulo the monic polynomial mod, coefficients mod p."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return a[:dm]


def _poly_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not any(_poly_mod(poly, divisor, p)):
                return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, e: int) -> tuple:
    """Monic irreducible of degree e over F_p, smallest by (c0, c1, ...)."""
    if e == 1:
        return (0, 1)
    for coeffs in product(range(p), repeat=e):
        poly = coeffs + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {e} over F_{p}")


class Field:
    """GF(p^e) with a fixed total order on elements (their integer codes)."""

    __slots__ = ("p", "e", "q", "modulus")

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        if p ** min(e, Q_CAP.bit_length()) > Q_CAP:  # no huge power for a huge e
            raise ValueError(f"q = {p}^{e} exceeds the supported cap {Q_CAP}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = smallest_irreducible(p, e)

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def elements(self) -> range:
        """All element codes in their canonical order."""
        return range(self.q)

    def _check(self, a):
        if not 0 <= a < self.q:
            raise ValueError(f"element code {a} out of range for GF({self.q})")
        return a

    def digits(self, a: int) -> tuple:
        """Base-p digits of a, constant coefficient first, length e."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, digits) -> int:
        a = 0
        for d in reversed(tuple(digits)):
            a = a * self.p + d % self.p
        return a

    def add(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        self._check(a)
        if self.e == 1:
            return (-a) % self.p
        return self.encode((-d) % self.p for d in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.digits(a), self.digits(b), self.p)
        return self.encode(_poly_mod(prod, self.modulus, self.p))

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        # a^(q-2) by square and multiply; q <= 2^16 keeps this short.
        result, base, n = 1, a, self.q - 2
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result


def field_new(p: int, e: int = 1) -> Field:
    """Construct GF(p^e) with the canonical modulus; p must be prime."""
    return Field(p, e)


@lru_cache(maxsize=16)
def _op_tables(p: int, e: int):
    """(digits, mats) of GF(p^e), the only arithmetic the vector code uses.

    digits is (q, e): the base-p digits of every code, constant first.
    mats is (q, e, e): mats[a] is the F_p matrix of x -> a x, so that
    mats[a] @ digits[b] % p == digits[a b].  Its column j holds the digits
    of a x^j, each column the previous one shifted up a degree and reduced
    by the modulus, for all q codes at once.  Both are frozen and shared.
    """
    q = p**e
    digits = (np.arange(q, dtype=np.int64)[:, None] // p ** np.arange(e)) % p
    low = -np.asarray(smallest_irreducible(p, e)[:e], dtype=np.int64) % p
    mats = np.empty((q, e, e), dtype=np.int64)
    mats[:, :, 0] = digits
    for j in range(1, e):
        prev = mats[:, :, j - 1]
        shifted = np.roll(prev, 1, axis=1)  # times x; the top digit wraps
        shifted[:, 0] = 0
        mats[:, :, j] = (shifted + prev[:, -1:] * low) % p  # x^e = sum low[i] x^i
    digits.setflags(write=False)
    mats.setflags(write=False)
    return digits, mats


def to_digits(field: Field, a: np.ndarray) -> np.ndarray:
    """(..., s) codes as (..., s e) F_p digits, entry j's digit i at j e + i.

    Over a prime field the digits are the codes themselves.
    """
    if field.e == 1:
        return a
    digits, _ = _op_tables(field.p, field.e)
    return digits[a].reshape(a.shape[:-1] + (a.shape[-1] * field.e,))


def fp_matrix(field: Field, b: np.ndarray) -> np.ndarray:
    """(..., s, t) codes as the (..., s e, e t) F_p matrix of x -> x b.

    to_digits(x) @ fp_matrix(b) % p holds the digits of x b digit major:
    digit d of column l sits at d t + l, so each digit is one contiguous
    block of t columns.  Block (j, l) is mats[b[j, l]] transposed.  The
    result is the transpose of a C-ordered array, the layout numpy's
    integer matmul reads fastest as a right operand.
    """
    if field.e == 1:
        return b
    e = field.e
    _, mats = _op_tables(field.p, e)
    s, t = b.shape[-2:]
    blocks = mats[np.swapaxes(b, -1, -2)]  # (..., l, j, d, i)
    blocks = np.moveaxis(blocks, -2, -4)  # (..., d, l, j, i)
    return blocks.reshape(b.shape[:-2] + (e * t, s * e)).swapaxes(-1, -2)


def _reduce(x: np.ndarray, p: int):
    """x mod p in place, for x >= 0; a mask at p = 2, which is cheaper
    than the integer division of ``%``."""
    if p == 2:
        x &= 1
    else:
        x %= p


def matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(q) on codes; a is (..., s), b is (..., s, t), batch
    dimensions broadcast.  Taken one output digit at a time: digit d,
    reduced mod p into one reused array, is added at weight p^d into the
    first digit's, so a call holds the result and at most one digit."""
    left, right = to_digits(field, a), fp_matrix(field, b)
    p, t = field.p, b.shape[-1]
    out = left @ right[..., :t]
    _reduce(out, p)
    digit = np.empty_like(out) if field.e > 1 else None
    for d in range(1, field.e):
        np.matmul(left, right[..., d * t : (d + 1) * t], out=digit)
        _reduce(digit, p)
        digit *= p**d
        out += digit
    return out
