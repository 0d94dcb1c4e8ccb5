"""Dual-number scalars, vectors, and matrices.

A dual number is written p = p_s + p_i * eps with eps**2 = 0.  The standard
part p_s and the infinitesimal part p_i are ordinary floats; comparisons use
the lexicographic total order on (standard, infinitesimal).  DualVector and
DualMatrix hold read-only arrays and take everything but indexing, shape and
products from one private base.  All values are immutable after construction
and every operation is a pure function, so the types are thread-safe.

The public constructors copy both parts, C-ordered, so a container never
shares memory with a caller's array, writable or read-only.  Only arrays the
library has just built and holds no other writable reference to, such as
the snapshot pair of ``fitting.build_snapshots``, go in without a copy
(``_DualArray._owned``); they get the same checks and are marked read-only,
and they may be views with a wider row stride.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys

import numpy as np

# dm_inverse refuses standard parts whose condition number exceeds this.
CONDITION_LIMIT = 1e12
# dm_is_orthogonal's bound on the Frobenius errors it tests.
ORTHOGONAL_TOL = 1e-10

_LN2 = math.log(2.0)


def _as_finite_array(a, name: str, copy: bool) -> np.ndarray:
    """a as a read-only float array after checking that it is finite: a new
    C-ordered copy, or with copy False, a itself when it is a float array."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    if copy:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _coerced(method):
    """An operator method given its scalar operand as a DualScalar
    (DualScalar._coerce); NotImplemented for any other operand."""
    def wrapper(self, other):
        o = DualScalar._coerce(other)
        return NotImplemented if o is None else method(self, o)

    return wrapper


def _ordered(op):
    """DualScalar comparison: op on the _key()s of the coerced operands."""
    @_coerced
    def method(self, o):
        return op(self._key(), o._key())

    return method


class DualScalar:
    """A dual number with float components and total-order comparisons."""

    __slots__ = ("_s", "_i")

    def __init__(self, s: float, i: float = 0.0):
        finite = (-math.inf, math.inf, "()")
        object.__setattr__(self, "_s", check_real(s, "standard part", *finite))
        object.__setattr__(self, "_i", check_real(i, "infinitesimal part", *finite))

    @property
    def s(self) -> float:
        return self._s

    @property
    def i(self) -> float:
        return self._i

    def __setattr__(self, name, value):
        raise AttributeError("DualScalar is immutable")

    def __repr__(self) -> str:
        return f"DualScalar({self._s!r}, {self._i!r})"

    @staticmethod
    def _coerce(other) -> "DualScalar | None":
        if isinstance(other, DualScalar):
            return other
        if isinstance(other, bool):  # refused, as DualScalar(True) is
            return None
        if isinstance(other, (int, float, np.integer, np.floating)):
            return DualScalar(float(other), 0.0)
        return None

    # arithmetic with eps**2 = 0

    @_coerced
    def __add__(self, o):
        return DualScalar(self._s + o._s, self._i + o._i)

    __radd__ = __add__

    @_coerced
    def __sub__(self, o):
        return DualScalar(self._s - o._s, self._i - o._i)

    @_coerced
    def __rsub__(self, o):
        return o - self

    @_coerced
    def __mul__(self, o):
        return DualScalar(self._s * o._s, self._s * o._i + self._i * o._s)

    __rmul__ = __mul__

    def __neg__(self):
        return DualScalar(-self._s, -self._i)

    def __pos__(self):
        return self

    # lexicographic total order (Def of the dual-number order)

    def _key(self) -> tuple:
        return (self._s, self._i)

    __eq__ = _ordered(operator.eq)
    __lt__ = _ordered(operator.lt)
    __le__ = _ordered(operator.le)
    __gt__ = _ordered(operator.gt)
    __ge__ = _ordered(operator.ge)

    def __hash__(self):
        # With no infinitesimal part it equals, so hashes as, its standard part.
        return hash(self._s) if self._i == 0.0 else hash(self._key())


def dual_abs(a: DualScalar) -> DualScalar:
    """Dual absolute value.

    |a_s + a_i eps| is |a_s| + sign(a_s) a_i eps away from zero and |a_i| eps
    at a_s = 0 (the one-sided derivative of |t a_i| at t = 0+).  The branch
    tests a_s == 0 exactly; quantize noisy inputs first if needed.
    """
    if a.s != 0.0:
        sign = 1.0 if a.s > 0 else -1.0
        return DualScalar(abs(a.s), sign * a.i)
    return DualScalar(0.0, abs(a.i))


def dual_pow(a: DualScalar, p: float) -> DualScalar:
    """Dual power (a_s + a_i eps)**p for finite real p >= 1.

    a_s**p + p a_s**(p-1) a_i eps for every a_s >= 0.  At a_s = 0 that is
    a_i eps when p == 1 (0**0 = 1) and 0 when p > 1, the one-sided
    derivatives of (t a_i)**p; with a_i < 0 and p > 1 the infinitesimal
    part is -0.0, which equals 0.0 and hashes as it does.  Raises ValueError
    for a_s < 0 (fractional powers of negative bases leave the reals).
    """
    p = check_real(p, "p", 1.0)
    if a.s < 0.0:
        raise ValueError("dual_pow requires a nonnegative standard part")
    return DualScalar(a.s**p, p * a.s ** (p - 1.0) * a.i)


def dual_root(a: DualScalar, p: float) -> DualScalar:
    """Dual p-th root for a_s > 0: a_s**(1/p) + (1/p) a_s**(1/p-1) a_i eps."""
    p = check_real(p, "p", 1.0, math.inf, "[]")
    if a.s <= 0.0:
        raise ValueError("dual_root requires a positive standard part")
    inv = 1.0 / p
    return DualScalar(a.s**inv, inv * a.s ** (inv - 1.0) * a.i)


def dual_log2(a: DualScalar) -> DualScalar:
    """Dual base-2 logarithm with the zero conventions used by EI.

    a_s > 0            -> log2(a_s) + a_i / (a_s ln 2) eps
    a_s == 0, a_i > 0  -> log2(a_i) eps
    a == 0             -> 0
    Anything else (a_s < 0, or a_s == 0 with a_i < 0) is a domain error.
    """
    if a.s > 0.0:
        return DualScalar(math.log2(a.s), a.i / (a.s * _LN2))
    if a.s == 0.0:
        if a.i > 0.0:
            return DualScalar(0.0, math.log2(a.i))
        if a.i == 0.0:
            return DualScalar(0.0, 0.0)
    raise ValueError(f"dual_log2 undefined for {a!r}")


class _DualArray:
    """Read-only (standard, infinitesimal) arrays of _ndim dimensions and the
    algebra DualVector and DualMatrix share; + and - need the same type."""

    __slots__ = ("_s", "_i")

    def __init__(self, s, i=None):
        self._hold(s, i, copy=True)

    @classmethod
    def _owned(cls, s: np.ndarray, i: np.ndarray):
        """The container of float arrays (or views) that the library has just
        built and writes no more: the constructor's checks, without its
        copies.  The arrays are marked read-only in place."""
        arr = object.__new__(cls)
        arr._hold(s, i, copy=False)
        return arr

    def _hold(self, s, i, copy: bool) -> None:
        s_arr = _as_finite_array(s, "standard part", copy)
        if s_arr.ndim != self._ndim:
            raise ValueError(f"{type(self).__name__} parts must be {self._dims}")
        if i is None:
            i_arr = np.zeros_like(s_arr)
            i_arr.setflags(write=False)
        else:
            i_arr = _as_finite_array(i, "infinitesimal part", copy)
        if i_arr.shape != s_arr.shape:
            raise ValueError(f"shape mismatch: {s_arr.shape} vs {i_arr.shape}")
        object.__setattr__(self, "_s", s_arr)
        object.__setattr__(self, "_i", i_arr)

    @property
    def s(self) -> np.ndarray:
        return self._s

    @property
    def i(self) -> np.ndarray:
        return self._i

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(self._s + other._s, self._i + other._i)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(self._s - other._s, self._i - other._i)

    @_coerced
    def __mul__(self, c):
        return type(self)(c.s * self._s, c.s * self._i + c.i * self._s)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self._s, -self._i)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(s={self._s!r}, i={self._i!r})"


class DualVector(_DualArray):
    """Pair of equal-length real vectors (standard, infinitesimal)."""

    __slots__ = ()
    _ndim, _dims = 1, "one-dimensional"

    def __len__(self) -> int:
        return self._s.shape[0]

    def __getitem__(self, k):
        """Entry k as a DualScalar; a slice gives a DualVector."""
        if isinstance(k, slice):
            return DualVector(self._s[k], self._i[k])
        return DualScalar(self._s[k], self._i[k])


class DualMatrix(_DualArray):
    """Pair of equal-shape real matrices (standard, infinitesimal)."""

    __slots__ = ()
    _ndim, _dims = 2, "two-dimensional"

    @property
    def shape(self) -> tuple:
        return self._s.shape

    @property
    def T(self) -> "DualMatrix":
        return DualMatrix(self._s.T, self._i.T)

    def __matmul__(self, other):
        if not isinstance(other, (DualVector, DualMatrix)):
            return NotImplemented
        shape = other.s.shape
        if self.shape[1] != shape[0]:
            raise ValueError(f"inner dimensions mismatch: {self.shape} @ {shape}")
        # (A_s B_s) + (A_s B_i + A_i B_s) eps; the A_i B_i term carries eps**2.
        return type(other)(
            self._s @ other.s,
            self._s @ other.i + self._i @ other.s,
        )


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part (m + m.T) / 2."""
    return 0.5 * (m + m.T)


def skew(m: np.ndarray) -> np.ndarray:
    """Antisymmetric part (m - m.T) / 2."""
    return 0.5 * (m - m.T)


def check_square(a, name: str) -> None:
    """Raise ValueError unless a is an n x n array, dual matrix or Decomposition."""
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} needs a square matrix, got shape {shape}")


def check_integer(value, name: str, low: int, high: int | None = None) -> int:
    """value as an int; raises ValueError naming the argument unless value is
    an integer (a Python or numpy int; a bool is not one) in low..high, or
    >= low with no high."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {span}, got {value}")
    return int(value)


def check_real(value, name: str, low: float, high=math.inf, bounds="[)") -> float:
    """value as a float; raises ValueError naming the argument unless value is
    a real number (a Python or numpy int or float; a bool is not one) between
    low and high, each end closed or open as bounds says: "[)", "[]" or "()".
    A Python int past the float range counts as the infinity of its sign."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        value = math.inf if value > 0 else -math.inf
    above = value >= low if bounds[0] == "[" else value > low
    below = value <= high if bounds[1] == "]" else value < high
    if not (above and below):
        span = f"{bounds[0]}{low:g}, {high:g}{bounds[1]}"
        raise ValueError(f"{name} must be in {span}, got {value}")
    return float(value)


def dm_inverse(a: DualMatrix) -> DualMatrix:
    """Inverse of a square dual matrix: A_s^-1 - A_s^-1 A_i A_s^-1 eps.

    Raises numpy.linalg.LinAlgError when A_s is singular or its condition
    number exceeds CONDITION_LIMIT.
    """
    check_square(a, "dual inverse")
    cond = np.linalg.cond(a.s)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise np.linalg.LinAlgError(
            f"standard part too ill-conditioned to invert (cond ~ {cond:.3e})"
        )
    s_inv = np.linalg.inv(a.s)
    return DualMatrix(s_inv, -s_inv @ a.i @ s_inv)


def dm_is_orthogonal(a: DualMatrix) -> bool:
    """True when A^T A = I in dual arithmetic, to ORTHOGONAL_TOL in the
    Frobenius norm: G = A^T A has ||G_s - I|| and ||G_i|| / 2, the norm of
    sym(A_s^T A_i), each within it."""
    m, n = a.shape
    if m != n:
        return False
    g = a.T @ a
    eye_err = np.linalg.norm(g.s - np.eye(n))
    return bool(eye_err <= ORTHOGONAL_TOL and 0.5 * np.linalg.norm(g.i) <= ORTHOGONAL_TOL)
