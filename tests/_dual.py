"""Forward-mode dual numbers over complex numpy arrays.

Just enough operator support for the polynomial maps of quintic_flow:
value is an array of shape (n,), derivative an array of shape (n, m) for m
seed directions.  Used to get machine-exact Jacobians without step-size
tuning.
"""
from __future__ import annotations

import numpy as np


class Dual:
    __array_priority__ = 100  # beat ndarray in mixed binary ops

    def __init__(self, val, der):
        self.val = np.asarray(val, dtype=complex)
        self.der = np.asarray(der, dtype=complex)

    @classmethod
    def seed(cls, x) -> "Dual":
        x = np.asarray(x, dtype=complex)
        return cls(x, np.eye(len(x), dtype=complex))

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        other = np.asarray(other, dtype=complex)
        return Dual(other, np.zeros(other.shape + self.der.shape[-1:], dtype=complex))

    def __add__(self, other):
        o = self._coerce(other)
        return Dual(self.val + o.val, self.der + o.der)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.der)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return Dual(self.val * o.val,
                    self.der * o.val[..., None] + o.der * self.val[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        inv = 1.0 / o.val
        val = self.val * inv
        der = (self.der - o.der * val[..., None]) * inv[..., None]
        return Dual(val, der)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 1:
            raise ValueError("only positive integer powers")
        val = self.val ** k
        der = k * (self.val ** (k - 1))[..., None] * self.der
        return Dual(val, der)

    def __rmatmul__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        return Dual(mat @ self.val, np.tensordot(mat, self.der, axes=(1, 0)))

    def sum(self, axis):
        if axis != 0:
            raise ValueError("dual numbers sum over the coordinate axis 0 only")
        return Dual(self.val.sum(), self.der.sum(axis=0))


def jacobian(f, x) -> np.ndarray:
    """Jacobian matrix of a vector polynomial map at x via dual numbers."""
    out = f(Dual.seed(x))
    return out.der
