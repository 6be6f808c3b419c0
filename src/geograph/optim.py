"""Named parameter sets with Adam updates and Glorot initialization."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, constant, parameter
from .errors import ArgumentError, ShapeError


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class ParamSet(dict[str, Tensor]):
    """Trainable tensors by name plus their Adam state, alive only while a
    model trains. Every parameter owns a gradient slot of identical shape
    (materialized by ``zero_grads``) and first/second moment buffers; one step
    counter is shared. ``constants`` hands the trained arrays on without them.

    ``add`` holds float64 values; ``cast`` changes the whole set's dtype,
    moments included, and every update keeps the dtype it finds."""

    def __init__(self) -> None:
        super().__init__()
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self:
            raise ArgumentError(f"duplicate parameter name {name!r}")
        t = parameter(np.array(data, dtype=np.float64), name=name)
        self[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
        return t

    def cast(self, dtype) -> None:
        """Hold every parameter and moment as ``dtype`` from now on."""
        for name, p in self.items():
            p.data = p.data.astype(dtype, copy=False)
            self._m[name] = self._m[name].astype(dtype, copy=False)
            self._v[name] = self._v[name].astype(dtype, copy=False)

    def names(self) -> list[str]:
        return list(self)

    def zero_grads(self) -> None:
        for t in self.values():
            t.grad = np.zeros_like(t.data)

    def adam_step(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        """Bias-corrected first/second moment update; missing grads act as zero."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for name, p in self.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter {p.data.shape}")
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    def constants(self) -> dict[str, Tensor]:
        """Each parameter's current array, not copied, as a constant tensor."""
        return {name: constant(p.data, name) for name, p in self.items()}

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            p = self[name]
            arr = np.asarray(arr, dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ShapeError(f"cannot load {name}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.copy()
