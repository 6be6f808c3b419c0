"""Named parameter sets with Adam updates and Glorot initialization."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, constant, parameter
from .errors import ArgumentError, ShapeError

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class ParamSet(dict[str, Tensor]):
    """Trainable tensors by name plus their Adam state, alive only while a
    model trains. Every parameter owns a gradient slot of identical shape,
    which ``zero_grads`` empties for ``backward`` to fill, and first/second
    moment buffers; one step counter is shared. ``constants`` hands the
    trained arrays on without them.

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

    def zero_grads(self) -> None:
        """Empty every gradient slot: ``backward`` then stores each first
        gradient as it is, and ``adam_step`` reads an empty slot as zero."""
        for t in self.values():
            t.grad = None

    def adam_step(self, lr: float) -> None:
        """Bias-corrected first/second moment update; missing grads act as zero.

        Each parameter's update runs in two scratch arrays, in the order of
        ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)``."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter {p.data.shape}")
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            step = np.multiply(g, 1.0 - BETA1)
            m += step
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=step)
            step *= g
            v += step
            np.divide(m, bc1, out=step)
            step *= lr
            root = np.divide(v, bc2)
            np.sqrt(root, out=root)
            root += EPS
            step /= root
            p.data -= step

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
