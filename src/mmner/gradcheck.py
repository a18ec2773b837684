"""Finite-difference gradient checking.

Central differences with step h = DEFAULT_H are the independent oracle
for every analytic gradient in this package. The error measure is
|a - b| / max(1, |a|, |b|), i.e. absolute for small gradients and
relative for large ones, so the h^2 truncation error of the central
difference dominates the comparison at any scale.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from mmner.autodiff import Tensor, backward, no_grad

DEFAULT_H = 1e-4


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


def numeric_gradient(f: Callable[[], float], param: Tensor) -> np.ndarray:
    """Central finite differences (step DEFAULT_H) of scalar f() wrt every entry of param.

    f must re-run the forward pass from current parameter values; param.data
    is perturbed in place and restored, each write counted by `touch()` so
    the model's encode memo sees it.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + DEFAULT_H
        param.touch()
        f_plus = f()
        flat[i] = orig - DEFAULT_H
        param.touch()
        f_minus = f()
        flat[i] = orig
        param.touch()
        gflat[i] = (f_plus - f_minus) / (2.0 * DEFAULT_H)
    return grad


def check_gradients(f: Callable[[], Tensor], params: Mapping[str, Tensor]) -> dict[str, float]:
    """Compare analytic grads of scalar loss f() against central differences.

    Returns the error per parameter name. Analytic gradients are taken from
    one forward+backward; numeric ones re-evaluate f per entry under no_grad.
    """
    for p in params.values():
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    def scalar_f() -> float:
        with no_grad():
            return f().item()

    errors = {}
    for name, p in params.items():
        numeric = numeric_gradient(scalar_f, p)
        errors[name] = rel_error(analytic[name], numeric)
    for p in params.values():
        p.zero_grad()
    return errors
