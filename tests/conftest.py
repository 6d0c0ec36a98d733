"""Shared fixtures: tiny datasets, tiny networks, gradient-check helpers."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.data import make_mnist_like, standardize, standardize_like
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Network


@pytest.fixture(scope="session")
def mnist_tiny():
    """Small, easy MNIST-like pair (normalized), shared across tests."""
    train, test = make_mnist_like(n_train=512, n_test=256, seed=11, difficulty=0.8)
    mean, std = standardize(train)
    standardize_like(test, mean, std)
    return train, test


@pytest.fixture()
def fast_config():
    """A TrainerConfig tuned for speed in tests."""
    return TrainerConfig(batch_size=16, lr=0.05, rho=2.0, seed=0, eval_every=10, eval_samples=128)


@pytest.fixture()
def nearly_full_dev_shm(monkeypatch):
    """A context manager under which ``os.statvfs`` reports one free block
    (in this process only: workers forked earlier keep the real one)."""
    real = os.statvfs

    def nearly_full(path):
        vfs = real(path)
        return os.statvfs_result((*vfs[:4], 1, *vfs[5:]))  # f_bavail

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(os, "statvfs", nearly_full)
            yield

    return patched


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar f wrt array x (float64 math)."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def check_network_gradients(
    net: Network, x: np.ndarray, target: np.ndarray, rtol: float = 5e-2, atol: float = 1e-4
) -> None:
    """Finite-difference check of the packed parameter gradient AND the
    input gradient against analytic backprop, on an MSE head."""
    loss = MeanSquaredError()

    def forward_loss() -> float:
        return loss.forward(net.forward(x, training=False), target)

    # analytic
    net.zero_grads()
    out = net.forward(x, training=True)
    loss.forward(out, target)
    dx = net.backward(loss.backward())
    analytic_param = net.grads.copy()

    numeric_param = numeric_gradient(forward_loss, net.params)
    np.testing.assert_allclose(analytic_param, numeric_param, rtol=rtol, atol=atol)

    numeric_input = numeric_gradient(forward_loss, x)
    np.testing.assert_allclose(dx, numeric_input, rtol=rtol, atol=atol)
