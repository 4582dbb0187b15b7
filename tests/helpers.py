"""Helpers shared by the test suites.

Finite-difference gradient machinery for the trainer and acceptance suites:
nudge one parameter, recompute the instantaneous cost, and compare the
central-difference gradient against the increment sgd_step actually applied.
replay_fit runs fit's schedule one sgd_step at a time, the reference for its
block engine and its adaptive loop. run_python and run_corbf run this
checkout's corbf in a child process.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import corbf
from corbf.errors import DivergenceError
from corbf.model import (AdaptiveFusion, CoFusion, MultiHeadRbfModel, RbfModel,
                         forward, forward_batch)
from corbf.trainer import DIVERGENCE_LIMIT, sgd_step


def perturbed_cost(model, x, d, kind, index, delta):
    """Instantaneous cost 0.5 e^2 with one parameter nudged by delta."""
    probe = model.copy()
    if kind == "w":
        w = np.array(probe.weights, copy=True)
        w[index] += delta
        probe = RbfModel(probe.bank, probe.mode, w, bias=probe.bias)
    elif kind == "b":
        probe = RbfModel(probe.bank, probe.mode, probe.weights, bias=probe.bias + delta)
    elif kind == "ag":
        probe = RbfModel(probe.bank,
                         AdaptiveFusion(probe.mode.alpha_gaussian + delta,
                                        probe.mode.alpha_cosine),
                         probe.weights, bias=probe.bias)
    elif kind == "ac":
        probe = RbfModel(probe.bank,
                         AdaptiveFusion(probe.mode.alpha_gaussian,
                                        probe.mode.alpha_cosine + delta),
                         probe.weights, bias=probe.bias)
    e = d - forward(probe, x)
    return 0.5 * e * e


def check_gradients(model, x, d, eta, rtol, h=1e-6, alpha_eta=None):
    """Assert every applied increment equals -eta times the central
    finite-difference gradient of the instantaneous cost."""
    params = [("b", None)]
    if isinstance(model.mode, CoFusion):
        params += [("w", (k, l)) for k in range(model.bank.n_centers)
                   for l in range(model.bank.n_kernels)]
    else:
        params += [("w", (k,)) for k in range(model.bank.n_centers)]
    if isinstance(model.mode, AdaptiveFusion):
        params += [("ag", None), ("ac", None)]

    grads = {}
    for kind, index in params:
        up = perturbed_cost(model, x, d, kind, index, h)
        down = perturbed_cost(model, x, d, kind, index, -h)
        grads[(kind, index)] = (up - down) / (2.0 * h)

    before = model.copy()
    work = model.copy()
    e = sgd_step(work, x, d, eta=eta, alpha_eta=alpha_eta)
    assert np.isfinite(e)
    a_eta = eta if alpha_eta is None else alpha_eta
    for (kind, index), g in grads.items():
        if kind == "b":
            applied = work.bias - before.bias
            step = eta
        elif kind == "w":
            applied = work.weights[index] - before.weights[index]
            step = eta
        elif kind == "ag":
            applied = work.mode.alpha_gaussian - before.mode.alpha_gaussian
            step = a_eta
        else:
            applied = work.mode.alpha_cosine - before.mode.alpha_cosine
            step = a_eta
        np.testing.assert_allclose(applied, -step * g, rtol=rtol, atol=1e-9,
                                   err_msg=f"parameter {kind}{index}")


def replay_fit(model, X, D, cfg):
    """fit's schedule for any fusion mode, one sgd_step per sample and head.

    Draws the initial weights and each epoch's order from the same seed-derived
    streams as fit, trains model in place and returns the per-epoch training
    MSE; adaptive coefficients train from their current values at
    cfg.alpha_eta. D is (S,) for one head, (C, S) for C heads. A divergence
    raises as fit documents it: first failing sample, 1-based epoch and
    training-set index, and the error of largest magnitude over the heads.
    """
    heads = model.heads if isinstance(model, MultiHeadRbfModel) else [model]
    D = np.atleast_2d(np.asarray(D, dtype=np.float64))
    init_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_init = np.random.default_rng(init_ss)
    rng_shuffle = np.random.default_rng(shuffle_ss)
    if cfg.init != "keep":
        for h in heads:
            n = 1 + h.weights.size
            draw = (rng_init.uniform(-cfg.init_scale, cfg.init_scale, size=n)
                    if cfg.init == "uniform" else np.zeros(n))
            h.bias = float(draw[0])
            h.weights = (draw[1:].reshape(h.weights.T.shape).T.copy()
                         if isinstance(h.mode, CoFusion) else draw[1:].copy())
    S = X.shape[1]
    mse = []
    for t in range(cfg.epochs):
        order = rng_shuffle.permutation(S) if cfg.shuffle else range(S)
        for s in order:
            errors = []
            for c, h in enumerate(heads):
                try:
                    errors.append(sgd_step(h, X[:, s], D[c, s], cfg.eta,
                                           cfg.alpha_eta))
                except DivergenceError as exc:
                    errors.append(exc.error_value)
            errors = np.array(errors)
            if not np.all(np.abs(errors) <= DIVERGENCE_LIMIT):
                raise DivergenceError(t + 1, int(s) + 1,
                                      float(errors[np.argmax(np.abs(errors))]))
        Y = np.array([forward_batch(h, X) for h in heads])
        mse.append(float(np.mean((D - Y) ** 2)))
    return np.array(mse)


def run_python(*args, timeout=300):
    """`python ARGS` in a child process, with the directory the test suite
    imported corbf from first on its PYTHONPATH, so the child runs the same
    code as the suite and not whatever `corbf` is installed."""
    env = dict(os.environ)
    src = str(Path(corbf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def run_corbf(*args, timeout=300):
    """`python -m corbf ARGS` through run_python, so the child runs this
    checkout's front end and not whatever `corbf` is on PATH."""
    return run_python("-m", "corbf", *args, timeout=timeout)
