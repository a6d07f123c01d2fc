"""Nonlinear least squares: the MINPACK Levenberg-Marquardt outer loop in numpy.

A port of ``lmder`` (Moré, "The Levenberg-Marquardt algorithm:
implementation and theory", Lecture Notes in Mathematics 630, 105 (1978))
for problems with a handful of parameters and an analytic Jacobian. The
outer loop, with its column-norm scaling, trust-region updates,
convergence tests and info codes, follows ``lmder``. The trust-region
subproblem (``lmpar``) is solved from the eigendecomposition of the scaled
normal matrix rather than from a pivoted QR factorization, which for k <= 8
parameters costs one small ``eigh`` per Jacobian.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from numpy.typing import NDArray

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def levenberg_marquardt(
    fun: Callable[[NDArray], NDArray],
    jac: Callable[[NDArray], NDArray],
    x0,
    *,
    ftol: float,
    xtol: float,
    gtol: float = 0.0,
    maxfev: int,
) -> tuple[NDArray[np.float64], int]:
    """Minimize ||fun(x)||^2 from ``x0``.

    ``jac(x)`` returns the transposed Jacobian, k x m with one row per
    parameter (MINPACK's ``col_deriv``), which numpy reduces faster.

    Returns the solution and MINPACK's info code: 1 the relative reduction
    of the sum of squares is at most ``ftol`` (actual and predicted), 2 the
    relative trust-region size is at most ``xtol``, 3 both, 4 the residual
    is orthogonal to every Jacobian column within ``gtol`` (also returned
    at once for a zero residual), 5 ``maxfev`` evaluations of ``fun`` were
    spent, 6-8 ``ftol``, ``xtol`` or ``gtol`` is below machine precision.
    Codes 1-4 mean convergence.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    nfev = 1
    fnorm = _norm(f)
    par = 0.0
    first = True  # no step accepted yet
    while True:
        if fnorm == 0.0:
            return x, 4
        jt = jac(x)
        g = jt @ f
        gram = jt @ jt.T
        acnorm = np.sqrt(np.diag(gram))
        if first:
            diag = np.where(acnorm == 0.0, 1.0, acnorm)
            xnorm = _norm(diag * x)
            delta = 100.0 * xnorm if xnorm else 100.0
        scaled = acnorm != 0.0
        gnorm = np.max(np.abs(g[scaled]) / acnorm[scaled], initial=0.0) / fnorm
        if gnorm <= gtol:
            return x, 4
        diag = np.maximum(diag, acnorm)

        # scaled normal equations (S + par I) y = -c in the eigenbasis of S,
        # with the step p = y / diag and ||diag p|| = ||y||
        s, v = np.linalg.eigh(gram / np.outer(diag, diag))
        s = np.maximum(s, 0.0)
        c = v.T @ (g / diag)
        while True:
            par, q = _lm_parameter(s, c, delta, par)
            step = -(v @ q) / diag
            pnorm = _norm(q)
            if first:
                delta = min(delta, pnorm)
            trial = x + step
            f_trial = fun(trial)
            nfev += 1
            fnorm1 = _norm(f_trial)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            temp1 = _norm(step @ jt) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1**2 + temp2**2 / 0.5
            dirder = -(temp1**2 + temp2**2)
            ratio = actred / prered if prered != 0.0 else 0.0

            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5

            success = ratio >= 1e-4
            if success:
                x, f, fnorm = trial, f_trial, fnorm1
                xnorm = _norm(diag * x)
                first = False

            small_f = abs(actred) <= ftol and prered <= ftol and 0.5 * ratio <= 1.0
            small_x = delta <= xtol * xnorm
            if small_f or small_x:
                return x, int(small_f) + 2 * int(small_x)
            # the last failing test sets the code, as in lmder
            for info, failed in (
                (8, gnorm <= _EPS),
                (7, delta <= _EPS * xnorm),
                (6, abs(actred) <= _EPS and prered <= _EPS and 0.5 * ratio <= 1.0),
                (5, nfev >= maxfev),
            ):
                if failed:
                    return x, info
            if success:
                break


def _lm_parameter(s, c, delta, par):
    """Levenberg-Marquardt parameter and eigenbasis step of the subproblem.

    Solves min ||J p + f|| subject to ||D p|| <= delta in the scaled
    eigenbasis, where S has eigenvalues ``s`` and c = V^T D^-1 J^T f: the
    step has coordinates q(par) = c / (s + par). The Gauss-Newton step (par
    = 0, pseudo-inverse over the numerically nonzero eigenvalues) is taken
    when it lies within 1.1 delta; otherwise a safeguarded Newton iteration
    on 1/||q(par)|| = 1/delta, at most ten steps, brings ||q|| within 10%
    of delta (``lmpar`` of MINPACK).
    """
    full = s > len(s) * _EPS * s[-1]
    q = np.divide(c, s, out=np.zeros_like(c), where=full)
    dxnorm = _norm(q)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, q

    # lower bound from the Newton step at par = 0, when S has full rank
    parl = fp / delta / ((q @ (q / s)) / dxnorm**2) if full.all() else 0.0
    gnorm = _norm(c)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _TINY / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(_TINY, 0.001 * paru)
        q = c / (s + par)
        dxnorm = _norm(q)
        previous, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= previous < 0.0) or iteration == 10:
            break
        parc = fp / delta / ((q @ (q / (s + par))) / dxnorm**2)
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, q


def _norm(v) -> float:
    return math.sqrt(v @ v)
