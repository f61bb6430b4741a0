"""deutsch_mix: loop fixed points, easy seeded cases around the gap cases."""

from __future__ import annotations

import contextlib
import statistics
import time
from pathlib import Path

import numpy as np
from ctcbox import (classical_consistency_crosscheck, example, fixed_point,
                    loop_map, trace_norm)

from harness import CaseFailed, Session, interleave
from loop_oracle import reference_fixed_point, spectral_gap, trace_distance

SIGMA_TOL = 1e-6
HAAR_SHAPES = ((2, 2), (2, 4), (4, 2), (2, 8), (8, 2), (4, 4))
HAAR_PER_SHAPE = 72
PERM_SHAPES = ((2, 2), (2, 4), (4, 2), (4, 4), (2, 8))
PERM_PER_SHAPE = 3
PERM_MAX_MODULUS = 0.5
OSCILLATING_PERM = [2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10]
BUILTIN_CROSSCHECK = ("swap", "grandfather", "cnot")


class DeutschMix:
    """Loop fixed points: easy seeded cases plus the named spectral-gap cases."""

    def __init__(self, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        cases = []  # (key, group, u, rho, d_loop, crosscheck)
        for name in ("swap", "grandfather", "cnot", "product"):
            u, rho, d = example(name)
            cases.append((name, "builtin", u, rho, d, name in BUILTIN_CROSSCHECK))
        for d_cr, d in HAAR_SHAPES:
            for k in range(HAAR_PER_SHAPE):
                cases.append((f"haar{d_cr}x{d}.{k}", "haar", haar(rng, d_cr * d),
                              random_density(rng, d_cr), d, False))
        for d_cr, d in PERM_SHAPES:
            for k in range(PERM_PER_SHAPE):
                perm, rho = easy_permutation(rng, d_cr, d)
                cases.append((f"perm{d_cr}x{d}.{k}", "perm", permutation_unitary(perm),
                              rho, d, True))
        swap, _, _ = example("swap")
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        ground = np.diag([1, 0]).astype(complex)
        osc = permutation_unitary(OSCILLATING_PERM)
        cases += [
            ("oscillating", "gap", osc, np.diag([0.5, 0.5, 0, 0]).astype(complex), 3, True),
            ("weak_swap", "gap", hermitian_exp(swap, 0.05), ground, 2, False),
            ("weak_rot", "gap", hermitian_exp(swap, 0.02)
             @ np.kron(np.eye(2), hermitian_exp(flip, 0.7)), ground, 2, False),
            ("nonconv", "gap", osc, np.diag([1, 0, 0, 0]).astype(complex), 3, True),
        ]
        ops = [(kind, *case) for case in cases
               for kind in ("fixed_point", "crosscheck")[:1 + case[5]]]
        self.schedule = interleave([op for op in ops if op[2] != "gap"],
                                   [op for op in ops if op[2] == "gap"])
        self.references = {}

    def reference(self, key, u, rho, d):
        if key not in self.references:
            self.references[key] = reference_fixed_point(u, rho, d)
        return self.references[key]

    def run_pass(self, s: Session):
        for kind, key, group, u, rho, d, _ in self.schedule:
            with contextlib.suppress(CaseFailed):
                if kind == "fixed_point":
                    s.op(f"{key}.fixed_point", "deutsch.fixed_point",
                         lambda: fixed_point(u, rho, d),
                         lambda r: self.check_fixed_point(s, key, group, u, rho, d, r),
                         case=key, group=group)
                else:
                    s.op(f"{key}.crosscheck", "deutsch.crosscheck",
                         lambda: classical_consistency_crosscheck(u, rho, d),
                         lambda c: self.check_crosscheck(key, u, rho, d, c),
                         case=key, group=group)

    def check_fixed_point(self, s, key, group, u, rho, d, result):
        if group in ("builtin", "gap"):
            s.count(f"deutsch.iterations.{key}", result.iterations)
        if not result.converged:
            return ("failed", f"not converged after {result.iterations} iterations")
        err = trace_distance(result.sigma, self.reference(key, u, rho, d))
        s.sigma_errors.append(err)
        if err > SIGMA_TOL:
            return ("wrong", f"sigma is {err:.2e} from the reference")
        return None

    def check_crosscheck(self, key, u, rho, d, cc):
        perm = [int(i) for i in np.argmax(np.abs(u), axis=0)]
        p = np.real(np.diag(rho))
        d_cr = rho.shape[0]
        consistent = {c: tuple(v for v in range(d) if perm[c * d + v] % d == v)
                      for c in range(d_cr)}
        if cc.permutation != perm or cc.consistent_sets != consistent:
            return ("wrong", "permutation or consistent sets differ")
        q = np.real(np.diag(self.reference(key, u, rho, d)))
        if np.abs(np.asarray(cc.loop_distribution) - q).sum() > SIGMA_TOL:
            # an unconverged solve is a failure only while it says so
            if cc.ok:
                return ("wrong", "passed a loop distribution off the reference")
            return ("failed", "loop distribution off the reference, reported not ok")
        supported = [c for c in range(d_cr) if p[c] > 1e-12]
        if all(consistent[c] for c in supported):
            pred = np.zeros(d)
            for c in supported:
                for v in consistent[c]:
                    pred[v] += p[c] / len(consistent[c])
            match = bool(np.abs(pred - q).sum() <= SIGMA_TOL)
            if cc.prediction is None or np.abs(np.asarray(cc.prediction) - pred).max() > 1e-12:
                return ("wrong", "conditioning prediction differs")
        else:
            match = None
            if cc.prediction is not None:
                return ("wrong", "prediction given for a paradox branch")
        if cc.prediction_match != match or cc.ok != (match is not False):
            return ("wrong", "crosscheck verdict differs from the reference")
        return None


def haar(rng, d):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def permutation_unitary(perm):
    u = np.zeros((len(perm), len(perm)), dtype=complex)
    for source, target in enumerate(perm):
        u[target, source] = 1
    return u


def hermitian_exp(h, t):
    """expm(-i t H) for Hermitian H."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def easy_permutation(rng, d_cr, d):
    """A seeded permutation whose classical loop chain contracts fast.

    Draws until every eigenvalue of the chain other than 1 has modulus at
    most PERM_MAX_MODULUS, so the case is easy by construction; slow
    chains are the named gap cases' job.
    """
    while True:
        perm = [int(i) for i in rng.permutation(d_cr * d)]
        p = rng.dirichlet(np.ones(d_cr))
        chain = np.zeros((d, d))
        for c in range(d_cr):
            for v in range(d):
                chain[perm[c * d + v] % d, v] += p[c]
        if spectral_gap(chain) >= 1 - PERM_MAX_MODULUS:
            return perm, np.diag(p).astype(complex)


def deutsch_probes() -> dict:
    """Cost of one solver step: a d = 16 loop map and a d = 8 trace norm."""
    rng = np.random.default_rng(0)
    u, rho, sigma = haar(rng, 16), random_density(rng, 4), random_density(rng, 4)
    m = random_density(rng, 8) - random_density(rng, 8)
    metrics = {}
    for name, fn in (("deutsch.loop_map.d16_us", lambda: loop_map(u, rho, sigma)),
                     ("deutsch.trace_norm.d8_us", lambda: trace_norm(m))):
        times = []
        for _ in range(50):
            start = time.perf_counter()
            for _ in range(20):
                fn()
            times.append((time.perf_counter() - start) / 20 * 1e6)
        metrics[name] = statistics.median(times)
    return metrics


WORKLOAD = DeutschMix
