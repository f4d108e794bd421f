"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``)."""

import json
import math
import time

import numpy as np
import pytest

from speckle_bell import chsh, cli, stats
from speckle_bell.chsh import (
    TSIRELSON,
    alice_basis,
    max_violation_search,
    s_value,
)
from speckle_bell.medium import random_tm, speckle_intensity
from speckle_bell.pairsource import (
    contrast,
    joint_probability,
    oracle_joint_probability,
    relabeled,
)
from speckle_bell.polarization import AmplitudeVector, PoincareState, Projector

D = PoincareState(math.pi / 2, 0.0)
A = PoincareState(math.pi / 2, math.pi)


def equatorial_quadruple():
    return (
        alice_basis(PoincareState(math.pi / 2, 0.0), "A"),
        alice_basis(PoincareState(math.pi / 2, math.pi / 2), "A'"),
        alice_basis(PoincareState(math.pi / 2, math.pi / 4), 1),
        alice_basis(PoincareState(math.pi / 2, 7 * math.pi / 4), 2),
    )


def equatorial_s(nu):
    a, ap, bk, bkp = equatorial_quadruple()
    return s_value(a, ap, bk, bkp, nu).s


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def args_for(seed, nu=None, noiseless=False):
    return type(
        "Args", (), {"config": None, "seed": seed, "nu": nu, "noiseless": noiseless}
    )()


def test_criterion_1_tsirelson_optimum():
    t0 = time.time()
    s = equatorial_s(1.0)
    elapsed = time.time() - t0
    report(
        1,
        abs(s - TSIRELSON) < 1e-9 and elapsed < 1.0,
        f"equatorial S = {s!r} vs 2*sqrt(2), {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_separable_search_bound():
    t0 = time.time()
    best = max_violation_search(0.0, 100_000, seed=1)
    elapsed = time.time() - t0
    report(
        2,
        best <= 2.0 + 1e-9 and elapsed < 10.0,
        f"max S over 1e5 separable quadruples = {best:.6f}, {elapsed:.2f} s",
    )


def test_criterion_3_visibility_scaling_and_crossing():
    worst = 0.0
    for nu in (0.0, 0.25, 0.5, 1 / math.sqrt(2), 0.93, 1.0):
        worst = max(worst, abs(equatorial_s(nu) - TSIRELSON * nu))
    # bisection for the S = 2 crossing on the same settings
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if equatorial_s(mid) < 2.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    report(
        3,
        worst < 1e-9 and abs(crossing - 1 / math.sqrt(2)) < 1e-6,
        f"max |S - 2*sqrt(2)*nu| = {worst:.2e}, crossing at nu = {crossing:.8f}",
    )


def test_criterion_4_cross_engine_oracle():
    rng = np.random.default_rng(104)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        alice = PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        bob = Projector(
            complex(rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))),
            PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
        )
        nu = rng.uniform(0, 1)
        diff = abs(
            oracle_joint_probability(alice, bob, nu)
            - joint_probability(alice, relabeled(bob), nu)
        )
        worst = max(worst, diff)
    elapsed = time.time() - t0
    report(
        4,
        worst < 1e-12 and elapsed < 1.0,
        f"max |born - relabeled formula| = {worst:.2e} over 1e3 tuples, {elapsed:.2f} s",
    )


def test_criterion_5_contrast_equivalence():
    rng = np.random.default_rng(105)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        alice = PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        bob = Projector(
            complex(rng.uniform(0.05, 1)),
            PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
        )
        nu0 = rng.uniform(0, 1)
        # the delay scan's visibilities at zero and infinite delay
        r0 = joint_probability(alice, bob, nu0)
        rinf = joint_probability(alice, bob, 0.0)
        worst = max(worst, abs(contrast(alice, bob, nu0) - (r0 - rinf) / rinf))

    nu0 = 0.93
    opposition_ok = True
    bound_ok = True
    for _ in range(200):
        bob = Projector(
            complex(rng.uniform(0.05, 1)),
            PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
        )
        c_d, c_a = contrast(D, bob, nu0), contrast(A, bob, nu0)
        opposition_ok &= abs(c_d + c_a) < 1e-12
        bound_ok &= abs(c_d) <= nu0 + 1e-12 and abs(c_a) <= nu0 + 1e-12
    elapsed = time.time() - t0
    report(
        5,
        worst < 1e-12 and opposition_ok and bound_ok and elapsed < 1.0,
        f"max |closed form - endpoint ratio| = {worst:.2e}; D/A opposition and "
        f"nu0 bound hold, {elapsed:.2f} s",
    )


def test_criterion_6_fig4_replica():
    n_seeds = 20
    nonzero = 0
    fractions_ok = True
    per_seed_ok = True
    t_first = None
    for seed in range(n_seeds):
        t0 = time.time()
        cfg = cli.build_config(args_for(seed))
        enum = cli.chsh_enumeration(cfg)
        rep = stats.certify_arrays(chsh.s_tiles(enum), enum.skipped)
        if t_first is None:
            t_first = time.time() - t0
        assert rep.total == 189_225
        if rep.above_2 > 0:
            nonzero += 1
            fraction = rep.above_2 / rep.total
            fractions_ok &= 0.001 <= fraction <= 0.15

        cfg0 = cli.build_config(args_for(seed, nu=0.0))
        enum0 = cli.chsh_enumeration(cfg0)
        rep0 = stats.certify_arrays(chsh.s_tiles(enum0))
        per_seed_ok &= rep0.above_2_by_5sigma <= 5

    cfg_exact = cli.build_config(args_for(0, noiseless=True))
    enum_exact = cli.chsh_enumeration(cfg_exact)
    max_exact = float(chsh.s_combination(*enum_exact.e).max())
    ok = (
        nonzero >= 19
        and fractions_ok
        and per_seed_ok
        and max_exact <= TSIRELSON + 1e-9
        and t_first < 60.0
    )
    report(
        6,
        ok,
        f"entangled above-2 in {nonzero}/20 seeds (fractions in band: {fractions_ok}), "
        f"separable 5-sigma count <= 5 per seed: {per_seed_ok}, noiseless max "
        f"{max_exact:.4f} <= 2*sqrt(2), first seed {t_first:.1f} s",
    )


def test_criterion_7_uncertainty_propagation():
    # Monte Carlo oracle: std of the signed combination e1+e2+e3-e4 over
    # replicas (first-order propagation targets the smooth combination;
    # the |.| fold at S ~ 0 would compare against a folded normal instead)
    rng = np.random.default_rng(107)
    t0 = time.time()
    mc_ok = True
    anchor_ok = True
    detail = []
    for n in (100, 1000, 10_000):
        rec = stats.s_with_sigma([(n, n, n, n)] * 4)
        anchor_ok &= abs(rec.sigma - 1 / math.sqrt(n)) < 1e-12
        counts = rng.poisson(n, size=(10_000, 4, 4))
        totals = counts.sum(axis=2)
        nums = counts[:, :, 0] - counts[:, :, 1] - counts[:, :, 2] + counts[:, :, 3]
        e = nums / totals
        combo = e[:, 0] + e[:, 1] + e[:, 2] - e[:, 3]
        rel = abs(combo.std() - rec.sigma) / rec.sigma
        mc_ok &= rel < 0.05
        detail.append(f"n={n}: mc/formula rel err {rel:.3f}")
    elapsed = time.time() - t0
    report(
        7,
        mc_ok and anchor_ok and elapsed < 30.0,
        "; ".join(detail) + f"; 1/sqrt(n) anchor within 1e-12: {anchor_ok}, {elapsed:.1f} s",
    )


def test_criterion_8_medium_properties():
    scipy_stats = pytest.importorskip("scipy.stats")
    t0 = time.time()
    tm = random_tm(200, 108)
    residual = tm.unitarity_residual()
    intensity_h, intensity_v = speckle_intensity(tm.entries[:, :2], AmplitudeVector(1.0, 0.0)).T
    conservation = abs(np.sum(intensity_h) + np.sum(intensity_v) - 1.0)
    samples = np.concatenate([intensity_h, intensity_v])
    _, p = scipy_stats.kstest(samples * (2 * tm.m_spatial), "expon")
    elapsed = time.time() - t0
    report(
        8,
        residual < 1e-10 and p > 0.01 and conservation < 1e-10 and elapsed < 10.0,
        f"unitarity residual {residual:.2e}, KS p = {p:.3f}, "
        f"intensity conservation {conservation:.2e}, {elapsed:.1f} s",
    )


def test_criterion_9_sweep_replica(tmp_path):
    t0 = time.time()
    code = cli.main(
        [
            "sweep",
            "--seed",
            "109",
            "--out",
            str(tmp_path),
            "--nus",
            "0,0.93,1",
            "--alice-draws",
            "100",
        ]
    )
    assert code == 0
    summary = (tmp_path / "run_109" / "sweep_summary.csv").read_text().splitlines()
    fractions = {}
    for line in summary[1:]:
        nu, _, _, frac = line.split(",")
        fractions[float(nu)] = float(frac)
    elapsed = time.time() - t0
    ok = (
        fractions[0.0] == 0.0
        and 0.0 < fractions[0.93] < fractions[1.0]
        and elapsed < 600.0
    )
    report(
        9,
        ok,
        f"tail mass above 2: nu=0 -> {fractions[0.0]:.4%}, nu=0.93 -> "
        f"{fractions[0.93]:.4%}, nu=1 -> {fractions[1.0]:.4%}, {elapsed:.1f} s",
    )
