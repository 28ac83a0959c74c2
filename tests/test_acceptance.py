"""Acceptance suite: one test per criterion, each printing a single
pass/fail line (visible with -s; pytest -v also shows one line per
criterion)."""

import numpy as np
import pytest
from click.testing import CliRunner

from csd1d import (
    ComplexField,
    CouplingKind,
    DataSpec,
    ModelParams,
    RealField,
    SolverConfig,
    State,
    bilinear_bound_check,
    concentration_monitor,
    corollary_envelope_report,
    finite_speed_check,
    generate_data,
    initial_size,
    localization_check,
    make_grid,
    march,
    picard_slab,
    scaling_check,
    solve_decomposed,
    solve_global,
    solve_transport,
)
from csd1d.cli import main as cli_main
from csd1d.lattice import shift_values
from csd1d.solver import contraction_ratios, measured_contraction
from csd1d.transport import SourceTrace

from conftest import bump_state

COUPLINGS = (CouplingKind.NULL_GAMMA0, CouplingKind.NULL_GAMMA1, CouplingKind.IDENTITY)


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def scale_to(state, target):
    c = target / initial_size(state)
    return State.from_arrays(
        state.grid,
        c * state.psi_plus.values,
        c * state.psi_minus.values,
        c * state.a_plus.values,
        c * state.a_minus.values,
        state.params,
    )


def test_criterion_01_exact_transport():
    # 1000 random (u0, sign, steps): solve_transport with F = 0 equals
    # the lattice shift bit-exactly
    g = make_grid(-8.0, 8.0, 128)
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        steps = int(rng.integers(0, 17))
        sign = +1 if rng.integers(2) else -1
        vals = np.zeros(128, complex)
        lo = int(rng.integers(20, 60))
        width = int(rng.integers(1, 40))
        vals[lo:lo + width] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        trace = solve_transport(ComplexField(g, vals), None, sign, steps)
        for i in range(steps + 1):
            if not np.array_equal(trace[i], shift_values(vals, sign * i)):
                ok = False
    report(1, "exact transport", ok, "1000 instances bit-exact")


def test_criterion_02_bilinear_estimate():
    # sharp case: adjacent unit boxes, p = 1, T = 1, n = 4096
    g = make_grid(-8.0, 8.0, 4096)
    box = lambda lo, hi: ComplexField(
        g, ((g.centers > lo) & (g.centers < hi)).astype(complex)
    )
    sharp = bilinear_bound_check(box(-1.0, 0.0), box(0.0, 1.0), None, None, 1.0, 1.0)
    ok = abs(sharp.rhs - 0.5) <= 1e-12 and 0.499 <= sharp.lhs <= 0.501

    # 100 seeded random instances per p
    g2 = make_grid(-8.0, 8.0, 512)
    steps = int(round(0.5 / g2.dt))
    t = np.arange(steps + 1) * g2.dt
    worst = np.inf
    for p in (1.0, 1.5, 2.0, 4.0, np.inf):
        for trial in range(100):
            rng = np.random.default_rng((trial, int(0 if p == np.inf else 10 * p)))

            def field(amp):
                return generate_data(
                    DataSpec(kind="random_bumps", width=0.7, amplitude=amp,
                             seed=int(rng.integers(2**31)), spread=3.0), g2)

            def source():
                prof = field(0.8).values
                h = np.cos(rng.uniform(0, 6) * t + rng.uniform(0, 2 * np.pi))
                return SourceTrace(g2, h[:, None] * prof[None, :])

            rep = bilinear_bound_check(field(1.0), field(1.0), source(), source(),
                                       p, steps * g2.dt)
            worst = min(worst, rep.margin + 1e-3 * rep.rhs)
            if rep.margin < -1e-3 * rep.rhs:
                ok = False
    report(2, "bilinear estimate", ok,
           f"sharp lhs={sharp.lhs:.6f}, min slack={worst:.2e}")


def test_criterion_03_structural_exactness():
    g = make_grid(-8.0, 8.0, 512)
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0, p=1.0)
    s = bump_state(g, params, seed=101)
    traj = march(s, int(round(1.0 / g.dt)))
    q = traj.charge()
    drift = float(np.abs(q - q[0]).max() / q[0])

    params_m = ModelParams(alpha=CouplingKind.NULL_GAMMA1, m=1.0, p=1.0)
    sm = bump_state(g, params_m, seed=102)
    dtraj = solve_decomposed(sm, 1.0, SolverConfig())
    mod_err = 0.0
    for i in range(dtraj.n_steps + 1):
        mod_err = max(mod_err, float(np.abs(
            np.abs(dtraj.psi_l_plus[i]) - np.abs(shift_values(sm.psi_plus.values, i))
        ).max()))
        mod_err = max(mod_err, float(np.abs(
            np.abs(dtraj.psi_l_minus[i]) - np.abs(shift_values(sm.psi_minus.values, -i))
        ).max()))
    ok = drift <= 1e-12 and mod_err <= 1e-12
    report(3, "structural exactness", ok,
           f"charge drift={drift:.2e}, |psi_L| error={mod_err:.2e}")


def gaussian_state(grid, params):
    a = generate_data(DataSpec(kind="gaussian", center=-1.0, width=0.8, amplitude=0.4), grid)
    b = generate_data(DataSpec(kind="modulated_gaussian", center=1.0, width=0.8,
                               amplitude=0.4, wavenumber=2.0), grid)
    c = generate_data(DataSpec(kind="gaussian", center=0.0, width=1.0, amplitude=0.2), grid)
    return State.from_arrays(grid, a.values, b.values, c.values.real,
                             np.zeros(grid.n_cells), params)


def test_criterion_04_charge_with_mass():
    # drift must vanish at least at second order between n = 2048 and
    # n = 4096.  The Picard quadrature drifts at exactly second order
    # (ratio 4 +- 1); the marching backend applies the gauge term as an
    # exact phase and Heun on the unitary mass rotation loses norm only
    # at O(dt^4) per step, so its drift vanishes one order faster
    # (ratio 8) -- stronger conservation than the bound requires
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    ratios = {}
    for backend in ("march", "picard"):
        drifts = []
        for n in (2048, 4096):
            g = make_grid(-8.0, 8.0, n)
            s = gaussian_state(g, params)
            traj = solve_global(s, 0.5, SolverConfig(backend=backend, slab_T=0.25))
            q = traj.charge()
            drifts.append(float(np.abs(q - q[0]).max() / q[0]))
        ratios[backend] = drifts[0] / drifts[1]
    ok = 3.0 <= ratios["picard"] <= 5.0 and ratios["march"] >= 3.0
    report(4, "charge conservation with mass", ok,
           f"Richardson ratios march={ratios['march']:.2f}, picard={ratios['picard']:.2f}")


def test_criterion_05_intrinsic_bound():
    g = make_grid(-8.0, 8.0, 512)
    ok = True
    worst = np.inf
    for seed in range(20):
        params = ModelParams(alpha=COUPLINGS[seed % 3], m=1.0, p=1.0)
        s = bump_state(g, params, seed=200 + seed)
        dtraj = solve_decomposed(s, 1.0, SolverConfig())
        t = dtraj.times
        dx = g.dx
        for p in (1.0, 2.0, np.inf):
            def norm(trace, q):
                mag = np.abs(trace)
                if q == np.inf:
                    return mag.max(axis=1, initial=0.0)
                return ((mag**q).sum(axis=1) * dx) ** (1.0 / q)

            lhs = sum(
                np.maximum(norm(tr, p), norm(tr, np.inf))
                for tr in (dtraj.psi_n_plus, dtraj.psi_n_minus)
            )
            data_norm = norm(dtraj.psi_l_plus[:1], p)[0] + norm(dtraj.psi_l_minus[:1], p)[0]
            rhs = 1.0 * data_norm * (np.exp(t) + t - 1.0)
            slack = rhs + 1e-3 * rhs.max() - lhs
            worst = min(worst, float(slack.min()))
            if slack.min() < 0:
                ok = False

    # identically zero without mass
    params0 = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0, p=1.0)
    d0 = solve_decomposed(bump_state(g, params0, seed=250), 0.5, SolverConfig())
    if np.abs(d0.psi_n_plus).max() != 0.0 or np.abs(d0.psi_n_minus).max() != 0.0:
        ok = False
    report(5, "intrinsic bound", ok, f"min slack={worst:.2e}")


def test_criterion_06_picard_contraction():
    g = make_grid(-8.0, 8.0, 512)
    ok = True
    worst_ratio = 0.0
    worst_iters = 0
    for seed in range(5):
        for alpha in (CouplingKind.NULL_GAMMA0, CouplingKind.NULL_GAMMA1):
            params = ModelParams(alpha=alpha, m=1.0, p=1.0)
            s = scale_to(bump_state(g, params, seed=300 + seed), 0.1)
            _, history = picard_slab(s, SolverConfig(slab_T=0.25))
            ratios = contraction_ratios(history)
            worst_ratio = max(worst_ratio, max(ratios))
            worst_iters = max(worst_iters, len(history))
            if measured_contraction(history) > 0.5 or len(history) > 45:
                ok = False
    report(6, "Picard contraction", ok,
           f"max ratio={worst_ratio:.3f}, max iters={worst_iters}")


def test_criterion_07_finite_speed_and_localization():
    g = make_grid(-8.0, 8.0, 512)
    ok = True
    for seed in range(20):
        alpha = COUPLINGS[seed % 3]
        m = float(seed % 2)
        params = ModelParams(alpha=alpha, m=m, p=1.0)
        cfg = SolverConfig(backend="march" if seed % 2 else "picard")
        s = bump_state(g, params, seed=400 + seed)
        outside = (np.abs(g.centers) >= 1.0).astype(float)
        hollow = State.from_arrays(
            g, s.psi_plus.values * outside, s.psi_minus.values * outside,
            s.a_plus.values * outside, s.a_minus.values * outside, params,
        )
        if finite_speed_check(hollow, 0.0, 1.0, cfg).lhs > 1e-12:
            ok = False
        if localization_check(s, 0.0, 1.5, cfg).lhs > 1e-10:
            ok = False

    # counter-tests must fail
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(g, params, seed=401)
    outside = (np.abs(g.centers) >= 1.0).astype(float)
    hollow = State.from_arrays(
        g, s.psi_plus.values * outside, s.psi_minus.values * outside,
        s.a_plus.values * outside, s.a_minus.values * outside, params,
    )
    if finite_speed_check(hollow, 0.0, 1.0, SolverConfig(), widen_cells=2).pass_:
        ok = False
    if localization_check(s, 0.0, 1.5, SolverConfig(), misalign_cells=40).pass_:
        ok = False
    report(7, "finite speed and localization", ok, "20 trials + controls")


def test_criterion_08_backend_order():
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    diffs = []
    for n in (256, 512, 1024):
        g = make_grid(-8.0, 8.0, n)
        s = gaussian_state(g, params)
        traj, _ = picard_slab(s, SolverConfig(slab_T=0.25))
        ref = march(s, traj.n_steps)
        diffs.append(float(np.abs(traj.psi_plus[-1] - ref.psi_plus[-1]).max()))
    orders = [np.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    order = float(np.mean(orders))
    ok = 1.8 <= order <= 2.2
    report(8, "backend equivalence order", ok, f"fitted order={order:.3f}")


def test_criterion_09_scaling_invariance():
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0, p=1.0)
    tol = SolverConfig().picard_tol
    g = make_grid(-8.0, 8.0, 512)
    s = bump_state(g, params, seed=500, amplitude=0.25)
    lam1 = scaling_check(s, 1, 0.5, SolverConfig())
    ok = lam1.lhs <= 10 * tol

    # the unit-CFL lattice scheme is exactly invariant under the lambda
    # rescaling, so the lambda = 2 discrepancy sits at roundoff on every
    # level; this is the limit of the required order-2 decrease
    discrepancies = []
    for n in (256, 512, 1024):
        gn = make_grid(-8.0, 8.0, n)
        sn = bump_state(gn, params, seed=500, amplitude=0.25)
        discrepancies.append(scaling_check(sn, 2, 0.5, SolverConfig()).lhs)
    if max(discrepancies) > 1e-10:
        orders = [np.log2(a / b) for a, b in zip(discrepancies, discrepancies[1:])]
        if not 1.7 <= float(np.mean(orders)) <= 2.3:
            ok = False
    report(9, "scaling invariance", ok,
           f"lambda=1 diff={lam1.lhs:.2e}, lambda=2 max diff={max(discrepancies):.2e}")


def test_criterion_10_global_continuation():
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    consts = []
    traj_fine = None
    for n in (1024, 2048):
        g = make_grid(-8.0, 8.0, n)
        s = scale_to(bump_state(g, params, seed=600, spread=2.5), 20.0)
        traj = solve_global(s, 2.0, SolverConfig(slab_T=0.25))
        consts.append(corollary_envelope_report(traj, 1.0).metadata["C"])
        traj_fine = (traj, s)
    stable = abs(consts[0] - consts[1]) / consts[1] <= 0.05

    traj, s = traj_fine
    monitors = [
        concentration_monitor(traj, r, initial=s)[1].lhs for r in (1.0, 0.5, 0.25)
    ]
    monotone = all(a >= b - 1e-12 for a, b in zip(monitors, monitors[1:]))
    ok = stable and monotone
    report(10, "global continuation", ok,
           f"C={consts[0]:.4f}/{consts[1]:.4f}, windows={[f'{m:.3f}' for m in monitors]}")


def test_criterion_11_determinism(tmp_path):
    runner = CliRunner()
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        result = runner.invoke(
            cli_main, ["verify", "all", "--seed", "7", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        outputs.append((out / "all.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    report(11, "determinism", ok, f"{len(outputs[0])} bytes identical")
