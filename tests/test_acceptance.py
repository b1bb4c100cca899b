"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each criterion is a separate test so `pytest -v` emits one pass/fail
line per claim; the body also prints an ACCEPTANCE line for -s runs.
"""

import math
import time

import numpy as np
import pytest

from qvilab import comparison as cmp
from qvilab import example as exm
from qvilab import expr as ex
from qvilab import obstacle as obs
from qvilab import viscosity as vc
from qvilab.assumptions import SamplerSpec, audit_H1, audit_H2
from qvilab.core import (AssumptionConstants, Cone, Grid, GridFunction,
                         ImpulseProblem, interp_slice, sample)
from qvilab.obstacle import evaluate_slice_values
from qvilab.solver import (estimate_dissipation, interior_mask, solve_hjb,
                           solve_qvi, suggest_t_nodes)

ELL0 = 0.05
PROFILE_SRC = "(x1 - 1 + t)*exp(-(x1 - 1 + t))"


def profile(u):
    return u * np.exp(-u)


def transport_problem(ell_src=f"{ELL0}*(1 + xi1)"):
    return ImpulseProblem(
        n=1, T=1.0,
        H=ex.parse("-p1", ("t", "x1", "p1")),
        h=ex.parse("x1*exp(-x1)", ("x1",)),
        ell=ex.parse(ell_src, ("t", "x1", "xi1")),
        cone=Cone.orthant(1),
    )


def constants_for(ell0=ELL0, delta0=ELL0, **overrides):
    base = dict(L=1.0, mu=0.0, h0=3.0, ell0=ell0 * 0.8, alpha=ell0 * 0.2,
                beta=0.5, delta0=delta0, C=16.0, gamma=0.0, kappa=0.25)
    base.update(overrides)
    return AssumptionConstants(**base)


def dp_reference(grid, ell0=ELL0):
    """Independent semi-Lagrangian + node-enumeration value iteration."""
    x = grid.axes[0]
    W = profile(x)
    out = np.empty(grid.shape)
    out[-1] = W
    X = x[None, :] - x[:, None]
    payoff_cost = np.where(X >= 0.0, ell0 * (1.0 + X), np.inf)
    for k in range(grid.t_nodes - 2, -1, -1):
        target = (x - grid.dt)[:, None]
        W = interp_slice(grid, W[None], target[None])[0]
        for _ in range(5):
            N = (W[None, :] + payoff_cost).min(axis=1)
            W_new = np.minimum(W, N)
            done = np.max(np.abs(W_new - W)) < 1e-12
            W = W_new
            if done:
                break
        out[k] = W
    return out


CORPUS_GRID = Grid(T=1.0, t_nodes=61, x_min=(-1.0,), x_max=(4.0,),
                   x_nodes=(141,))


@pytest.fixture(scope="module")
def corpus():
    """Six grid functions: solver output, shifts, and deliberate damage."""
    problem = transport_problem()
    solved = solve_qvi(problem, CORPUS_GRID).V
    env = CORPUS_GRID.full_env()
    members = {
        "solved": solved,
        "shifted": solved.shifted(5.0),
        "profile": sample(ex.parse(PROFILE_SRC, ("t", "x1")), CORPUS_GRID),
        "frozen_terminal": sample(ex.parse("x1*exp(-x1)", ("x1",)),
                                  CORPUS_GRID),
        "corrupted": GridFunction(
            CORPUS_GRID,
            solved.values + 0.4 * np.exp(-((env["x1"] - 1.5) / 0.3) ** 2)),
        "flat": GridFunction(CORPUS_GRID,
                             np.full(CORPUS_GRID.shape, -1e6)),
    }
    gaps = {name: vc.obstacle_gap(V, problem)
            for name, V in members.items()}
    return problem, members, gaps


class TestAcceptance:
    def test_criterion_1_counterexample_reproduction(self):
        start = time.perf_counter()
        instance = exm.build_instance(t0=0.5, l0=0.05)

        target = instance.l0 * math.e
        for root in (instance.xi1, instance.xi2):
            assert abs(root * math.exp(-root) - target) <= 1e-10

        assert instance.gap < 0.0
        assert instance.gap == pytest.approx(-0.095, abs=1e-3)
        measured = exm.measure_obstacle_gap(instance)
        assert abs(measured - instance.gap) <= 1e-6
        assert measured < 0.0

        # the grid reproduce-example runs on
        grid, _ = exm.anchor_grid(instance, 201, 701)
        report = exm.verify_separation(instance, grid)
        assert report.classical.passed
        assert not report.classical.violations
        assert not report.modified.passed
        assert report.modified.constraint_violations
        assert not report.modified.violations
        assert report.violations_in_band
        assert report.separated

        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0
        print(f"ACCEPTANCE 1: PASS — separation reproduced, gap "
              f"{instance.gap:.6g}, {elapsed:.1f}s on 201x701")

    def test_criterion_2_direct_equals_decomposed(self, corpus):
        problem, members, gaps = corpus
        assert len(members) >= 5
        for name, V in members.items():
            direct = vc.check_qvi_subsolution(V, problem, gap=gaps[name])
            split = vc.check_qvi_subsolution_decomposed(V, problem,
                                                        gap=gaps[name])
            assert direct.violations == split.violations, name
            assert direct.constraint_violations == \
                split.constraint_violations, name
            assert direct.terminal_violations == \
                split.terminal_violations, name
            assert direct.passed == split.passed, name
        print(f"ACCEPTANCE 2: PASS — direct and decomposed verdicts agree "
              f"probe-for-probe on {len(members)} grid functions")

    def test_criterion_3_definition_strength_order(self, corpus):
        problem, members, gaps = corpus
        strict_antecedent = 0
        for name, V in members.items():
            classical = vc.check_qvi_supersolution_classical(
                V, problem, gap=gaps[name])
            modified = vc.check_qvi_supersolution_modified(
                V, problem, gap=gaps[name])
            hjb_super = vc.check_hjb_supersolution(V, problem)
            if modified.passed:
                assert classical.passed, name
            constraint_ok = (not modified.constraint_violations
                             and not modified.terminal_violations)
            if hjb_super.passed and constraint_ok:
                strict_antecedent += 1
                assert modified.passed, name
        assert strict_antecedent > 0  # the implication was not vacuous
        print("ACCEPTANCE 3: PASS — modified implies classical and "
              "(pde-super and constraint) implies modified, "
              "zero counterexamples")

    def test_criterion_4_comparison_on_ordered_pairs(self):
        start = time.perf_counter()
        base = transport_problem()
        bump = "max(0, 0.25 - (t - 0.5)^2 - (x1 - 1.5)^2)"
        offset_sets = [("0.25", None, None), (None, bump, None),
                       (None, None, "0.02")]
        fine = Grid(T=1.0, t_nodes=121, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(281,))
        for offsets in offset_sets:
            first, second = cmp.ordered_pair_generator(base, offsets)
            coarse_rep = cmp.compare_solutions(first, second, CORPUS_GRID)
            assert coarse_rep.ordered
            assert coarse_rep.passed
            assert coarse_rep.max_difference <= coarse_rep.tolerance
            fine_rep = cmp.compare_solutions(first, second, fine)
            assert fine_rep.passed
            # one 2x refinement tightens the acceptance bound by 2 >= 1.5
            assert coarse_rep.tolerance / fine_rep.tolerance >= 1.5
        elapsed = time.perf_counter() - start
        assert elapsed <= 300.0
        print(f"ACCEPTANCE 4: PASS — 3 ordered pairs within the interior "
              f"bound at both resolutions, {elapsed:.1f}s")

    def test_criterion_5_solver_validity(self, fixed_point_residual):
        problem = transport_problem()

        def transport_error(x_nodes):
            probe = Grid(T=1.0, t_nodes=2, x_min=(-2.0,), x_max=(5.0,),
                         x_nodes=(x_nodes,))
            sigma = estimate_dissipation(problem, probe)
            grid = Grid(T=1.0, t_nodes=suggest_t_nodes(probe, sigma),
                        x_min=(-2.0,), x_max=(5.0,), x_nodes=(x_nodes,))
            res = solve_hjb(problem, grid, sigma)
            env = grid.full_env()
            exact = profile(env["x1"] - grid.T + env["t"])
            mask = interior_mask(grid, sigma)
            return float(np.max(np.abs(res.V.values - exact)[mask]))

        err_coarse = transport_error(701)
        err_fine = transport_error(1401)
        assert err_coarse <= 0.02
        assert err_coarse / err_fine >= 1.5

        grid = Grid(T=1.0, t_nodes=201, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(701,))
        res = solve_qvi(problem, grid, (1.05,))
        stepped_gap = res.obstacle_gap.values[:-1]
        assert float(stepped_gap.min()) >= -1e-8  # V <= N[V] + 1e-8 everywhere

        tol = 10.0 * (grid.dt + sum(grid.dx))
        mask = interior_mask(grid, res.dissipation)[:-1]
        residual = np.abs(fixed_point_residual(problem, res))
        assert float(np.mean(residual[mask] <= tol)) >= 0.99

        dp = dp_reference(grid)
        full_mask = interior_mask(grid, res.dissipation)
        dp_err = float(np.max(np.abs(res.V.values - dp)[full_mask]))
        assert dp_err <= 0.05
        print(f"ACCEPTANCE 5: PASS — transport error {err_coarse:.4g} "
              f"(ratio {err_coarse / err_fine:.2f}), constraint exact, "
              f"dp error {dp_err:.4g}")

    def test_criterion_6_doubling_trend(self):
        grid = Grid(T=1.0, t_nodes=201, x_min=(0.5,), x_max=(3.5,),
                    x_nodes=(351,))
        V = sample(ex.parse(PROFILE_SRC, ("t", "x1")), grid)
        res = solve_qvi(transport_problem(), grid)
        diag = cmp.doubling_maximize(V, res.V, theta=0.001)
        assert len(diag.levels) == 3
        eps = [lev.epsilon for lev in diag.levels]
        assert eps == sorted(eps, reverse=True)
        for lev in diag.levels:
            assert lev.residual_symmetry <= 0.0
            assert lev.residual_certified <= 0.0
        assert diag.gaps_nonincreasing()
        assert diag.certificate_ok
        print("ACCEPTANCE 6: PASS — penalty residual nonpositive at every "
              "argmax and pair gaps nonincreasing over the 3-level sweep")

    def test_criterion_7_obstacle_properties(self, monkeypatch):
        rng = np.random.default_rng(7)
        grid = Grid(T=1.0, t_nodes=3, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(61,))
        ell = ex.parse(f"{ELL0}*(1 + xi1)", ("t", "x1", "xi1"))
        # the orthant as a ray runs the search; a shared scan-only probe set
        # makes both properties exact algebra
        cone = Cone.from_rays(np.eye(1))
        monkeypatch.setattr(obs, "COARSE", 41)
        monkeypatch.setattr(obs, "REFINE_LEVELS", 0)
        worst_mono = 0.0
        worst_shift = 0.0
        for _ in range(100):
            lower = rng.normal(size=grid.x_nodes[0])
            lift = rng.uniform(0.0, 1.0, size=grid.x_nodes[0])
            c = float(rng.uniform(-2.0, 2.0))
            (n_lower, n_upper, n_shift), _ = evaluate_slice_values(
                grid, np.stack([lower, lower + lift, lower + c]),
                [0.5, 0.5, 0.5], ell, cone)
            worst_mono = max(worst_mono, float(np.max(n_lower - n_upper)))
            worst_shift = max(worst_shift,
                              float(np.max(np.abs(n_shift - (n_lower + c)))))
        assert worst_mono <= 1e-12
        assert worst_shift <= 1e-12
        print(f"ACCEPTANCE 7: PASS — monotonicity ({worst_mono:.2g}) and "
              f"constant shifts ({worst_shift:.2g}) exact on 100 random "
              f"pairs")

    def test_criterion_8_assumption_audits(self):
        problem = transport_problem()
        spec = SamplerSpec(x_min=(-1.0,), x_max=(3.0,))
        for delta0 in (ELL0, 0.02):
            report = audit_H2(problem, constants_for(delta0=delta0), spec)
            sub = [c for c in report.checks
                   if c.name == "cost subadditivity"][0]
            assert abs(sub.worst_margin - (ELL0 - delta0)) <= 1e-12
            assert sub.passed
        violating = ImpulseProblem(
            n=1, T=1.0,
            H=ex.parse("3*p1*x1", ("t", "x1", "p1")),
            h=ex.parse("x1*exp(-x1)", ("x1",)),
            ell=ex.parse(f"{ELL0}*(1 + xi1)", ("t", "x1", "xi1")),
            cone=Cone.orthant(1),
        )
        report = audit_H1(violating, constants_for(), spec)
        growth = [c for c in report.checks
                  if c.name == "hamiltonian growth"][0]
        assert not growth.passed
        assert growth.worst_margin < 0.0
        print("ACCEPTANCE 8: PASS — proportional-cost subadditivity margin "
              "exact and the constructed growth violation is flagged "
              "negative")
