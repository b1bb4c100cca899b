"""Ordered-pair comparison and the two-point maximization diagnostic."""

import json
from dataclasses import replace

import numpy as np
import pytest

from qvilab import comparison as cmp
from qvilab import expr as ex
from qvilab.core import (Cone, ConfigError, Grid, GridFunction, ImpulseProblem,
                         make_env, sample)
from qvilab.solver import interior_mask, solve_qvi


def make_problem(H="-p1", h="x1*exp(-x1)", ell="0.05*(1 + xi1)", n=1, T=1.0):
    x_names = {f"x{d + 1}" for d in range(n)}
    p_names = {f"p{d + 1}" for d in range(n)}
    xi_names = {f"xi{d + 1}" for d in range(n)}
    return ImpulseProblem(
        n=n, T=T,
        H=ex.parse(H, {"t"} | x_names | p_names),
        h=ex.parse(h, x_names),
        ell=ex.parse(ell, {"t"} | x_names | xi_names),
        cone=Cone.orthant(n),
    )


GRID = Grid(T=1.0, t_nodes=61, x_min=(-1.0,), x_max=(4.0,), x_nodes=(141,))
BUMP = "max(0, 0.25 - (t - 0.5)^2 - (x1 - 1.5)^2)"


@pytest.fixture(scope="module")
def base():
    return make_problem()


@pytest.fixture(scope="module")
def pair_values(base):
    """The two solutions compare_solutions measures: the pair solved with
    one shared dissipation."""
    _, dominated = cmp.ordered_pair_generator(base, ("0.25", None, None))
    dissipation = cmp.shared_dissipation(base, dominated, GRID)
    return tuple(solve_qvi(problem, GRID, dissipation).V
                 for problem in (base, dominated))


class TestDoublingWeights:
    def test_defaults_satisfy_the_constraints(self):
        assert cmp.THETA * cmp.G == pytest.approx(0.1)
        assert cmp.NU > 1.0 and cmp.G > 1.0 and cmp.RHO > 0.0
        assert cmp.DOUBLING_LEVELS == tuple(0.1 / 2 ** k for k in range(3))

    def test_validation(self):
        grid = Grid(T=1.0, t_nodes=5, x_min=(-1.0,), x_max=(1.0,),
                    x_nodes=(5,))
        V = GridFunction(grid, np.zeros(grid.shape))
        for theta in (0.0, -0.01, 0.1, 0.2, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="theta"):
                cmp.doubling_maximize(V, V, theta=theta)
        cmp.doubling_maximize(V, V, theta=0.099)  # theta*G < 1: ok


class TestOrderedPairs:
    def test_zero_offsets_return_the_same_data(self, base):
        first, second = cmp.ordered_pair_generator(base, (None, None, None))
        assert first is base
        assert second.h is base.h
        assert second.H is base.H
        assert second.ell is base.ell

    def test_constant_terminal_offset(self, base):
        _, dominated = cmp.ordered_pair_generator(base, ("0.1", None, None))
        env = make_env(x=[np.array([-1.0, 0.0, 2.5])])
        lifted = ex.evaluate(dominated.h, env) - ex.evaluate(base.h, env)
        assert lifted == pytest.approx([0.1, 0.1, 0.1], abs=1e-15)

    def test_bump_offset_parses_and_is_nonnegative(self, base):
        _, dominated = cmp.ordered_pair_generator(base, (None, BUMP, None))
        env = {"t": 0.5, "x1": 1.5, "p1": 0.0}
        assert ex.evaluate(dominated.H, env) - ex.evaluate(base.H, env) \
            == pytest.approx(0.25)

    def test_negative_offset_rejected(self, base):
        with pytest.raises(ConfigError, match="samples negative"):
            cmp.ordered_pair_generator(base, ("-0.1", None, None))
        with pytest.raises(ConfigError, match="cost offset"):
            cmp.ordered_pair_generator(base, (None, None, "-0.01*xi1"))

    def test_sign_indefinite_bump_rejected(self, base):
        with pytest.raises(ConfigError, match="samples negative"):
            cmp.ordered_pair_generator(
                base, (None, "0.25 - (t - 0.5)^2 - (x1 - 1.5)^2", None))

    def test_only_given_offsets_are_judged(self, base):
        with pytest.raises(ConfigError, match="terminal offset could not be "
                                              "evaluated on the sample set"):
            cmp.ordered_pair_generator(base, ("log(x1 - 10)", None, None))
        # h cannot be evaluated anywhere on [-4, 4], so its order check
        # fails, but no terminal offset was given
        odd = make_problem(h="log(x1 - 10)")
        _, dominated = cmp.ordered_pair_generator(odd, (None, None, "0.02"))
        assert dominated.h is odd.h

    def test_disallowed_variable_rejected(self, base):
        bad = ex.parse("t", {"t"})
        with pytest.raises(ConfigError, match="disallowed"):
            cmp.ordered_pair_generator(base, (bad, None, None))

    def test_sum_obeys_the_parser_depth_bound(self, base):
        # the offset alone is 50 levels deep, the most a parsed tree may
        # be; its sum with ell would be one level deeper
        _, dominated = cmp.ordered_pair_generator(base, (None, None, "0.02"))
        names = {"t", "x1", "xi1"}
        assert ex.parse(ex.to_source(dominated.ell), names) == dominated.ell
        with pytest.raises(ex.ExprError):
            cmp.ordered_pair_generator(base, (None, None, "-" * 50 + "0.01"))

    def test_offsets_must_be_a_triple(self, base):
        with pytest.raises(ConfigError):
            cmp.ordered_pair_generator(base, ("0.1", None))


class TestCompareSolutions:
    @pytest.mark.parametrize("change, message", [
        ({"T": 2.0}, "share the horizon"),
        ({"n": 2, "cone": Cone.orthant(2), "H": ex.parse("-p1", {"p1"})},
         "mismatched problem dimensions"),
    ])
    def test_mismatched_pair_is_rejected_before_solving(self, base, change,
                                                        message, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_qvi ran on a mismatched pair")

        monkeypatch.setattr(cmp, "solve_qvi", refuse)
        with pytest.raises(ConfigError, match=message):
            cmp.compare_solutions(base, replace(base, **change), GRID)

    def test_identical_problems_differ_by_exactly_zero(self, base):
        report = cmp.compare_solutions(base, base, GRID)
        assert report.max_difference == 0.0
        assert report.passed and report.ordered

    def test_constant_shift_pair(self, base):
        _, dominated = cmp.ordered_pair_generator(base, ("0.1", None, None))
        report = cmp.compare_solutions(base, dominated, GRID)
        assert report.ordered
        assert report.max_difference == pytest.approx(-0.1, abs=1e-10)
        assert report.passed
        # the shift survives nodewise, not just on the interior box
        assert float(report.difference.values.max()) <= -0.1 + 1e-9

    def test_difference_is_the_pair_solved_with_one_dissipation(
            self, base, pair_values):
        # the report holds V - V_hat once, the grid its maximum is read
        # from and the one `compare` writes to difference.csv
        _, dominated = cmp.ordered_pair_generator(base, ("0.25", None, None))
        report = cmp.compare_solutions(base, dominated, GRID)
        V, V_hat = pair_values
        assert np.array_equal(report.difference.values,
                              V.values - V_hat.values)
        mask = interior_mask(GRID, report.dissipation)
        assert report.max_difference == float(
            report.difference.values[mask].max())

    def test_triple_offset_pair_keeps_the_order_nodewise(self, base):
        _, dominated = cmp.ordered_pair_generator(
            base, ("0.1", BUMP, "0.02"))
        report = cmp.compare_solutions(base, dominated, GRID)
        assert report.ordered
        assert report.max_difference <= 1e-9
        assert report.passed
        assert report.interior_points > 0

    def test_reversed_pair_needs_override(self, base):
        _, dominated = cmp.ordered_pair_generator(base, ("1.0", None, None))
        report = cmp.compare_solutions(dominated, base, GRID)
        assert not report.ordered
        assert report.max_difference == pytest.approx(1.0, abs=1e-9)
        assert not report.passed
        assert "order audit failed" in report.notes

    def test_shared_scheme_covers_both_hamiltonians(self, base):
        fast = make_problem(H="-3*p1")
        dissipation = cmp.shared_dissipation(base, fast, GRID)
        assert dissipation[0] == pytest.approx(3.15, rel=1e-6)

    def test_report_serializes(self, base):
        report = cmp.compare_solutions(base, base, GRID)
        payload = json.loads(json.dumps(report.to_dict(), indent=2))
        assert payload["passed"] is True
        assert payload["max_difference"] == 0.0


class TestDoublingMaximize:
    def test_constant_functions_maximize_on_the_diagonal(self):
        grid = Grid(T=1.0, t_nodes=21, x_min=(-2.0,), x_max=(2.0,),
                    x_nodes=(41,))
        V = GridFunction(grid, np.zeros(grid.shape))
        diag = cmp.doubling_maximize(V, V, levels=(0.1,))
        assert diag.stride == 1
        lev = diag.final
        assert lev.t0 == lev.s0 == 1.0
        assert lev.x0 == lev.y0 == (0.0,)
        assert lev.t_gap == 0.0 and lev.x_gap == 0.0
        assert lev.residual_symmetry == 0.0
        assert lev.residual_certified == 0.0
        # Phi = -(theta * w * 2<0> - rho * 2T) with w = (nu-1)/nu = 1/2
        assert lev.phi_value == pytest.approx(-0.008, abs=1e-15)
        assert diag.certificate_ok

    def test_trend_over_shrinking_penalties(self, pair_values):
        V, V_hat = pair_values
        diag = cmp.doubling_maximize(V, V_hat)
        assert len(diag.levels) == 3
        assert [lev.epsilon for lev in diag.levels] == [0.1, 0.05, 0.025]
        for lev in diag.levels:
            assert lev.residual_symmetry <= 0.0
            assert lev.residual_certified <= 0.0
        assert diag.gaps_nonincreasing()
        assert diag.certificate_ok
        assert diag.tuples_per_level <= cmp.TUPLE_BUDGET
        assert diag.stride >= 1

    def test_argmax_follows_the_largest_difference(self, base):
        # the profile is transported, so the jump-profitable strip lives in
        # the variable u = x - 1 + t; a box where V stays moderate keeps
        # the (1 - theta*G) weighting from rerouting the argmax
        grid = Grid(T=1.0, t_nodes=201, x_min=(0.5,), x_max=(3.5,),
                    x_nodes=(351,))
        profile = ex.parse("(x1 - 1 + t)*exp(-(x1 - 1 + t))", {"t", "x1"})
        V = sample(profile, grid)
        res = solve_qvi(base, grid)
        diff = V.values - res.V.values
        assert float(diff.max()) > 0.03
        k, i = np.unravel_index(int(diff.argmax()), diff.shape)
        oracle_u = grid.axes[0][i] - 1.0 + grid.t[k]
        diag = cmp.doubling_maximize(V, res.V, theta=0.001, levels=(0.05,))
        lev = diag.final
        u0 = lev.x0[0] - 1.0 + lev.t0
        assert abs(u0 - oracle_u) <= 0.3
        assert 0.4 < u0 < 2.7
        assert lev.residual_symmetry <= 0.0
        assert lev.residual_certified <= 0.0

    def test_custom_level_pairs_and_validation(self, pair_values):
        V, V_hat = pair_values
        diag = cmp.doubling_maximize(V, V_hat, levels=((0.1, 0.05),))
        assert diag.final.epsilon == 0.1
        assert diag.final.delta == 0.05
        with pytest.raises(ConfigError):
            cmp.doubling_maximize(V, V_hat, levels=())
        other = Grid(T=1.0, t_nodes=11, x_min=(-1.0,), x_max=(4.0,),
                     x_nodes=(21,))
        W = GridFunction(other, np.zeros(other.shape))
        with pytest.raises(ConfigError):
            cmp.doubling_maximize(V, W)

    def test_passed_needs_certificate_shrinking_gaps_and_residuals(
            self, pair_values):
        V, V_hat = pair_values
        diag = cmp.doubling_maximize(V, V_hat, levels=(0.1, 0.05))
        assert diag.passed
        first, last = diag.levels
        assert not replace(diag, certificate_ok=False).passed
        grown = replace(last, t_gap=first.t_gap + 1.0)
        assert not replace(diag, levels=(first, grown)).passed
        positive = replace(last, residual_certified=1e-9)
        assert not replace(diag, levels=(first, positive)).passed

    def test_trend_csv_and_json(self, pair_values):
        V, V_hat = pair_values
        diag = cmp.doubling_maximize(V, V_hat, levels=(0.1, 0.05))
        payload = json.loads(json.dumps(diag.to_dict(), indent=2))
        assert payload["certificate_ok"] is True
        assert len(payload["levels"]) == 2
        assert payload["levels"][0]["epsilon"] == 0.1
        # each level's float fields, the former trend.csv columns, are
        # read back from the JSON exactly
        columns = ["epsilon", "delta", "t0", "s0", "t_gap", "x_gap",
                   "phi_value", "residual_symmetry", "residual_certified",
                   "growth_lhs"]
        for lev, row in zip(diag.levels, payload["levels"]):
            assert [k for k, v in row.items() if isinstance(v, float)] == columns
            assert [row[k] for k in columns] == [getattr(lev, k)
                                                 for k in columns]


def sweep_every_tuple(FA, Bs, t, pair_norms, half_d2, theta, eps, T):
    """Reference for comparison._sweep_argmax: Phi on every tuple, one time
    slice k at a time, keeping the first maximiser in (k, l, i, j) order."""
    two_nu_T = 2.0 * cmp.NU * T
    best = -np.inf
    best_idx = (0, 0, 0, 0)
    for k in range(len(t)):
        w = (two_nu_T - t[k] - t) / two_nu_T
        pen = 0.5 / eps * (t[k] - t) ** 2 - cmp.RHO * (t[k] + t)
        phi = (theta * w[:, None, None] * pair_norms[None, :, :]
               + pen[:, None, None] + half_d2[None, :, :])
        val = FA[k][None, :, None] - Bs[:, None, :] - phi
        m = float(val.max())
        if m > best:
            best = m
            l, i, j = np.unravel_index(int(val.argmax()), val.shape)
            best_idx = (k, int(l), int(i), int(j))
    return best_idx


GRID_13x9 = Grid(T=1.0, t_nodes=13, x_min=(-1.0,), x_max=(2.0,),
                 x_nodes=(9,))  # last time block holds 5 of 8 nodes
GRID_16x20 = Grid(T=2.0, t_nodes=16, x_min=(-3.0,), x_max=(1.0,),
                  x_nodes=(20,))  # whole time blocks only
GRID_2D = Grid(T=0.5, t_nodes=11, x_min=(-1.0, 0.0), x_max=(1.0, 2.0),
               x_nodes=(5, 4))
GRID_STRIDED = Grid(T=1.0, t_nodes=201, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(61,))  # space strided by 5 within TUPLE_BUDGET


def random_pair(grid, seed, integer, same):
    rng = np.random.default_rng(seed)

    def draw():
        if integer:  # few distinct values, so Phi ties are common
            return rng.integers(-2, 3, size=grid.shape).astype(float)
        return rng.normal(size=grid.shape)

    V = GridFunction(grid, draw())
    return V, (V if same else GridFunction(grid, draw()))


def both_sweeps(V, V_hat, **kwargs):
    bounded = cmp.doubling_maximize(V, V_hat, **kwargs).to_dict()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cmp, "_sweep_argmax", sweep_every_tuple)
        reference = cmp.doubling_maximize(V, V_hat, **kwargs).to_dict()
    return bounded, reference


SWEEP_CASES = [
    # grid, seed, integer-valued, V_hat is V, theta, levels
    (GRID_13x9, 0, False, False, cmp.THETA, None),
    (GRID_13x9, 1, True, False, cmp.THETA, None),
    (GRID_13x9, 2, True, True, 0.001, ((0.1, 0.02), (0.03, 0.5))),
    (GRID_16x20, 3, False, False, 0.05, ((0.2, 0.05),)),
    (GRID_16x20, 4, True, False, 0.099, (0.5, 1e-3)),
    (GRID_2D, 5, False, False, cmp.THETA, ((0.05, 0.2), 0.01)),
    (GRID_2D, 6, True, False, 0.001, None),
    (GRID_2D, 7, True, True, 0.05, (1.0,)),
    (GRID_STRIDED, 8, True, False, cmp.THETA, (0.1, (0.02, 0.3))),
]


class TestBoundedSweep:
    @pytest.mark.parametrize("grid, seed, integer, same, theta, levels",
                             SWEEP_CASES)
    def test_same_diagnostics_as_the_full_sweep(self, grid, seed, integer,
                                                 same, theta, levels):
        V, V_hat = random_pair(grid, seed, integer, same)
        bounded, reference = both_sweeps(V, V_hat, theta=theta, levels=levels)
        assert bounded == reference

    def test_constant_functions_tie_everywhere_on_the_diagonal(self):
        V = GridFunction(GRID_13x9, np.full(GRID_13x9.shape, 2.0))
        bounded, reference = both_sweeps(V, V, levels=(10.0,))
        assert bounded == reference

    @pytest.mark.parametrize("block, incumbents", [(8, 64), (3, 1), (1, 5)])
    def test_single_block_chunks_and_other_block_shapes(self, monkeypatch,
                                                         block, incumbents):
        monkeypatch.setattr(cmp, "_chunk_blocks", lambda nt, q: 1)
        monkeypatch.setattr(cmp, "_TIME_BLOCK", block)
        monkeypatch.setattr(cmp, "_INCUMBENT_BLOCKS", incumbents)
        for grid, seed, integer, same, theta, levels in SWEEP_CASES[:8]:
            V, V_hat = random_pair(grid, seed, integer, same)
            bounded, reference = both_sweeps(V, V_hat, theta=theta,
                                             levels=levels)
            assert bounded == reference

    def test_certificate_uses_the_search_arithmetic(self, monkeypatch):
        # phi_value is the largest _phi over every tuple, bit for bit, so a
        # certificate tuple can exceed it only where the search missed one:
        # a search that returns the smallest tuple fails the certificate
        V, V_hat = random_pair(GRID_13x9, 0, False, False)
        nt, q = GRID_13x9.t_nodes, GRID_13x9.x_nodes[0]
        tuples = np.meshgrid(*map(np.arange, (nt, nt, q, q)), indexing="ij")
        seen = []
        search = cmp._sweep_argmax

        def spy(*args):
            seen.append(args)
            return search(*args)

        monkeypatch.setattr(cmp, "_sweep_argmax", spy)
        diag = cmp.doubling_maximize(V, V_hat)
        assert diag.certificate_ok and len(seen) == len(diag.levels)
        for args, lev in zip(seen, diag.levels):
            assert float(cmp._phi(*args, *tuples).max()) == lev.phi_value

        def smallest(*args):
            full = cmp._phi(*args, *tuples)
            return np.unravel_index(int(full.argmin()), full.shape)

        monkeypatch.setattr(cmp, "_sweep_argmax", smallest)
        assert not cmp.doubling_maximize(V, V_hat).certificate_ok

    def test_chunks_hold_at_most_one_time_slice(self):
        for nt, q in ((201, 15), (13, 9), (2, 1), (101, 30)):
            chunk = cmp._chunk_blocks(nt, q)
            assert chunk >= 1
            assert chunk * cmp._TIME_BLOCK ** 2 <= max(nt * q * q,
                                                       cmp._TIME_BLOCK ** 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_overflowing_magnitudes_skip_the_same_time_slices(self, seed):
        # |x - y|^2 overflows to inf and (1 - theta*G) V - V_hat to +-inf,
        # so some slices hold NaN; both sweeps must skip the same ones
        grid = Grid(T=1.0, t_nodes=13, x_min=(-1e154,), x_max=(1e154,),
                    x_nodes=(5,))
        rng = np.random.default_rng(seed)
        V = GridFunction(grid, rng.choice([-1.5e308, 0.0, 1.0, 1.5e308],
                                          size=grid.shape))
        V_hat = GridFunction(grid, rng.choice([-1.5e308, 0.0, -1.0, 1.5e308],
                                              size=grid.shape))
        with np.errstate(all="ignore"):
            bounded, reference = both_sweeps(V, V_hat, levels=(0.1,))
        # json spells NaN, so equal text means equal values, NaN included
        assert json.dumps(bounded) == json.dumps(reference)
