"""Ordered-pair comparison and the two-point maximization diagnostic."""

import json

import numpy as np
import pytest

from qvilab import comparison as cmp
from qvilab import expr as ex
from qvilab.core import Cone, ConfigError, Grid, GridFunction, ImpulseProblem, sample


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
    _, dominated = cmp.ordered_pair_generator(base, ("0.25", None, None))
    report = cmp.compare_solutions(base, dominated, GRID)
    return report.V, report.V_hat


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
        x = [np.array([-1.0, 0.0, 2.5])]
        lifted = dominated.terminal(x) - base.terminal(x)
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

    def test_offsets_must_be_a_triple(self, base):
        with pytest.raises(ConfigError):
            cmp.ordered_pair_generator(base, ("0.1", None))


class TestCompareSolutions:
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
        assert float((report.V.values - report.V_hat.values).max()) \
            <= -0.1 + 1e-9

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
        from qvilab.solver import solve_qvi
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
        with pytest.raises(ConfigError):
            cmp.doubling_maximize(V, V_hat, gamma=1.0)
        other = Grid(T=1.0, t_nodes=11, x_min=(-1.0,), x_max=(4.0,),
                     x_nodes=(21,))
        W = GridFunction(other, np.zeros(other.shape))
        with pytest.raises(ConfigError):
            cmp.doubling_maximize(V, W)

    def test_trend_csv_and_json(self, pair_values, tmp_path):
        V, V_hat = pair_values
        diag = cmp.doubling_maximize(V, V_hat, levels=(0.1, 0.05))
        payload = json.loads(json.dumps(diag.to_dict(), indent=2))
        assert payload["certificate_ok"] is True
        assert len(payload["levels"]) == 2
        path = tmp_path / "trend.csv"
        cmp.write_trend_csv(diag, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("epsilon,")
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.1
