import math

import numpy as np
import pytest

from qvilab import expr
from qvilab.expr import (
    DomainError,
    ParseError,
    UndeclaredVariableError,
    evaluate,
    parse,
    to_source,
)


VARS = ("t", "x1", "x2", "p1", "p2", "xi1", "xi2", "l0")


def ev(src, **env):
    return evaluate(parse(src, VARS), env)


class TestPrecedence:
    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_above_mul(self):
        assert ev("2*3^2") == 18.0
        assert ev("3^2*2") == 18.0

    def test_mul_above_add(self):
        assert ev("2+3*4") == 14.0

    def test_unary_minus_tighter_than_binary(self):
        # "-a - b" groups as "(-a) - b"
        assert ev("-2 - 3") == -5.0
        assert ev("2*-3") == -6.0
        assert ev("2^-3") == 0.125

    def test_unary_minus_below_power(self):
        # follows the common convention: -2^2 is -(2^2)
        assert ev("-2^2") == -4.0

    def test_parentheses(self):
        assert ev("(2+3)*4") == 20.0
        assert ev("(-2)^2") == 4.0

    def test_random_triples_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (float(v) for v in rng.uniform(0.5, 3.0, size=3))
            src = f"{a!r} + {b!r} * {c!r} ^ 2 - {a!r} / {b!r}"
            want = a + b * c**2 - a / b
            assert ev(src) == want


class TestEvaluation:
    def test_exp_at_minus_one(self):
        got = ev("x1*exp(-x1)", x1=1.0)
        assert got == pytest.approx(0.3678794411714423, abs=1e-16)

    def test_cost_expression(self):
        assert ev("l0+l0*xi1", l0=0.05, xi1=2.0) == pytest.approx(0.15)

    def test_min_max_sign_abs(self):
        assert ev("min(t,x1)", t=2.0, x1=-1.0) == -1.0
        assert ev("max(t,x1)", t=2.0, x1=-1.0) == 2.0
        assert ev("sign(x1)", x1=-3.5) == -1.0
        assert ev("sign(x1)", x1=0.0) == 0.0
        assert ev("abs(-4)^0.5") == 2.0

    def test_trig(self):
        assert ev("cos(0)") == 1.0
        assert ev("sin(0)") == 0.0

    def test_scientific_notation(self):
        assert ev("1.5e-3") == 0.0015
        assert ev("2E2 + .5") == 200.5

    def test_vectorized_matches_scalar(self):
        e = parse("x1*exp(-x1) + t^2", VARS)
        xs = np.linspace(-2.0, 5.0, 37)
        ts = np.full_like(xs, 0.7)
        vec = evaluate(e, {"x1": xs, "t": ts})
        for i, x in enumerate(xs):
            assert vec[i] == evaluate(e, {"x1": float(x), "t": 0.7})

    def test_broadcasting(self):
        e = parse("x1 + xi1", VARS)
        out = evaluate(e, {"x1": np.zeros((3, 1)), "xi1": np.arange(4.0)})
        assert out.shape == (3, 4)
        assert np.array_equal(out[0], np.arange(4.0))


class TestDomainErrors:
    def test_log_nonpositive(self):
        with pytest.raises(DomainError) as err:
            ev("log(x1)", x1=-1.0)
        assert "log" in str(err.value)

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            ev("sqrt(x1-2)", x1=0.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/x1", x1=0.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(DomainError) as err:
            ev("x1^0.5", x1=-2.0)
        assert "-2.0" in str(err.value)

    def test_negative_base_integer_power_ok(self):
        assert ev("x1^3", x1=-2.0) == -8.0

    def test_overflow_reported(self):
        with pytest.raises(DomainError):
            ev("exp(x1)", x1=1e4)

    def test_vectorized_domain_error_names_offender(self):
        e = parse("log(x1)", VARS)
        with pytest.raises(DomainError) as err:
            evaluate(e, {"x1": np.array([1.0, 2.0, -3.0])})
        assert "-3.0" in str(err.value)


def power_broadcast(base, expo):
    """Reference for expr._eval_power: the exponent broadcast to the
    base's shape before every test."""
    base, expo = np.broadcast_arrays(np.asarray(base, dtype=float),
                                     np.asarray(expo, dtype=float))
    neg_frac = (base < 0.0) & (np.mod(expo, 1.0) != 0.0)
    if np.any(neg_frac):
        raise DomainError("^", expr._first_offender(base, neg_frac))
    if np.any((base == 0.0) & (expo < 0.0)):
        raise DomainError("^", 0.0)
    with np.errstate(all="ignore"):
        out = np.power(base, expo)
    return expr._check_finite(out, "^", base)


def power_error(fn, base, expo):
    with pytest.raises(DomainError) as err:
        fn(base, expo)
    return str(err.value)


class TestPowerExponentShapes:
    """A constant exponent is tested once, not broadcast to the base."""

    @pytest.mark.parametrize("expo", [2, 3.0, 0.5, -1])
    def test_constant_exponent_matches_broadcast_bitwise(self, expo):
        rng = np.random.default_rng(7)
        base = rng.uniform(0.01, 5.0, (195, 695))
        if float(expo).is_integer():
            base[::3] *= -1.0  # negative bases with integral exponents
        for b in (base, base[:, 0], float(base[1, 1])):
            got = expr._eval_power(b, expo)
            want = power_broadcast(b, expo)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_same_domain_errors(self):
        rows = [(-1.0, 0.5), (0.0, -1), (np.array([2.0, -1.0, -3.0]), 0.5),
                (np.array([1.0, 0.0]), -1.0), (np.array([1e200]), 2.0)]
        for base, expo in rows:
            assert power_error(expr._eval_power, base, expo) \
                == power_error(power_broadcast, base, expo)
        assert "-1.0" in power_error(expr._eval_power, -1.0, 0.5)

    def test_array_exponent_still_broadcasts(self):
        base = np.array([[1.0], [2.0], [4.0]])
        expo = np.array([[0.5, 2.0, -1.0, 3.0]])
        got = expr._eval_power(base, expo)
        assert got.shape == (3, 4)
        assert np.array_equal(got, power_broadcast(base, expo))
        assert np.array_equal(expr._eval_power(2.0, expo),
                              power_broadcast(2.0, expo))
        # the offender is read off the broadcast base
        base = np.array([[1.0], [-2.0]])
        expo = np.array([[2.0, 0.5]])
        assert power_error(expr._eval_power, base, expo) \
            == power_error(power_broadcast, base, expo)
        # a zero base fails only where its own exponent is negative
        base = np.array([0.0, 3.0])
        assert np.array_equal(expr._eval_power(base, np.array([2.0, -1.0])),
                              power_broadcast(base, np.array([2.0, -1.0])))
        assert power_error(expr._eval_power, base, np.array([-1.0, 2.0])) \
            == power_error(power_broadcast, base, np.array([-1.0, 2.0]))
        # an overflow names its base, read off the broadcast shape as well
        base = np.array([[2.0], [10.0]])
        expo = np.array([[2.0, 400.0]])
        assert power_error(expr._eval_power, base, expo) \
            == power_error(power_broadcast, base, expo)
        assert "10.0" in power_error(expr._eval_power, base, expo)


class TestParseErrors:
    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariableError) as err:
            parse("q1+1", VARS)
        assert "q1" in str(err.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("2+*3", VARS)
        assert err.value.pos == 2

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("2+3)", VARS)

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("tan(x1)", VARS)

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse("min(x1)", VARS)
        with pytest.raises(ParseError):
            parse("exp(x1, t)", VARS)

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("2 @ 3", VARS)

    def test_function_name_not_a_variable(self):
        with pytest.raises(ParseError):
            parse("exp + 1", VARS)


class TestRoundTrip:
    CASES = [
        "2^3^2",
        "-x1^2 + t*xi1",
        "x1*exp(-x1)",
        "min(t, max(x1, -x2)) + sign(p1)*abs(p2)",
        "l0 + l0*xi1 - 1.5e-3/(x1+10)",
        "sqrt(abs(x1)) ^ (t+1)",
        "-(-(-x1))",
        "cos(t)^2 + sin(t)^2",
    ]

    def test_reprint_evaluates_bit_identically(self):
        rng = np.random.default_rng(11)
        for src in self.CASES:
            original = parse(src, VARS)
            reparsed = parse(to_source(original), VARS)
            for _ in range(100):
                env = {v: float(rng.uniform(0.1, 2.0)) for v in VARS}
                assert evaluate(original, env) == evaluate(reparsed, env)

    def test_immutability(self):
        node = parse("x1+1", VARS)
        with pytest.raises(AttributeError):
            node.op = "-"

    def test_variables_listing(self):
        node = parse("x1*exp(-x1) + t - min(p1, xi1)", VARS)
        assert expr.variables(node) == {"x1", "t", "p1", "xi1"}
