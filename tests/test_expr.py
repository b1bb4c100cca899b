import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvilab import expr
from qvilab.expr import (
    MAX_DEPTH,
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

    @pytest.mark.parametrize("src, pos", [
        ("1e400", 0), ("-1.8e308", 1), ("0.05 + xi1^1e400", 11),
        ("min(t, 2e308)", 7)])
    def test_literal_that_overflows_is_an_error(self, src, pos):
        with pytest.raises(ParseError, match="overflows a float") as err:
            parse(src, VARS)
        assert err.value.pos == pos

    def test_extreme_finite_literals_are_read(self):
        assert ev("1.7976931348623157e308") == sys.float_info.max
        assert ev("5e-324") == 5e-324
        assert ev("1e-400") == 0.0


def nested(construct, levels):
    """Text `levels` deep, or with `levels` parentheses open, built by
    repeating one construct around x1."""
    if construct == "parentheses":
        return "(" * levels + "x1" + ")" * levels
    if construct == "minus":
        return "-" * levels + "x1"
    if construct == "sum":
        return " + ".join(["x1"] * (levels + 1))
    if construct == "power":
        return "^".join(["x1"] * (levels + 1))
    if construct == "call":
        return "sin(" * levels + "x1" + ")" * levels
    if construct == "min":
        return "min(t, " * levels + "x1" + ")" * levels
    if construct == "product":
        return "2*(" * levels + "x1" + ")" * levels
    raise ValueError(construct)


def frames():
    """Frames on the stack below the caller."""
    frame, count = sys._getframe(1), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


CONSTRUCTS = ["parentheses", "minus", "sum", "power", "call", "min",
              "product"]
TOO_DEEP = f"(deeper than|more than) {MAX_DEPTH} (levels|parentheses)"


class TestDepth:
    @pytest.mark.parametrize("construct", CONSTRUCTS)
    def test_text_at_the_bound_parses_and_reprints(self, construct):
        node = parse(nested(construct, MAX_DEPTH), VARS)
        assert parse(to_source(node), VARS) == node

    @pytest.mark.parametrize("construct", CONSTRUCTS)
    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 5000])
    def test_text_past_the_bound_is_an_error(self, construct, levels):
        with pytest.raises(ParseError, match=TOO_DEEP):
            parse(nested(construct, levels), VARS)

    def test_every_path_counts(self):
        # one level short of the bound, then one operator on either side
        deep = nested("minus", MAX_DEPTH - 1)
        for ok in (f"{deep} - 1", f"1 - {deep}", f"{deep} - -1"):
            parse(ok, VARS)
        for bad in (f"({deep})*2 - 1", f"1 - 2*({deep})", f"-({deep})^2"):
            with pytest.raises(ParseError, match=TOO_DEEP):
                parse(bad, VARS)
        # a call's parentheses count with the ones around it
        parse(nested("parentheses", MAX_DEPTH - 1).replace("x1", "exp(x1)"),
              VARS)
        with pytest.raises(ParseError, match=TOO_DEEP):
            parse(nested("parentheses", MAX_DEPTH).replace("x1", "exp(x1)"),
                  VARS)

    @pytest.mark.parametrize("construct", CONSTRUCTS)
    def test_every_walk_at_the_bound_fits_in_400_frames(self, construct):
        source = nested(construct, MAX_DEPTH)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames() + 400)
        try:
            node = parse(source, VARS)
            evaluate(node, {"t": 0.5, "x1": 0.5})
            parse(to_source(node), VARS)
            expr.variables(node)
            expr.degree(node, {"x1"})
            hash(node)
            assert node == parse(source, VARS)
        finally:
            sys.setrecursionlimit(limit)


def reference_xi_free(node):
    return not any(name.startswith("xi") for name in expr.variables(node))


def reference_x_free(node):
    return not any(name.startswith("x") and not name.startswith("xi")
                   for name in expr.variables(node))


def reference_affine_in_xi(node):
    """Structural affinity in xi as a direct recursion over the node
    types: the rule `degree` must reproduce."""
    if isinstance(node, expr.Neg):
        return reference_affine_in_xi(node.arg)
    if isinstance(node, expr.Bin):
        if node.op in ("+", "-"):
            return (reference_affine_in_xi(node.left)
                    and reference_affine_in_xi(node.right))
        if node.op == "*":
            return (reference_xi_free(node.left)
                    and reference_affine_in_xi(node.right)) or (
                reference_xi_free(node.right)
                and reference_affine_in_xi(node.left))
        if node.op == "/":
            return (reference_xi_free(node.right)
                    and reference_affine_in_xi(node.left))
    if isinstance(node, (expr.Bin, expr.Call)):
        return reference_xi_free(node)
    return True  # Num or Var


TREE_NAMES = ("t", "x1", "x2", "xi1", "xi2")


def trees(max_leaves=40):
    leaves = st.one_of(st.sampled_from([0.0, 1.0, 2.5]).map(expr.Num),
                       st.sampled_from(TREE_NAMES).map(expr.Var))
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(expr.Neg),
        st.builds(expr.Bin, st.sampled_from("+-*/^"), sub, sub),
        st.builds(lambda f, a: expr.Call(f, (a,)),
                  st.sampled_from(expr._UNARY_FUNCS), sub),
        st.builds(lambda f, a, b: expr.Call(f, (a, b)),
                  st.sampled_from(expr._BINARY_FUNCS), sub, sub),
    ), max_leaves=max_leaves)


class TestDegree:
    @pytest.mark.parametrize("src, want", [
        ("0.3", 0), ("exp(t)*x1", 0), ("xi1", 1), ("0.05*(1 + xi1)", 1),
        ("-(-0.1 - xi1)", 1), ("(0.1 + 0.05*xi1)/2", 1),
        ("exp(t)*xi1 + 0.1 + t^2", 1), ("xi1 - xi2 + x1*xi2", 1),
        ("xi1*xi2", None), ("xi1*xi1", None), ("2/xi1", None),
        ("xi1^1", None), ("2^xi1", None), ("sqrt(xi1)", None),
        ("min(xi1, 1)", None), ("abs(xi2)", None)])
    def test_degree_in_xi(self, src, want):
        assert expr.degree(parse(src, VARS), {"xi1", "xi2"}) == want

    def test_names_pick_the_variables(self):
        node = parse("x1*exp(-t) + xi1", VARS)
        assert expr.degree(node, {"x1"}) == 1
        assert expr.degree(node, {"t"}) is None
        assert expr.degree(node, {"p1"}) == 0
        assert expr.degree(node, set()) == 0

    @settings(max_examples=500, deadline=None)
    @given(node=trees())
    def test_agrees_with_the_direct_recursion(self, node):
        xi = expr.degree(node, {"xi1", "xi2"})
        assert (xi is not None) == reference_affine_in_xi(node)
        assert (xi == 0) == reference_xi_free(node)
        assert (expr.degree(node, {"x1", "x2"}) == 0) == reference_x_free(node)


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
