import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspec import EvalError, ParseError, breakpoints, parse, pretty
from fracspec.coeffexpr import breaks_of, sample


def test_basic_arithmetic():
    assert parse("1+2*x").eval(0.25) == 1.5
    assert parse("2*3+4").eval(0.0) == 10.0
    assert parse("2+3*4").eval(0.0) == 14.0
    assert parse("10/4").eval(0.0) == 2.5
    assert parse("7-2-1").eval(0.0) == 4.0
    assert parse("(7-2)-1").eval(0.0) == 4.0
    assert parse("7-(2-1)").eval(0.0) == 6.0


def test_functions():
    assert parse("exp(x)").eval(0.0) == 1.0
    assert parse("5+sin(x)").eval(0.0) == 5.0
    assert parse("1-0.3*sin(x)").eval(0.0) == 1.0
    assert parse("sqrt(x)").eval(0.25) == 0.5
    assert parse("abs(-3)").eval(0.0) == 3.0
    assert parse("cos(0)").eval(0.9) == 1.0
    assert parse("log(exp(1))").eval(0.0) == pytest.approx(1.0, rel=1e-15)


def test_power_binds_tighter_than_unary_minus():
    assert parse("-x^2").eval(2.0) == -4.0
    assert parse("(-x)^2").eval(2.0) == 4.0


def test_power_right_associative():
    assert parse("2^3^2").eval(0.0) == 512.0
    assert parse("(2^3)^2").eval(0.0) == 64.0


def test_piecewise_breakpoint_belongs_to_right_branch():
    e = parse("piecewise(0.5; 2; 1)")
    assert e.eval(0.25) == 2.0
    assert e.eval(0.75) == 1.0
    assert e.eval(0.5) == 1.0


def test_piecewise_inactive_branch_not_evaluated():
    # left branch would take log of a negative number for small x
    e = parse("piecewise(0.5; 1; log(x - 0.4))")
    assert e.eval(0.1) == 1.0
    xs = np.linspace(0.0, 0.49, 20)
    assert np.all(e(xs) == 1.0)


def test_breakpoints_collection():
    assert breakpoints(parse("1+2*x")) == []
    assert breakpoints(parse("piecewise(0.5; 2; 1)")) == [0.5]
    nested = parse("piecewise(0.25; piecewise(0.5; 1; 2); 3)")
    assert breakpoints(nested) == [0.25, 0.5]
    # duplicates collapse; values outside the open interval are dropped
    twice = parse("piecewise(0.5; 1; 2) + piecewise(0.5; 3; 4)")
    assert breakpoints(twice) == [0.5]
    assert breakpoints(parse("piecewise(2; 1; 0)")) == []


def test_constant_breakpoint_may_be_an_expression():
    e = parse("piecewise(1/4 + 1/4; 2; 1)")
    assert e.eval(0.4) == 2.0 and e.eval(0.6) == 1.0
    with pytest.raises(ParseError):
        parse("piecewise(x; 1; 2)")


def test_numbers_with_exponents():
    assert parse("1e-3").eval(0.0) == 1e-3
    assert parse("2.5E2").eval(0.0) == 250.0
    assert parse(".5").eval(0.0) == 0.5
    with pytest.raises(ParseError):
        parse("1e999")


def test_whitespace_insignificant():
    assert parse(" 1 +\t2 *\n x ").eval(0.5) == 2.0


def test_syntax_errors_carry_byte_offsets():
    with pytest.raises(ParseError) as err:
        parse("1+*x")
    assert err.value.offset == 2
    assert "byte 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("(1+2")
    assert "')'" in str(err.value)
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("1+2)")


def test_unknown_identifier_and_arity():
    with pytest.raises(ParseError) as err:
        parse("foo(x)")
    assert "unknown function 'foo'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("y+1")
    assert "unknown identifier 'y'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("sin(x; 2)")
    assert "one argument" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("piecewise(0.5; 1; 2; 3)")
    assert "three" in str(err.value)


# one input per place the parser raises, with its whole message and byte
# offset; the later rows put multi-byte characters before the error, so the
# byte offset runs past the character index
PARSE_ERRORS = [
    (None, "expression source must be text (byte 0)", 0),
    (" \t", "empty expression (byte 2)", 2),
    ("1 2", "unexpected trailing input '2' (byte 2)", 2),
    ("(1", "expected ')', found 'end of input' (byte 2)", 2),
    ("(1,2)", "expected ')', found ',' (byte 2)", 2),
    ("(" * 300 + "1", "expression too deeply nested (byte 200)", 200),
    ("-" * 1000 + "1", "expression too deeply nested (byte 399)", 399),
    ("1+*x", "expected a value, found '*' (byte 2)", 2),
    ("y+1", "unknown identifier 'y' (byte 0)", 0),
    ("foo(1)", "unknown function 'foo' (byte 0)", 0),
    ("abs(1,2)", "'abs' takes exactly one argument (byte 5)", 5),
    (
        "piecewise(0.5; 1; 2; 3)",
        "'piecewise' takes exactly three ';'-separated arguments (byte 19)",
        19,
    ),
    (
        "piecewise(x; 1; 2)",
        "piecewise breakpoint must be a constant expression (byte 0)",
        0,
    ),
    (
        "piecewise(log(0); 1; 2)",
        "piecewise breakpoint failed to fold: domain error evaluating 'log(0.0)': "
        "divide by zero encountered in log (byte 0)",
        0,
    ),
    ("2*.", "bad number '.' (byte 2)", 2),
    ("1e400", "number '1e400' overflows (byte 0)", 0),
    ("1.5ex", "unexpected trailing input 'e' (byte 3)", 3),
    ("piecewise(0.5; 1; 2)\u00a0\u00a0y", "unexpected trailing input 'y' (byte 24)", 24),
    ("2*µ² + exp(ü", "unknown identifier 'µ²' (byte 2)", 2),
    ("µ + exp(ü", "unknown identifier 'µ' (byte 0)", 0),
    ("x*é + (ü", "unknown identifier 'é' (byte 2)", 2),
    # numbers are ASCII digits only, whatever float() would read
    ("exp(²) ", "expected a value, found '²' (byte 4)", 4),
    ("sqrt(٣) µ ^ 2", "expected a value, found '٣' (byte 5)", 5),
]


@pytest.mark.parametrize("src, message, offset", PARSE_ERRORS)
def test_parse_error_messages_frozen(src, message, offset):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == message
    assert err.value.offset == offset


def test_deep_nesting_is_rejected_not_crashed():
    src = "(" * 5000 + "1" + ")" * 5000
    with pytest.raises(ParseError):
        parse(src)


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        parse("log(x-2)").eval(0.5)
    with pytest.raises(EvalError):
        parse("sqrt(x-1)").eval(0.5)
    with pytest.raises(EvalError):
        parse("1/(x-x)").eval(0.3)
    with pytest.raises(EvalError) as err:
        parse("1 + log(-x)").eval(0.5)
    # the message names the failing subexpression, not the whole input
    assert "log" in str(err.value)
    # a non-finite input is no domain error, but its value is still refused
    with pytest.raises(EvalError, match=r"non-finite value from 'x\+1.0'"):
        parse("x+1")(np.array([np.nan]))


def test_sample_raises_eval_error_without_pointwise_retry():
    # a domain error is the coefficient's own failure: sampling must not
    # evaluate it again point by point before raising it
    inner = parse("log(0.95-x)")
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return inner(x)

    with pytest.raises(EvalError):
        sample(counted, np.linspace(0.0, 0.99, 50))
    assert calls == [50]


def test_sample_scalar_only_callables_and_constants():
    xs = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(sample(math.exp, xs), [math.exp(x) for x in xs])
    assert np.array_equal(sample(lambda x: 2.0, xs), np.full(5, 2.0))
    assert np.array_equal(sample(parse("piecewise(0.5; 2; 1)"), xs), [2, 2, 1, 1, 1])


def test_breaks_of():
    assert breaks_of(parse("piecewise(0.5; 2; 1)")) == [0.5]
    assert breaks_of(parse("exp(x)")) == []
    assert breaks_of(np.exp) == []


def test_abs_of_affine_argument_reports_its_kink():
    assert breaks_of(parse("1+abs(x-0.37)")) == [0.37]
    assert breaks_of(parse("abs((0.5-x)/2)*3")) == [0.5]
    assert breaks_of(parse("abs(-2*x+0.5)")) == [0.25]
    assert breaks_of(parse("abs(x*2-1)")) == breaks_of(parse("abs(2*x-1)")) == [0.5]
    # the kink of a non-affine argument cannot be located structurally
    assert breaks_of(parse("abs(x^2-0.2)")) == []
    assert breaks_of(parse("abs(x*x-0.2)")) == []
    # a kink at an endpoint or outside (0,1) needs no split
    assert breaks_of(parse("abs(x)")) == []
    assert breaks_of(parse("abs(x-2)")) == []


def test_vectorized_matches_scalar():
    e = parse("piecewise(0.5; 2; 1) + sin(x)^2/(1+x)")
    xs = np.linspace(0.0, 1.0, 37)
    vec = e(xs)
    for x, v in zip(xs, vec):
        assert abs(v - e.eval(float(x))) < 1e-15


def test_pretty_round_trip_examples():
    for src in [
        "1+2*x",
        "-x^2",
        "2^3^2",
        "piecewise(0.5; 2; 1) + sin(x)^2/(1+x)",
        "1-0.3*sin(x)",
        "exp(x)*(5+sin(x))",
        "-(1+x)",
        "1/(2/x)",
        "2-(3-4)",
    ]:
        once = pretty(parse(src))
        twice = pretty(parse(once))
        assert once == twice
        xs = np.linspace(0.01, 0.99, 7)
        assert np.allclose(parse(src)(xs), parse(once)(xs), rtol=1e-15, atol=0)


_leaf = st.sampled_from(["x", "1", "2", "0.5", "3.25", "1e-2"])
_func = st.sampled_from(["sin", "cos", "exp", "abs"])
_ops = st.sampled_from(["+", "-", "*"])


def _expr_strings(depth=3):
    if depth == 0:
        return _leaf
    sub = _expr_strings(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, _ops, sub).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(_func, sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"piecewise(0.5; {t[0]}; {t[1]})"),
        sub.map(lambda s: f"-{s}"),
    )


@settings(max_examples=150, deadline=None)
@given(_expr_strings())
def test_pretty_fixed_point_property(src):
    once = pretty(parse(src))
    assert pretty(parse(once)) == once


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40))
def test_fuzz_never_crashes(data):
    try:
        parse(data.decode("latin-1"))
    except ParseError:
        pass
