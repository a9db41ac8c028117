import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torusfp import expressions as ex
from torusfp.errors import (
    ExprArityError,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
)
from torusfp.grid import TorusGrid

# corpus for the round-trip property: 50 expressions covering the grammar
CORPUS = [
    "1",
    "2.5",
    "1e-3",
    "2E+4",
    "pi",
    "x1",
    "t",
    "-x1",
    "--x1",
    "2+3*4",
    "(2+3)*4",
    "2-3-4",
    "2-(3-4)",
    "12/4/3",
    "12/(4/3)",
    "2^3^2",
    "(2^3)^2",
    "-2^2",
    "(-2)^2",
    "2^-3",
    "x1^2",
    "2*-3",
    "1 + 0.5*cos(2*pi*x1)",
    "sin(2*pi*x1)",
    "cos(x1)*sin(t)",
    "exp(-cos(2*pi*x1))",
    "log(1+x1)",
    "sqrt(1+x1^2)",
    "abs(x1-0.5)",
    "exp(0)",
    "1/(2+cos(2*pi*x1))",
    "2+cos(2*pi*x1)",
    "1+0.25*cos(2*pi*x1)",
    "x1*x2",
    "sin(2*pi*x1)*cos(2*pi*x2)",
    "1+0.1*sin(2*pi*t)",
    "pi*pi",
    "pi^2",
    "-(x1+t)",
    "x1-t",
    "exp(x1)*exp(-x1)",
    "sqrt(abs(x1))",
    "cos(2*pi*x1)^2",
    "1-cos(2*pi*x1)^2",
    "3.25",
    "0.5*(1+cos(2*pi*x1))",
    "2/(1+exp(-x1))",
    "log(exp(1))",
    "sin(pi*x1)^2 + cos(pi*x1)^2",
    "1 + x1 + x1^2 + x1^3",
]


def test_corpus_has_50_expressions():
    assert len(CORPUS) == 50


@pytest.mark.parametrize("src", CORPUS)
def test_roundtrip_corpus(src):
    tree = ex.parse_expr(src)
    printed = ex.to_source(tree)
    assert ex.parse_expr(printed) == tree


# expression trees over the whole grammar for the round-trip property; the
# parser reads a literal's sign as a unary minus, so literals are non-negative
def _trees(children):
    return st.one_of(
        children.map(ex.Neg),
        st.builds(ex.BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(ex.Call, st.sampled_from(ex._FUNCTIONS), children),
    )


_LEAVES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(ex.Num),
    st.sampled_from(("x1", "x2", "t")).map(ex.Var),
    st.just(ex.PiConst()),
)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.recursive(_LEAVES, _trees, max_leaves=12))
# 0.1 + 0.2 + 0.3 would reparse as (0.1 + 0.2) + 0.3, which sums to 0.6000000000000001
@example(ex.parse_expr("0.1 + (0.2 + 0.3)"))
def test_roundtrip_generated_trees(tree):
    assert ex.parse_expr(ex.to_source(tree)) == tree


def test_precedence_suite():
    at0 = lambda s: ex.eval_expr(ex.parse_expr(s), [0.0], 0.0)
    assert at0("2+3*4") == 14
    assert at0("2*3+4") == 10
    assert at0("2-3-4") == -5
    assert at0("12/4/3") == 1
    assert at0("2^3^2") == 512  # right-associative
    assert at0("-2^2") == -4  # ^ binds tighter than unary minus
    assert at0("(-2)^2") == 4
    assert at0("2^-3") == 0.125
    assert at0("2*-3") == -6
    assert at0("1 + 0.5*cos(2*pi*0.0)") == 1.5


def test_eval_examples():
    assert ex.eval_expr(ex.parse_expr("exp(0)"), [0.0]) == 1.0
    assert ex.eval_expr(ex.parse_expr("x1^2"), [0.5]) == 0.25
    assert ex.eval_expr(ex.parse_expr("1 + 0.5*cos(2*pi*x1)"), [0.0]) == 1.5


def test_unknown_identifier_offset():
    with pytest.raises(ExprNameError) as err:
        ex.parse_expr("foo(x1)")
    assert err.value.offset == 0
    with pytest.raises(ExprNameError) as err:
        ex.parse_expr("1 + bar")
    assert err.value.offset == 4


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse_expr("2+")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse_expr("(1+2")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse_expr("1 ? 2")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        ex.parse_expr("")
    with pytest.raises(ExprSyntaxError):
        ex.parse_expr("   ")


def test_arity_errors():
    with pytest.raises(ExprArityError) as err:
        ex.parse_expr("sin(x1, t)")
    assert err.value.offset == 6  # the comma
    with pytest.raises(ExprArityError):
        ex.parse_expr("sin + 1")


def test_domain_errors():
    with pytest.raises(ExprDomainError) as err:
        ex.eval_expr(ex.parse_expr("log(-1)"), [0.0])
    assert "log" in str(err.value)
    with pytest.raises(ExprDomainError):
        ex.eval_expr(ex.parse_expr("sqrt(-2)"), [0.0])
    with pytest.raises(ExprDomainError) as err:
        ex.eval_expr(ex.parse_expr("1/(x1-0.5)"), [0.5])
    assert "division by zero" in str(err.value)
    with pytest.raises(ExprDomainError):
        ex.eval_expr(ex.parse_expr("(-1)^0.5"), [0.0])


def test_whitespace_insensitive():
    a = ex.parse_expr("1+2 * cos( x1 )")
    b = ex.parse_expr("1 + 2*cos(x1)")
    assert a == b


def test_grid_eval_matches_pointwise(rng):
    g = TorusGrid(2, 8)
    tree = ex.parse_expr("1 + 0.5*sin(2*pi*x1)*cos(2*pi*x2) + 0.1*t")
    t = 0.7
    on_grid = ex.eval_on_grid(tree, g, t)
    pts = np.stack(g.meshgrid(), axis=1)
    for k in range(g.n_cells):
        assert on_grid[k] == pytest.approx(ex.eval_expr(tree, pts[k], t), abs=1e-15)


def test_uses_time_and_var_index():
    assert ex.uses_time(ex.parse_expr("1+0.1*sin(t)"))
    assert not ex.uses_time(ex.parse_expr("cos(2*pi*x1)"))
    assert ex.max_var_index(ex.parse_expr("x1*x2")) == 2
    assert ex.max_var_index(ex.parse_expr("7")) == 0


# source strings over the operators, unary minus and x1: flat chains of
# signed operands, some of them parenthesized chains, so that the value
# depends on the precedence and associativity rules; float literals keep
# Python's value in floating point too (an integer power tower is exact and
# unbounded)
_PRECEDENCE_LEAVES = st.sampled_from(("0.0", "0.5", "1.0", "1.5", "2.0", "3.0", "0.25", "x1"))
_BINARY = ("+", "-", "*", "/", "^", " + ", " - ", " * ", " / ", " ^ ")


def _chains(children):
    term = st.builds(lambda sign, a: sign + a, st.sampled_from(("", "", "-", "--")), children)
    chain = st.builds(
        lambda first, rest: first + "".join(op + b for op, b in rest),
        term,
        st.lists(st.tuples(st.sampled_from(_BINARY), term), min_size=1, max_size=4),
    )
    return st.one_of(chain, chain.map(lambda c: f"({c})"))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.recursive(_PRECEDENCE_LEAVES, _chains, max_leaves=12))
@example("-2.0^2.0 + 2.0^3.0^2.0 - 12.0/4.0/3.0 * 2.0^-1.0 - -x1")
def test_precedence_matches_python(src):
    x1 = 0.37
    try:
        got = ex.eval_expr(ex.parse_expr(src), [x1])
        want = eval(src.replace("^", "**"), {"__builtins__": {}}, {"x1": x1})
    except (ExprDomainError, ZeroDivisionError, OverflowError):
        assume(False)
    assume(isinstance(want, float) and math.isfinite(want))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
