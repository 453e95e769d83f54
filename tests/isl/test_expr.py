"""Unit tests for quasi-affine expressions."""

import numpy as np
import pytest

from repro.errors import SpaceError
from repro.isl.expr import const, var, vars_


class TestConstruction:
    def test_variable_has_unit_coefficient(self):
        i = var("i")
        assert i.coefficient("i") == 1
        assert i.coefficient("j") == 0
        assert i.const == 0

    def test_constant(self):
        c = const(7)
        assert c.is_constant
        assert c.const == 7

    def test_zero_coefficients_are_dropped(self):
        expr = var("i") - var("i")
        assert expr.is_constant
        assert expr.const == 0

    def test_vars_helper(self):
        i, j, k = vars_("i", "j", "k")
        assert (i + j + k).variables() == {"i", "j", "k"}


class TestArithmetic:
    def test_addition_merges_terms(self):
        expr = var("i") + var("i") + 3
        assert expr.coefficient("i") == 2
        assert expr.const == 3

    def test_subtraction(self):
        expr = 2 * var("i") - var("j") - 1
        assert expr.evaluate({"i": 4, "j": 3}) == 4

    def test_multiplication_by_integer(self):
        expr = (var("i") + 2) * 3
        assert expr.evaluate({"i": 1}) == 9

    def test_multiplication_by_expression_rejected(self):
        with pytest.raises(TypeError):
            _ = var("i") * var("j")

    def test_negation(self):
        expr = -(var("i") - 5)
        assert expr.evaluate({"i": 2}) == 3

    def test_rsub(self):
        expr = 10 - var("i")
        assert expr.evaluate({"i": 4}) == 6


class TestQuasiAffine:
    def test_floordiv_matches_python_semantics(self):
        expr = var("i") // 8
        assert expr.evaluate({"i": 9}) == 1
        assert expr.evaluate({"i": -1}) == -1

    def test_mod_matches_python_semantics(self):
        expr = var("i") % 8
        assert expr.evaluate({"i": 9}) == 1
        assert expr.evaluate({"i": -1}) == 7

    def test_mod_by_one_is_zero(self):
        assert (var("i") % 1).is_constant

    def test_floordiv_by_one_is_identity(self):
        expr = var("i") // 1
        assert expr.evaluate({"i": 5}) == 5

    def test_constant_folding(self):
        assert (const(17) // 8).const == 2
        assert (const(17) % 8).const == 1

    def test_abs(self):
        expr = (var("i") - var("j")).abs()
        assert expr.evaluate({"i": 2, "j": 5}) == 3

    def test_nested_quasi_terms(self):
        expr = ((var("i") % 8) + var("j")) // 4
        assert expr.evaluate({"i": 11, "j": 5}) == 2

    def test_invalid_divisor(self):
        with pytest.raises(ValueError):
            _ = var("i") // 0
        with pytest.raises(ValueError):
            _ = var("i") % -2


class TestEvaluation:
    def test_missing_variable_raises(self):
        with pytest.raises(SpaceError):
            (var("i") + var("j")).evaluate({"i": 1})

    def test_vectorised_matches_scalar(self):
        expr = 2 * var("i") + (var("j") % 3) - (var("i") // 4)
        i_values = np.arange(-5, 10)
        j_values = np.arange(0, 15)
        vec = expr.evaluate_vec({"i": i_values, "j": j_values})
        scalar = [expr.evaluate({"i": int(a), "j": int(b)}) for a, b in zip(i_values, j_values)]
        assert vec.tolist() == scalar

    def test_vectorised_constant_expression(self):
        expr = const(4)
        out = expr.evaluate_vec({"i": np.arange(3)})
        assert out.tolist() == [4, 4, 4]


class TestSubstitution:
    def test_substitute_linear(self):
        expr = var("x") + 2 * var("y")
        result = expr.substitute({"x": var("i") + 1, "y": const(3)})
        assert result.evaluate({"i": 4}) == 11

    def test_substitute_inside_quasi_term(self):
        expr = var("x") % 8
        result = expr.substitute({"x": var("i") + var("j")})
        assert result.evaluate({"i": 5, "j": 6}) == 3

    def test_rename(self):
        expr = var("i") + var("j")
        renamed = expr.rename({"i": "a"})
        assert renamed.variables() == {"a", "j"}


class TestEqualityHashing:
    def test_structural_equality(self):
        assert var("i") + 1 == 1 + var("i")
        assert var("i") % 8 == var("i") % 8

    def test_hash_consistency(self):
        a = var("i") + 2 * var("j")
        b = 2 * var("j") + var("i")
        assert hash(a) == hash(b)

    def test_immutability(self):
        expr = var("i")
        with pytest.raises(AttributeError):
            expr.const = 5

    def test_str_roundtrip_is_readable(self):
        expr = 2 * var("i") - var("j") + 1
        text = str(expr)
        assert "i" in text and "j" in text
