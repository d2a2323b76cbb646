"""Tests for the exception hierarchy and error ergonomics."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.PatternError,
            errors.InvalidPatternError,
            errors.OutputNodeError,
            errors.ConstraintError,
            errors.ParseError,
            errors.SchemaError,
            errors.DataModelError,
            errors.StrategyError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_pattern_errors_grouped(self):
        assert issubclass(errors.InvalidPatternError, errors.PatternError)
        assert issubclass(errors.OutputNodeError, errors.PatternError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.SchemaError("boom")


class TestParseError:
    def test_position_rendering(self):
        exc = errors.ParseError("bad token", text="hello world", position=6)
        rendered = str(exc)
        assert "offset 6" in rendered
        assert "world" in rendered

    def test_without_position(self):
        assert str(errors.ParseError("plain")) == "plain"

    def test_attributes(self):
        exc = errors.ParseError("m", text="t", position=0)
        assert exc.text == "t" and exc.position == 0
