"""Error taxonomy: retryable/terminal classification and StructuredError."""

import pytest

from repro.faults.errors import (
    RetryableError,
    StructuredError,
    TerminalError,
    is_retryable,
)
from repro.service.protocol import ProtocolError
from repro.streaming.lineage import StaleDigestError, UnknownLineageError


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            TimeoutError("t"),
            ConnectionError("c"),
            ConnectionResetError("cr"),
            InterruptedError("i"),
            BlockingIOError(),
            RetryableError("transient"),
        ],
    )
    def test_retryable(self, exc):
        assert is_retryable(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("v"),
            KeyError("k"),
            RuntimeError("r"),
            TerminalError("deterministic"),
            # What the planner itself raises on a bad request or digest.
            ProtocolError("p"),
            StaleDigestError("a" * 64, "b" * 64),
            UnknownLineageError("c" * 64),
        ],
    )
    def test_terminal(self, exc):
        assert not is_retryable(exc)

    def test_terminal_marker_beats_retryable_base(self):
        class DeterministicTimeout(TerminalError, TimeoutError):
            pass

        assert not is_retryable(DeterministicTimeout("never retry"))


class TestStructuredError:
    def test_from_exception_captures_traceback_tail(self):
        try:
            raise ValueError("bad matrix spec")
        except ValueError as exc:
            record = StructuredError.from_exception(exc)
        assert record.type == "ValueError"
        assert record.message == "bad matrix spec"
        assert record.retryable is False
        assert "ValueError: bad matrix spec" in record.traceback_tail
        assert "test_errors" in record.traceback_tail  # a real frame, not ''

    def test_retryable_flag_follows_classification(self):
        record = StructuredError.from_exception(TimeoutError("slow"))
        assert record.retryable is True

    def test_explicit_retryable_override(self):
        record = StructuredError.from_exception(ValueError("v"), retryable=True)
        assert record.retryable is True

    def test_str_is_type_colon_message(self):
        record = StructuredError.from_exception(ValueError("boom"))
        assert str(record) == "ValueError: boom"

    def test_dict_roundtrip(self):
        record = StructuredError.from_exception(TimeoutError("slow"))
        assert StructuredError.from_dict(record.to_dict()) == record

    def test_tail_lines_bound(self):
        def deep(n):
            if n == 0:
                raise RuntimeError("bottom")
            deep(n - 1)

        try:
            deep(40)
        except RuntimeError as exc:
            record = StructuredError.from_exception(exc, tail_lines=4)
        assert len(record.traceback_tail.splitlines()) <= 4
