"""The field rules every value type and JSON reader shares.

No value is coerced: ``true`` is not a count, ``1.9`` and ``"3"`` are not
integers, and a JSON object holds exactly the keys its reader names. Each
helper raises ``ValueError`` with a message that names the offending field.
"""

from __future__ import annotations

import json
import sys
from typing import Iterable

__all__ = ["is_int", "check_int", "check_number", "digits", "parse_json", "json_fields"]


def is_int(value) -> bool:
    """An int that is not a bool; bool subclasses int, but true is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(value, what: str, low: int = 0, high: int | None = None) -> int:
    """``value`` if it is an int, not a bool, with ``low <= value`` and ``value < high``."""
    if is_int(value) and low <= value and (high is None or value < high):
        return value
    bounds = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")


def check_number(value, what: str) -> float:
    """``value`` as a float if it is a finite int or float, not a bool."""
    # The bound is checked before float(), which raises OverflowError on an
    # int past the float range; it also refuses inf and NaN.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def digits(text: str, what: str = "value") -> int:
    """``text`` as an int if it is ASCII digits alone, the one spelling a flag or port takes.

    ``int()`` would also take a sign, underscores, spaces and non-ASCII digits.
    """
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"{what} must be ASCII digits, got {text!r}")


def parse_json(text: str | bytes, what: str):
    """``text`` as JSON, bytes as strict UTF-8; bad input is a ``ValueError`` led by ``what``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # deep nesting raises RecursionError
        raise ValueError(f"{what}: {exc}") from exc


def json_fields(doc, what: str, required: Iterable[str], optional: Iterable[str] = ()) -> dict:
    """``doc`` if it is a JSON object with every ``required`` key and no key outside both lists."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    required = tuple(required)
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {what} field(s) {unknown}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} is missing field {key!r}")
    return doc
