"""Helpers for exact rational values used throughout the package.

Every numeric quantity in this library (edge weights, distances,
dissimilarity entries, exponents of Puiseux monomials) is a
``fractions.Fraction``.  Serialized form is the string ``"p"`` or
``"p/q"`` in lowest terms.  Entries indexed by label tuples are
serialized as JSON objects keyed by ``"i,j,..."`` strings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"``, ``"p/q"`` or a terminating decimal into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected rational string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_index_key(idx: Iterable[int]) -> str:
    """Render a label tuple as the JSON key ``"i,j,..."``."""
    return ",".join(map(str, idx))


def parse_index_entries(entries, groups: int = 1) -> list[tuple[tuple[tuple[int, ...], ...], Any]]:
    """Read a JSON object keyed by :func:`format_index_key` strings.

    With ``groups > 1`` each key is that many such strings joined by
    ``";"`` (``"i,j;k,l"``).  Returns ``(label tuples, raw value)`` pairs
    in input order.  Only keys that :func:`format_index_key` reproduces
    exactly are accepted, so ``"1, 2"`` or ``"01,2"`` cannot stand in
    for ``"1,2"``.
    """
    if not isinstance(entries, dict):
        raise ValueError(f"'entries' must be a JSON object, got {type(entries).__name__}")
    out = []
    for key, value in entries.items():
        try:
            idx = tuple([tuple(map(int, part.split(","))) for part in key.split(";")])
        except (AttributeError, ValueError):
            idx = ()
        if len(idx) != groups or ";".join(map(format_index_key, idx)) != key:
            raise ValueError(f"bad index key {key!r}: need {groups} group(s) of comma-separated integers")
        out.append((idx, value))
    return out
