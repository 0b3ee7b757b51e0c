"""Helpers for exact rational values used throughout the package.

Every numeric quantity in this library (edge weights, distances,
dissimilarity entries, exponents of Puiseux monomials) is a
``fractions.Fraction``.  Serialized form is the string ``"p"`` or
``"p/q"`` in lowest terms.  Entries indexed by label tuples are
serialized as JSON objects keyed by ``"i,j,..."`` strings, and every
JSON text is read by :func:`_load_json`.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Iterable


def _digit_limit() -> int:
    """The interpreter's bound on int/str conversion (4300 digits by default)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"``, ``"p/q"`` or a terminating decimal into a Fraction.

    Only ASCII text without ``_`` separators is read.  Raises ValueError
    for anything else, and for a value that
    :func:`format_rational` could not write back.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected rational string, got {type(text).__name__}")
    limit = _digit_limit()
    try:
        # Fraction also reads non-ASCII digits and "_" separators
        if not text.isascii() or "_" in text:
            raise ValueError("not ASCII digits")
        _, exp_mark, exponent = text.lower().partition("e")
        # Fraction would compute 10**exponent whatever its size
        if exp_mark and abs(int(exponent)) > limit:
            raise ValueError("exponent out of range")
        value = Fraction(text.strip())
        # a point or an exponent can outgrow the digits; 2**(3 * limit) < 10**limit
        big = max(abs(value.numerator), value.denominator)
        if big.bit_length() > 3 * limit and big >= 10**limit:
            raise ValueError("too many digits to write back")
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    return value


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_json(text: str):
    """Parse JSON text, raising ValueError on a repeated key in any
    object and on nesting too deep for the parser."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nesting is too deep") from None


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


_MISSING = object()


def _binomial_product(binomials: list[tuple[int, int]], cap: int) -> int | None:
    """Product of C(a, b) over the pairs (a, b), b <= a, or None once it exceeds ``cap``.

    Partial products only grow, so this stops within about log2(cap) steps.
    """
    count = 1
    for a, b in binomials:
        b = min(b, a - b)
        for i in range(1, b + 1):
            count = count * (a - b + i) // i
            if count > cap:
                return None
    return count


def checked_table(
    entries: dict, binomials: list[tuple[int, int]], expected: Callable[[], Iterable], what: str
) -> dict:
    """Return ``entries`` as Fractions sorted by key, once its keys are
    exactly those ``expected()`` yields: as many as the product of C(a, b)
    over ``binomials``.  The count is checked first and computed no further
    than the entries given, so a claimed size costs no more than the input.
    ``what`` names the keys in messages.
    """
    got = len(entries)
    if _binomial_product(binomials, got) != got:
        limit = _digit_limit()
        count = _binomial_product(binomials, 10**limit - 1)
        need = f"at least 10**{limit}" if count is None else count
        raise ValueError(f"need {need} entries for the {what}, got {got}")
    # expected() yields the keys sorted, so with the count right a full
    # lookup proves the key sets equal and gives the order; get() does
    # not call a dict subclass's __missing__, so a missing key stays one
    get = entries.get
    table = {}
    for key in expected():
        value = get(key, _MISSING)
        if value is _MISSING:
            keys, want = set(entries), set(expected())
            raise ValueError(f"entries must cover exactly the {what}; mismatch near {sorted(keys ^ want)[:3]}")
        table[key] = value
    for key, value in table.items():
        if type(value) is not Fraction:
            table[key] = Fraction(value)
    return table


_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _read_subset_table(obj, n: int, m: int) -> dict:
    """The Fractions of a JSON object keyed by the
    :func:`format_index_key` strings of m-subsets, as the matrix and
    tensor ``from_json_obj`` read them.

    A plain table is read directly: one keyed by exactly the strings of
    the m-subsets of 1..n, in ``combinations`` order, with 2 <= m < n and
    every value a plain ``"p"`` or ``"p/q"`` in ASCII digits, no longer
    than the digit limit and with a nonzero denominator, where it equals
    what :func:`parse_rational` gives.  As in :func:`checked_table` the
    count is checked before any key is made; with m < n it bounds n by
    the number of entries, and so the n label strings made here.
    Anything else goes through :func:`parse_index_entries` and
    :func:`parse_rational`, which give the same values or name the fault.
    The caller's constructor checks that the keys are exactly the
    m-subsets of 1..n.
    """
    if isinstance(obj, dict) and 2 <= m < n and _binomial_product([(n, m)], len(obj)) == len(obj):
        limit = _digit_limit()
        plain = _PLAIN_RATIONAL.fullmatch
        labels = range(1, n + 1)
        # ",".join of the label strings is format_index_key of the tuple
        texts = map(",".join, combinations(list(map(str, labels)), m))
        table = {}
        for key, text in zip(combinations(labels, m), map(obj.get, texts)):
            if type(text) is not str or len(text) > limit or (match := plain(text)) is None:
                break
            p, q = match.groups()
            if q is None:
                table[key] = Fraction(int(p))
            elif int(q):
                table[key] = Fraction(int(p), int(q))
            else:
                break
        else:
            return table
    return {idx: parse_rational(val) for (idx,), val in parse_index_entries(obj)}
