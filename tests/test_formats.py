"""Serialization: rational strings and the JSON shapes of matrices,
tensors, pairing points and certificates."""

import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedissim import (
    DissimTensor,
    DistanceMatrix,
    PairingPoint,
    ValuationCertificate,
    build_certificate,
    dissimilarity_map,
    distance_matrix,
    format_rational,
    pairing_map,
    parse_newick,
    parse_rational,
    random_tree,
)
from treedissim.cli import main
from treedissim.dissim import _pair_pairs
from treedissim.rationals import _binomial_product, _digit_limit, format_index_key, parse_index_entries

F = Fraction

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=64
)


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", F(3)),
            ("-7", F(-7)),
            ("7/3", F(7, 3)),
            ("-2/6", F(-1, 3)),
            ("0.25", F(1, 4)),
            ("2e1", F(20)),
            (" 5 ", F(5)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_parse_passthrough(self):
        assert parse_rational(F(2, 3)) == F(2, 3)
        assert parse_rational(5) == F(5)

    @pytest.mark.parametrize(
        "bad",
        [
            "abc", "1/0", "1.2.3", "", None, [1], {"a": 1}, "1e999999999", "1e-999999999", "1e5000",
            "١", "٣", "1/٣", "\u30003", "1_000", "1e1_0", "1/1_0",
        ],
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_lowest_terms(self):
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(F(-3, 9)) == "-1/3"

    @given(x=rationals)
    def test_roundtrip(self, x):
        assert parse_rational(format_rational(x)) == x


class TestDistanceMatrixJson:
    def test_shape(self):
        d = DistanceMatrix(3, {(1, 2): F(1), (1, 3): F(-2, 3), (2, 3): F(5)})
        assert d.to_json_obj() == {
            "n": 3,
            "entries": {"1,2": "1", "1,3": "-2/3", "2,3": "5"},
        }

    def test_json_module_compatible(self):
        d = DistanceMatrix(3, {(1, 2): F(1), (1, 3): F(2), (2, 3): F(3)})
        text = json.dumps(d.to_json_obj())
        assert DistanceMatrix.from_json_obj(json.loads(text)) == d

    @pytest.mark.parametrize(
        "obj",
        [
            {"entries": {}},
            {"n": 3},
            {"n": 3, "entries": {"1,2": "1"}},
            {"n": 3, "entries": {"1,2": "1", "1,3": "1", "2,3": "1", "1,1": "0"}},
            {"n": 3, "entries": {"2,1": "1", "1,3": "1", "2,3": "1"}},
            {"n": 3, "entries": {"1,2": "x", "1,3": "1", "2,3": "1"}},
            {"n": 4, "entries": []},
            {"n": 3, "entries": {"1,2": "1", "1,3": "1", "2,3": "1", "1, 2": "7"}},
            {"n": 3, "entries": {"01,2": "1", "1,3": "1", "2,3": "1"}},
            {"n": 3, "entries": {"1,2,": "1", "1,3": "1", "2,3": "1"}},
            {"n": 3, "entries": {"1,2": "1e5000", "1,3": "1", "2,3": "1"}},
            {"n": 3, "entries": {"1,2": "٣", "1,3": "1", "2,3": "1"}},
            {"n": 3, "entries": {"1,2": "1_000", "1,3": "1", "2,3": "1"}},
        ],
    )
    def test_malformed_rejected(self, obj):
        with pytest.raises(ValueError):
            DistanceMatrix.from_json_obj(obj)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, data):
        n = data.draw(st.integers(2, 6))
        entries = {
            p: data.draw(rationals) for p in combinations(range(1, n + 1), 2)
        }
        d = DistanceMatrix(n, entries)
        assert DistanceMatrix.from_json_obj(d.to_json_obj()) == d


class TestDissimTensorJson:
    def test_shape(self, quartet_dm):
        w = dissimilarity_map(quartet_dm, 3)
        obj = w.to_json_obj()
        assert obj["n"] == 4
        assert obj["m"] == 3
        assert obj["entries"]["1,2,3"] == "4"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            DissimTensor.from_json_obj({"n": 4, "entries": {}})
        with pytest.raises(ValueError):
            DissimTensor.from_json_obj({"n": 4, "m": 3, "entries": {"1,2": "1"}})
        with pytest.raises(ValueError, match="must be a JSON object"):
            DissimTensor.from_json_obj({"n": 4, "m": 3, "entries": [["1,2,3", "1"]]})
        with pytest.raises(ValueError, match="bad index key"):
            DissimTensor.from_json_obj({"n": 4, "m": 3, "entries": {"1,2,+3": "1"}})
        for value in ["٣", "1_000"]:
            entries = {"1,2,3": value, "1,2,4": "1", "1,3,4": "1", "2,3,4": "1"}
            with pytest.raises(ValueError, match="not a rational number"):
                DissimTensor.from_json_obj({"n": 4, "m": 3, "entries": entries})

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, data):
        n = data.draw(st.integers(3, 6))
        m = data.draw(st.integers(2, n))
        entries = {
            s: data.draw(rationals) for s in combinations(range(1, n + 1), m)
        }
        w = DissimTensor(n, m, entries)
        back = DissimTensor.from_json_obj(w.to_json_obj())
        assert back == w


class TestPairingPointJson:
    def test_shape(self, bumped5):
        p = pairing_map(bumped5)
        obj = p.to_json_obj()
        assert obj["n"] == 5
        assert obj["entries"]["1,2;4,5"] == "5/2"

    def test_roundtrip(self, bumped5):
        p = pairing_map(bumped5)
        assert PairingPoint.from_json_obj(p.to_json_obj()) == p

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            PairingPoint.from_json_obj({"n": 4, "entries": {"1,2;3,4": "bad-key"}})
        with pytest.raises(ValueError):
            PairingPoint.from_json_obj({"n": 4, "entries": {}})
        with pytest.raises(ValueError, match="bad index key"):
            PairingPoint.from_json_obj({"n": 4, "entries": {"1,2; 3,4": "1"}})


class TestCertificateJson:
    def test_edge_label_keys_are_canonical(self, quartet):
        obj = build_certificate(quartet).to_json_obj()
        assert ValuationCertificate.from_json_obj(obj) == build_certificate(quartet)
        key = next(iter(obj["edge_labels"]))
        obj["edge_labels"][" " + key] = obj["edge_labels"].pop(key)
        with pytest.raises(ValueError, match="bad index key"):
            ValuationCertificate.from_json_obj(obj)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n", "x"),
            ("edge_labels", {"1,2": [1], "1": 2, "2": 3, "3": 4}),
            ("x_series", [5]),
            ("x_series", [5, 5, 5, 5]),
            ("matrix", [[5]]),
            ("x_series", [[["٢", "1"]], [], [], []]),
            ("x_series", [[["2", "1_0"]], [], [], []]),
        ],
        ids=["n-string", "label-list", "series-short", "series-ints", "matrix-short",
             "series-nonascii-digit", "series-underscore"],
    )
    def test_malformed_field_is_value_error(self, quartet, key, value):
        obj = build_certificate(quartet).to_json_obj()
        obj[key] = value
        with pytest.raises(ValueError):
            ValuationCertificate.from_json_obj(obj)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda text: '{"n": 4, "matrix": ' + "[" * 200000, "JSON nesting is too deep"),
            (lambda text: text.replace('"E": ', '"E": "99", "E": ', 1), "repeats the key 'E'"),
            (lambda text: text.replace('"n": ', '"n": 5, "n": ', 1), "repeats the key 'n'"),
        ],
        ids=["deep", "repeated-E", "repeated-n"],
    )
    def test_malformed_json_text_is_value_error(self, quartet, edit, message):
        text = build_certificate(quartet).to_json()
        with pytest.raises(ValueError, match=message):
            ValuationCertificate.from_json(edit(text))


@pytest.mark.parametrize(
    "module,cls,obj,count",
    [
        ("trees", DistanceMatrix, {"n": 60, "entries": {}}, 1770),
        ("dissim", DissimTensor, {"n": 60, "m": 3, "entries": {}}, 34220),
        ("dissim", PairingPoint, {"n": 60, "entries": {}}, 2925810),
    ],
    ids=["matrix", "tensor", "pairing"],
)
def test_size_checked_before_key_set(monkeypatch, module, cls, obj, count):
    # The claimed n is checked against the entry count before the
    # expected key set, whose size the input does not bound, is built.
    def no_key_set(*args):
        raise AssertionError("built the expected key set before checking the entry count")

    monkeypatch.setattr(f"treedissim.{module}.combinations", no_key_set)
    with pytest.raises(ValueError, match=f"need {count} entries"):
        cls.from_json_obj(obj)


def test_claimed_size_is_never_counted_in_full(monkeypatch):
    # C(10**7, 5 * 10**6) has about three million digits; the count stops
    # long before, so neither it nor the key set is ever built.
    def too_expensive(*args):
        raise AssertionError("computed the full binomial or the key set")

    monkeypatch.setattr("math.comb", too_expensive)
    monkeypatch.setattr("treedissim.dissim.combinations", too_expensive)
    with pytest.raises(ValueError, match=r"need at least 10\*\*\d+ entries for the 5000000-subsets"):
        DissimTensor.from_json_obj({"n": 10**7, "m": 5 * 10**6, "entries": {}})


@pytest.mark.parametrize(
    "make",
    [
        lambda: DissimTensor.from_json_obj({"n": 10**6, "m": 10**6, "entries": {"1": "1"}}),
        lambda: DissimTensor(10**6, 10**6, {(1,): Fraction(1)}),
    ],
    ids=["json", "tuple-keys"],
)
def test_claimed_m_equals_n_key_is_never_built(monkeypatch, make):
    # C(n, n) = 1 passes the count check for any n, so the one given key
    # is measured before the n-label key is made
    def too_expensive(*args):
        raise AssertionError("built the n-label key")

    monkeypatch.setattr("treedissim.dissim.combinations", too_expensive)
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == "entries must cover exactly the 1000000-subsets of 1..1000000; got the key (1,)"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@pytest.mark.parametrize(
    "cls,make",
    [
        (DistanceMatrix, distance_matrix),
        (DissimTensor, lambda quartet: dissimilarity_map(distance_matrix(quartet), 3)),
        (PairingPoint, lambda quartet: pairing_map(distance_matrix(quartet))),
        (ValuationCertificate, build_certificate),
    ],
    ids=["matrix", "tensor", "pairing", "certificate"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_json_gives_object_or_value_error(cls, make, data):
    # Either an arbitrary JSON value, or a valid object with one field
    # (or one entry) replaced by one.
    obj = make(parse_newick("((1:1,2:1):1,3:1,4:1);")).to_json_obj()
    target = data.draw(st.sampled_from([None, obj, obj.get("entries", obj.get("edge_labels"))]))
    if target is None:
        obj = data.draw(json_values)
    else:
        key = data.draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
        target[key] = data.draw(json_values)
    try:
        cls.from_json_obj(obj)
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# The plain-value reader: same tables and messages as the full reader


def _old_checked_table(entries, binomials, expected, what):
    # checked_table as it was before the one-pass lookup: two key sets and a sort
    got = len(entries)
    if _binomial_product(binomials, got) != got:
        limit = _digit_limit()
        count = _binomial_product(binomials, 10**limit - 1)
        need = f"at least 10**{limit}" if count is None else count
        raise ValueError(f"need {need} entries for the {what}, got {got}")
    keys, want = set(entries), set(expected())
    if keys != want:
        raise ValueError(f"entries must cover exactly the {what}; mismatch near {sorted(keys ^ want)[:3]}")
    return {k: Fraction(v) for k, v in sorted(entries.items())}


def _old_entries(kind, n, m, raw):
    """The entries the reader before the plain-value path gave, given ints n and m."""
    if kind == "pairing":
        entries = {key: parse_rational(val) for key, val in parse_index_entries(raw, groups=2)}
        if n < 4:
            raise ValueError("pairing coordinates need n >= 4")
        return _old_checked_table(
            entries, [(n, 2), (n - 2, 2)], lambda: _pair_pairs(n), f"ordered disjoint pair-pairs of 1..{n}"
        )
    entries = {idx: parse_rational(val) for (idx,), val in parse_index_entries(raw)}
    if kind == "matrix":
        if n < 2:
            raise ValueError("a distance matrix needs n >= 2")
        what = f"pairs i<j from 1..{n}"
    else:
        if not 2 <= m <= n:
            raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
        what = f"{m}-subsets of 1..{n}"
    return _old_checked_table(entries, [(n, m)], lambda: combinations(range(1, n + 1), m), what)


def _outcome(read):
    try:
        return [(key, type(v), v) for key, v in read().items()]
    except ValueError as exc:
        return str(exc)


HOSTILE_VALUES = [
    "0.5", "-1.25", "1e3", "2E-2", "+3", " 3", "3 ", "3\n", "٣", "1/٣", "1_000", "1/0", "1/00", "0/5",
    "-0", "007", "2/4", "1/-2", "--1", "-", "/2", "1/", "", "1e5000", "1.5/2", "1" * 4300, "1" * 4301,
    "-" + "1" * 4300, "9/" + "7" * 4300, "9/" + "7" * 4301, "0" * 4300 + "1", "0" * 4301 + "1",
    3, -2, True, 1.5, None, [1], {"1": 2},
]


@st.composite
def _raw_tables(draw):
    kind = draw(st.sampled_from(["matrix", "tensor", "pairing"]))
    n = draw(st.integers(-1, 7))
    m = 2 if kind != "tensor" else draw(st.sampled_from([-1, 0, 1, 2, 3, 4, n, n + 1]))
    # the keys of the nearest valid shape, so most tables get past the count
    size, arity = max(n, 4), min(max(m, 2), max(n, 4))
    if kind == "pairing":
        keys = [f"{format_index_key(p)};{format_index_key(q)}" for p, q in _pair_pairs(size)]
    else:
        keys = [format_index_key(s) for s in combinations(range(1, size + 1), arity if kind == "tensor" else 2)]
    plain = st.builds(lambda p, q: f"{p}/{q}" if q != 1 else str(p), st.integers(-10**6, 10**6), st.integers(1, 99))
    entries = {key: draw(plain) for key in keys}
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["value", "drop", "extra", "rename"]))
        key = draw(st.sampled_from(sorted(entries))) if entries else None
        if edit == "value" and key:
            entries[key] = draw(st.sampled_from(HOSTILE_VALUES))
        elif edit == "drop" and key:
            del entries[key]
        elif edit == "extra":
            entries[draw(st.sampled_from(["1,1", f"1,{size + 1}", "0,1", "1,2,3,4,5,6,7,8"]))] = "1"
        elif edit == "rename" and key:
            new = draw(st.sampled_from(["0" + key, " " + key, key.replace(",", ", ", 1), key[::-1], key + ","]))
            entries[new] = entries.pop(key)
    order = draw(st.permutations(sorted(entries)))
    return kind, n, m, {key: entries[key] for key in order}


def _assert_read_as_before(kind, n, m, raw, limit):
    """The new reader gives the old entries, in the old order, or the old
    message, with the interpreter's digit limit set to ``limit``."""
    cls = {"matrix": DistanceMatrix, "tensor": DissimTensor, "pairing": PairingPoint}[kind]
    obj = {"n": n, "m": m, "entries": raw} if kind == "tensor" else {"n": n, "entries": raw}
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        want = _outcome(lambda: _old_entries(kind, n, m, raw))
        got = _outcome(lambda: cls.from_json_obj(obj).entries)
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == want


@given(table=_raw_tables(), limit=st.sampled_from([None, 0]))
@settings(max_examples=300, deadline=None)
def test_reader_agrees_with_the_full_reader(table, limit):
    _assert_read_as_before(*table, limit)


@pytest.mark.parametrize("value", HOSTILE_VALUES, ids=range(len(HOSTILE_VALUES)))
@pytest.mark.parametrize("limit", [None, 0])
@pytest.mark.parametrize("kind", ["matrix", "tensor"])
def test_each_value_form_reads_as_before(kind, limit, value):
    n, m = 5, 2 if kind == "matrix" else 3
    raw = {format_index_key(s): f"{i}/3" for i, s in enumerate(combinations(range(1, n + 1), m))}
    raw[next(iter(raw))] = value
    _assert_read_as_before(kind, n, m, raw, limit)


def test_plain_tables_are_read_without_the_full_reader(monkeypatch, tmp_path):
    def no_full_reader(*args, **kwargs):
        raise AssertionError("the full reader ran on a plain table")

    monkeypatch.setattr("treedissim.rationals.parse_rational", no_full_reader)
    monkeypatch.setattr("treedissim.rationals.parse_index_entries", no_full_reader)
    for n in (3, 5, 11):
        D = distance_matrix(random_tree(n, seed=n))
        assert DistanceMatrix.from_json_obj(json.loads(json.dumps(D.to_json_obj()))) == D
        for m in range(2, min(n - 1, 5) + 1):
            W = dissimilarity_map(D, m)
            assert DissimTensor.from_json_obj(json.loads(json.dumps(W.to_json_obj()))) == W
    D = distance_matrix(random_tree(10, seed=4))
    matrix = tmp_path / "d.json"
    matrix.write_text(json.dumps(D.to_json_obj()))
    tensor = tmp_path / "w.json"
    tensor.write_text(json.dumps(dissimilarity_map(D, 3).to_json_obj()))
    assert main(["membership3", str(tensor)]) == 0
    assert main(["reconstruct", str(matrix)]) == 0
    assert main(["check", str(matrix), "--metric"]) == 0
    assert main(["check", str(tensor), "--tmn", "3"]) == 0


@pytest.mark.parametrize("kind", ["matrix", "tensor", "pairing"])
def test_entries_are_sorted_by_key(kind):
    D = distance_matrix(random_tree(6, seed=2))
    table = {"matrix": D, "tensor": dissimilarity_map(D, 3), "pairing": pairing_map(D)}[kind]
    shuffled = dict(reversed(list(table.entries.items())))
    obj = table.to_json_obj()
    obj["entries"] = dict(reversed(list(obj["entries"].items())))
    fields = {"n": table.n, "entries": shuffled}
    if kind == "tensor":
        fields["m"] = table.m
    for t in (type(table)(**fields), type(table).from_json_obj(obj)):
        assert list(t.entries) == sorted(t.entries)
        assert t == table


@pytest.mark.parametrize("factory", [lambda: defaultdict(Fraction), Counter], ids=["defaultdict", "Counter"])
def test_missing_key_is_not_filled_by_a_dict_subclass(factory):
    entries = factory()
    entries.update({(1, 2): 1, (1, 3): 1, (1, 4): 1})
    with pytest.raises(ValueError, match=r"mismatch near \[\(1, 4\), \(2, 3\)\]"):
        DistanceMatrix(3, entries)
    assert dict(entries) == {(1, 2): 1, (1, 3): 1, (1, 4): 1}


def test_table_values_become_fractions():
    d = DistanceMatrix(3, {(2, 3): 2, (1, 3): F(5), (1, 2): "1/2"})
    assert [(k, type(v), v) for k, v in d.entries.items()] == [
        ((1, 2), F, F(1, 2)), ((1, 3), F, F(5)), ((2, 3), F, F(2))
    ]
