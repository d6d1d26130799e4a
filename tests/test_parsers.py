"""Property tests for the two parsers: F2SET text and certificates.

Every generated value must round-trip, and any other text must be
rejected with ValueError and nothing else.  The examples are derived from
the test source (``derandomize=True``), so each run checks the same cases.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popdiff.construction import (
    Budgets,
    Certificate,
    CertStats,
    ConstructionPlan,
    construct_popular_sumset,
)
from popdiff.f2n import f2set_dumps, f2set_loads, random_set, read_set
from popdiff.rng import SplitMix64

from conftest import canonical_json, set_from_mask

properties = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def dense_sets(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 7))
    return set_from_mask(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


@st.composite
def certificates(draw):
    a = draw(dense_sets())
    n, sets = a.n, dense_sets(a.n)
    c = draw(st.fractions(min_value=0, max_denominator=1 << 20))
    counts = st.none() | st.integers(0, 1 << 40)
    return Certificate(
        input_set=a,
        seed=draw(st.integers(0, (1 << 64) - 1)),
        budgets=Budgets(draw(st.integers(1, 1000)), draw(st.integers(1, 1000))),
        plan=ConstructionPlan(
            n=n,
            card_a=a.card,
            c=c,
            sigma=Fraction(1, draw(st.integers(1, 1 << 20))),
            r=draw(st.integers(1, 8)),
        ),
        translates=tuple(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))),
        a0=draw(st.none() | sets),
        a1=draw(st.none() | sets),
        a2=draw(sets),
        stats=CertStats(
            lemma_trials=draw(counts),
            s_count=draw(counts),
            refine_trials=draw(counts),
            a1_pairs_in_d=draw(counts),
        ),
        verified=draw(st.booleans()),
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=16,
)


@properties
@given(dense_sets())
def test_f2set_roundtrip(s):
    text = f2set_dumps(s)
    assert f2set_loads(text) == s
    assert f2set_dumps(f2set_loads(text)) == text


@properties
@given(st.text() | st.builds(
    lambda n, payload: f"F2SET v1 n={n}\n{payload}",
    st.integers(-2, 40),
    st.text(alphabet="0123456789abcdefABx \n", max_size=40),
))
def test_f2set_loads_raises_only_value_error(text):
    try:
        s = f2set_loads(text)
    except ValueError:
        return
    assert f2set_loads(f2set_dumps(s)) == s


@properties
@given(certificates())
def test_certificate_roundtrip(cert):
    text = cert.dumps()
    again = Certificate.loads(text)
    assert again == cert
    assert again.dumps() == text


@properties
@given(st.text() | json_values.map(canonical_json) | json_values.map(json.dumps))
def test_certificate_loads_rejects_other_text_with_value_error(text):
    with pytest.raises(ValueError):
        Certificate.loads(text)


def test_certificate_with_a_huge_r_is_rejected_before_the_power():
    # |A|^(2r) at r = 10^9 would be an integer of about 2.7 GB; the parse
    # must refuse the claimed r from the stored lemma_rhs's length first
    a = random_set(12, 1 << 11, SplitMix64(7))
    text = construct_popular_sumset(a, Fraction(1, 16), seed=7).dumps()
    assert Certificate.loads(text).dumps() == text
    obj = json.loads(text)
    obj["plan"]["r"] = 10**9
    with pytest.raises(ValueError, match="too large"):
        Certificate.loads(canonical_json(obj))


_HEX = "payload contains characters outside lowercase hex"


@pytest.mark.parametrize("text, message", [
    *((f"F2SET v1 n=4\n0{ch}0f\n", _HEX) for ch in "ABCDEF"),   # uppercase hex
    ("F2SET v1 n=4\n0 f0\n", _HEX),                             # inner whitespace
    ("F2SET v1 n=4\n0\tf0\n", _HEX),
    ("F2SET v1 n=4\n0\x00f0\n", _HEX),                          # a NUL byte
    ("F2SET v1 n=4\n0f0\n", "payload has 3 characters, expected 4 for n=4"),  # odd length
    ("F2SET v1 n=3\n0\n", "payload has 1 characters, expected 2 for n=3"),
    ("F2SET v1 n=4\n0é00\n", _HEX),                             # a non-ASCII character
    *((f"F2SET v1 n=1\n{ch}\n", "padding bits beyond 2^n must be zero") for ch in "4567cdef"),
    # at n = 2 the one character holds the 4 points and no padding, so a
    # bit beyond 2^n takes a second character
    ("F2SET v1 n=2\n10\n", "payload has 2 characters, expected 1 for n=2"),
])
def test_f2set_strictness_keeps_its_messages(text, message, tmp_path):
    with pytest.raises(ValueError) as refused:
        f2set_loads(text)
    assert str(refused.value) == message
    if len(text.encode()) == len(text) and not message.startswith("payload has"):
        path = tmp_path / "bad.set"  # a file of the size its header asks for
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ValueError) as refused:
            read_set(path)
        assert str(refused.value) == message


def test_read_set_names_the_first_byte_that_is_not_ascii(tmp_path):
    path = tmp_path / "bad.set"
    path.write_bytes(b"F2SET v1 n=4\n0\xfff0\n")
    with pytest.raises(ValueError) as refused:
        read_set(path)
    assert str(refused.value) == ("set file is not ASCII: 'ascii' codec can't decode byte 0xff "
                                  "in position 14: ordinal not in range(128)")
