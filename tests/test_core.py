import struct
from datetime import date

import pytest
from hypothesis import given, strategies as st

from dhp.core import (
    ActorId,
    EncodingError,
    InvalidDocument,
    Reader,
    Role,
    TestMethod,
    TravelDocument,
    canonical_doc_bytes,
    dhp_signing_bytes,
    read_doc,
)

DOC = TravelDocument("AB1234567", "GRC", date(1970, 1, 1))
ISSUER = ActorId(role=Role.THF, id=bytes(range(16)), public_key=b"\x11" * 32)


def test_doc_bytes_epoch_expiry():
    assert canonical_doc_bytes(DOC) == b"\x00\x09AB1234567GRC\x00\x00\x00\x00"


def test_doc_bytes_number_injectivity():
    other = TravelDocument("AB1234568", "GRC", date(1970, 1, 1))
    assert canonical_doc_bytes(DOC) != canonical_doc_bytes(other)


@pytest.mark.parametrize(
    "doc",
    [
        TravelDocument("X99", "GRC", date(2030, 1, 1)),            # below 5-char minimum
        TravelDocument("A" * 21, "GRC", date(2030, 1, 1)),         # above maximum
        TravelDocument("ab1234567", "GRC", date(2030, 1, 1)),      # lowercase
        TravelDocument("AB 123456", "GRC", date(2030, 1, 1)),      # whitespace
        TravelDocument("AB1234567", "GR", date(2030, 1, 1)),       # short country
        TravelDocument("AB1234567", "grc", date(2030, 1, 1)),      # lowercase country
        TravelDocument("AB1234567", "GRC", date(1969, 12, 31)),    # pre-epoch expiry
        TravelDocument("ABCDE", "GRC\n", date(2030, 1, 1)),        # country with a final newline
    ],
)
def test_doc_bytes_rejects_invalid(doc):
    with pytest.raises(InvalidDocument):
        canonical_doc_bytes(doc)


def test_a_wire_document_number_with_a_final_newline_is_refused():
    data = struct.pack(">H", 6) + b"ABCDE\nGRC" + struct.pack(">I", 0)
    with pytest.raises(InvalidDocument):
        Reader(data).finish(read_doc)


doc_strategy = st.builds(
    TravelDocument,
    doc_number=st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", min_size=5, max_size=20),
    issuing_country=st.sampled_from(["GRC", "DEU", "GBR", "MEX", "PRT"]),
    expiry=st.dates(min_value=date(1970, 1, 1), max_value=date(2099, 12, 31)),
)


@given(doc_strategy)
def test_doc_bytes_round_trip(doc):
    assert Reader(canonical_doc_bytes(doc)).finish(read_doc) == doc


@given(doc_strategy, doc_strategy)
def test_doc_bytes_injective(a, b):
    if a != b:
        assert canonical_doc_bytes(a) != canonical_doc_bytes(b)


def test_decode_rejects_trailing_bytes():
    with pytest.raises(EncodingError):
        Reader(canonical_doc_bytes(DOC) + b"\x00").finish(read_doc)


def test_decode_rejects_expiry_past_date_max():
    data = canonical_doc_bytes(DOC)[:-4] + struct.pack(">I", 0xFFFFFFFF)
    with pytest.raises(EncodingError):
        Reader(data).finish(read_doc)


def test_signing_bytes_layout():
    commitment = b"\xaa" * 32
    expected = (
        b"DHPv1|"
        + commitment
        + b"\x01"
        + struct.pack(">Q", 1_600_000_000)
        + b"\x07RT-qPCR"
        + ISSUER.id
    )
    got = dhp_signing_bytes(commitment, True, 1_600_000_000, TestMethod.named("RT-qPCR"), ISSUER)
    assert got == expected


def test_signing_bytes_deterministic():
    args = (b"\x01" * 32, True, 123456, TestMethod.named("RT-qPCR"), ISSUER)
    assert dhp_signing_bytes(*args) == dhp_signing_bytes(*args)


def test_signing_bytes_result_byte_is_only_difference():
    args = (b"\x01" * 32, 123456, TestMethod.named("RT-qPCR"), ISSUER)
    yes = dhp_signing_bytes(args[0], True, *args[1:])
    no = dhp_signing_bytes(args[0], False, *args[1:])
    diff = [i for i, (a, b) in enumerate(zip(yes, no)) if a != b]
    assert diff == [len(b"DHPv1|") + 32]
    assert yes[diff[0]] == 1 and no[diff[0]] == 0


def test_signing_bytes_method_length_prefix():
    out = dhp_signing_bytes(b"\x00" * 32, True, 0, TestMethod.named("RT-qPCR"), ISSUER)
    assert out[len(b"DHPv1|") + 32 + 1 + 8] == 0x07  # "RT-qPCR" is 7 bytes


@pytest.mark.parametrize(
    "method",
    [TestMethod("x" * 256), TestMethod(""), TestMethod("RT qPCR"), TestMethod("a\tb"), TestMethod("RT-qPCR\n")],
)
def test_signing_bytes_rejects_bad_methods(method):
    with pytest.raises(EncodingError):
        dhp_signing_bytes(b"\x00" * 32, True, 0, method, ISSUER)


def test_signing_bytes_rejects_bad_fields():
    method = TestMethod.named("RT-qPCR")
    with pytest.raises(EncodingError):
        dhp_signing_bytes(b"\x00" * 31, True, 0, method, ISSUER)
    with pytest.raises(EncodingError):
        dhp_signing_bytes(b"\x00" * 32, True, -1, method, ISSUER)
    with pytest.raises(EncodingError):
        dhp_signing_bytes(b"\x00" * 32, True, 2**64, method, ISSUER)
    with pytest.raises(EncodingError):
        dhp_signing_bytes(b"\x00" * 32, True, 0, method, ActorId(Role.THF, b"\x00" * 8))
