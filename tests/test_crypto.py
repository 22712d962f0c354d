import hashlib
from dataclasses import replace
from datetime import date
from random import Random

import pytest

from dhp.core import EncodingError, InvalidDocument, Role, TravelDocument, canonical_doc_bytes
from dhp.crypto import (
    Salt,
    commit,
    keygen,
    new_salt,
    sign,
    verify_sig,
)
from dhp.crypto import MalformedKey

from conftest import make_doc

# RFC 8032 section 7.1, TEST 1: the independent golden vector for the scheme.
RFC8032_SEED = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
RFC8032_PUBLIC = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
RFC8032_SIG_EMPTY = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)

# Computed once with `sha256sum` over the assembled preimage bytes, outside
# this code base: SHA-256("DHPC1|" || salt || canonical_doc_bytes(doc)).
GOLDEN_DOC = TravelDocument("AB1234567", "GRC", date(1970, 1, 1))
GOLDEN_SALT = Salt(b"\x00" * 16)
GOLDEN_COMMIT = bytes.fromhex("d56ba8e0ff352bb46817014ff5a774bb78f5fbe85bc20c0ec379293bd9ec2e87")

GOLDEN2_DOC = TravelDocument("ZZ00042XY", "DEU", date(2031, 5, 17))
GOLDEN2_SALT = Salt(bytes(range(16)))
GOLDEN2_COMMIT = bytes.fromhex("c8a80bf856467227e7e6c3a03135d9c9f1a57cc69eb447be3654d6988e576cec")


def test_keygen_deterministic_with_seed():
    a = keygen(Role.THF, b"\x07" * 32)
    b = keygen(Role.THF, b"\x07" * 32)
    assert a == b
    assert a.owner.role is Role.THF


def test_keygen_fresh_keys_are_distinct():
    seen = set()
    for _ in range(10_000):
        seen.add(keygen(Role.THF).public)
    assert len(seen) == 10_000


def test_sign_verify_round_trip():
    key = keygen(Role.THF, b"\x01" * 32)
    assert verify_sig(key.public, b"x", sign(key, b"x"))


def test_verify_wrong_key_and_message():
    key = keygen(Role.THF, b"\x01" * 32)
    other = keygen(Role.THF, b"\x02" * 32)
    sig = sign(key, b"message")
    assert not verify_sig(other.public, b"message", sig)
    assert not verify_sig(key.public, b"message2", sig)
    assert sign(replace(key, secret=other.secret), b"message") == sign(other, b"message")


def test_rfc8032_golden_vector():
    key = keygen(Role.THF, RFC8032_SEED)
    assert key.public == RFC8032_PUBLIC
    assert sign(key, b"") == RFC8032_SIG_EMPTY
    assert verify_sig(RFC8032_PUBLIC, b"", RFC8032_SIG_EMPTY)


def test_signature_bit_flip_always_fails():
    key = keygen(Role.BM, b"\x03" * 32)
    message = b"the boarding manifest"
    sig = bytearray(sign(key, message))
    for bit in range(len(sig) * 8):
        sig[bit // 8] ^= 1 << (bit % 8)
        assert not verify_sig(key.public, message, bytes(sig))
        sig[bit // 8] ^= 1 << (bit % 8)


def test_verify_is_total_on_garbage():
    key = keygen(Role.BM, b"\x03" * 32)
    assert not verify_sig(key.public, b"m", b"")
    assert not verify_sig(key.public, b"m", b"\x00" * 63)
    assert not verify_sig(b"", b"m", b"\x00" * 64)
    assert not verify_sig(b"\xff" * 31, b"m", b"\x00" * 64)


def test_sign_rejects_malformed_secret():
    key = keygen(Role.THF, b"\x01" * 32)
    with pytest.raises(MalformedKey):
        replace(key, secret=b"\x00" * 31)


def test_commit_golden_vectors():
    assert commit(GOLDEN_DOC, GOLDEN_SALT) == GOLDEN_COMMIT
    assert commit(GOLDEN2_DOC, GOLDEN2_SALT) == GOLDEN2_COMMIT


def test_commit_deterministic():
    salt = Salt(b"\x42" * 16)
    assert commit(GOLDEN_DOC, salt) == commit(GOLDEN_DOC, salt)


def test_commit_salt_variation_no_collisions():
    rng = Random(11)
    doc = make_doc(1)
    digests = {commit(doc, new_salt(rng)) for _ in range(10_000)}
    assert len(digests) == 10_000


def test_commit_binding_no_random_collisions():
    rng = Random(12)
    seen = {}
    for i in range(100_000):
        doc = make_doc(rng.randrange(10_000))
        salt = new_salt(rng)
        digest = commit(doc, salt)
        key = (doc, salt.value)
        if digest in seen:
            assert seen[digest] == key
        seen[digest] = key
    assert len(seen) == 100_000


def test_commit_hiding_without_salt():
    # A curious verifier who knows the whole document universe but not the
    # salt cannot match a commitment; with the salt the match is immediate.
    rng = Random(13)
    universe = [make_doc(i) for i in range(100)]
    salt = new_salt(rng)
    target = commit(universe[37], salt)
    for doc in universe:
        assert commit(doc, Salt(b"\x00" * 16)) != target
        assert hashlib.sha256(canonical_doc_bytes(doc)).digest() != target
    assert commit(universe[37], salt) == target


def test_commit_non_transferability():
    rng = Random(14)
    for _ in range(200):
        salt = new_salt(rng)
        a, b = make_doc(rng.randrange(500)), make_doc(rng.randrange(500, 1000))
        assert commit(a, salt) != commit(b, salt)


def test_commit_rejects_invalid_inputs():
    with pytest.raises(InvalidDocument):
        commit(TravelDocument("x", "GRC", date(2030, 1, 1)), GOLDEN_SALT)
    with pytest.raises(EncodingError):
        commit(GOLDEN_DOC, Salt(b"\x00" * 15))
