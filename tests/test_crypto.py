import contextlib
import ctypes
import ctypes.util
import hashlib
from dataclasses import replace
from datetime import date
from random import Random
from types import SimpleNamespace

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import given, settings
from hypothesis import strategies as st

from dhp import crypto
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

import test_golden
import test_netsim
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


# RFC 8032 section 7.1, TESTS 1-3: (seed, public key, message, signature).
RFC8032_VECTORS = [
    (RFC8032_SEED, RFC8032_PUBLIC, b"", RFC8032_SIG_EMPTY),
    (
        bytes.fromhex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"),
        bytes.fromhex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"),
        bytes.fromhex("72"),
        bytes.fromhex(
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        ),
    ),
    (
        bytes.fromhex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"),
        bytes.fromhex("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"),
        bytes.fromhex("af82"),
        bytes.fromhex(
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        ),
    ),
]

SIGNING = pytest.mark.parametrize("bound", [True, False], ids=["libsodium", "openssl-only"])


@pytest.fixture
def signing_binding(monkeypatch):
    """Returns a function that leaves signing on libsodium, as bound at
    import, or forces it off as on a host without the library; key pairs
    built after the call sign on that path."""

    def use(bound: bool) -> None:
        if not bound:
            monkeypatch.setattr(crypto, "_sodium_sign", None)
        elif crypto._sodium_sign is None:
            pytest.skip("libsodium is not bound for signing")

    return use


def signs_on_openssl(key) -> bool:
    return isinstance(getattr(key._sign, "__self__", None), ed25519.Ed25519PrivateKey)


@SIGNING
@pytest.mark.parametrize("seed, public, message, signature", RFC8032_VECTORS, ids=["test1", "test2", "test3"])
def test_rfc8032_vectors_sign_to_the_byte(signing_binding, bound, seed, public, message, signature):
    signing_binding(bound)
    key = keygen(Role.THF, seed)
    assert signs_on_openssl(key) is not bound
    assert key.public == public
    assert sign(key, message) == signature
    assert verify_sig(public, message, signature)


@pytest.mark.skipif(crypto._sodium_sign is None, reason="libsodium is not bound for signing")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), message=st.binary(max_size=512))
def test_libsodium_and_openssl_sign_alike(seed, message):
    openssl = ed25519.Ed25519PrivateKey.from_private_bytes(seed).sign(message)
    assert crypto._sodium_sign(seed)(message) == openssl


@SIGNING
def test_a_replaced_seed_signs_under_the_new_seed(signing_binding, bound):
    signing_binding(bound)
    key, other = keygen(Role.THF, b"\x01" * 32), keygen(Role.THF, b"\x02" * 32)
    moved = replace(key, secret=other.secret)
    assert moved.public == key.public  # the signer comes from the seed alone
    assert sign(moved, b"message") == sign(other, b"message")
    assert verify_sig(other.public, b"message", sign(moved, b"message"))


@SIGNING
def test_a_31_byte_seed_is_a_malformed_key(signing_binding, bound):
    signing_binding(bound)
    key = keygen(Role.THF, b"\x01" * 32)
    with pytest.raises(MalformedKey):
        replace(key, secret=b"\x00" * 31)
    with pytest.raises(MalformedKey):
        keygen(Role.THF, b"\x00" * 31)


def test_golden_frames_and_sim_digests_hold_on_the_openssl_fallback(signing_binding, tmp_path, monkeypatch):
    """With the signing binding forced off, every pinned frame and seeded
    sim report digest is the same: both paths give the same signatures."""
    signing_binding(False)
    wire = test_golden.build_wire(tmp_path)
    assert signs_on_openssl(wire.c.hsa_keys[0])
    test_golden.test_reply_frames_are_pinned(wire)
    test_golden.test_get_block_at_frames_are_pinned(wire)
    test_golden.test_receipt_frame_is_pinned(wire)
    test_golden.test_auth_frame_is_pinned(wire, monkeypatch)
    wire.hsa.stop()
    wire.bm.stop()
    for config, digest in test_netsim.PINNED_REPORTS:
        test_netsim.test_seeded_reports_are_pinned(config, digest)


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


def openssl_verdict(public, message, signature) -> bool:
    """The verdict of a direct `cryptography` (OpenSSL) call."""
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


@contextlib.contextmanager
def sodium_binding(bound: bool):
    """verify_sig with libsodium as bound at import, or with the binding
    forced off as on a host without the library. The memo is cleared on the
    way in and out, so no verdict crosses from one binding to the other."""
    saved = crypto._sodium_verify
    crypto._sodium_verify = saved if bound else None
    crypto._verify_cached.cache_clear()
    try:
        yield
    finally:
        crypto._sodium_verify = saved
        crypto._verify_cached.cache_clear()


KEYS = [keygen(Role.THF, bytes((i,)) * 32) for i in (1, 2, 3)]
NOT_BYTES = st.one_of(st.none(), st.integers(), st.text(max_size=64))


@st.composite
def verify_cases(draw):
    """(kind, public, message, signature): a valid signature, or one with a
    bit flipped in any argument, under another key, of a wrong length,
    random bytes, or an argument that is not bytes at all."""
    key, other = draw(st.permutations(KEYS))[:2]
    message = draw(st.binary(max_size=64))
    args = [key.public, message, sign(key, message)]
    kind = draw(st.sampled_from(["valid", "flip", "wrong_key", "wrong_length", "random", "not_bytes"]))
    if kind == "flip":
        which = draw(st.sampled_from([0, 2] + ([1] if message else [])))
        arg = bytearray(args[which])
        bit = draw(st.integers(0, len(arg) * 8 - 1))
        arg[bit // 8] ^= 1 << (bit % 8)
        args[which] = bytes(arg)
    elif kind == "wrong_key":
        args[0] = other.public
    elif kind == "wrong_length":
        which = draw(st.sampled_from([0, 2]))
        cut = args[which][:draw(st.integers(0, len(args[which]) - 1))]
        longer = args[which] + draw(st.binary(min_size=1, max_size=8))
        args[which] = draw(st.sampled_from([cut, longer]))
    elif kind == "random":
        args[0], args[2] = draw(st.binary(min_size=32, max_size=32)), draw(st.binary(min_size=64, max_size=64))
    elif kind == "not_bytes":
        args[draw(st.integers(0, 2))] = draw(NOT_BYTES)
    return (kind, *args)


@pytest.mark.parametrize("bound", [True, False], ids=["libsodium", "openssl-only"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=verify_cases())
def test_verify_sig_matches_openssl(bound, case):
    kind, public, message, signature = case
    with sodium_binding(bound):
        verdict = verify_sig(public, message, signature)
    assert verdict == openssl_verdict(public, message, signature)
    if kind == "valid":
        assert verdict


def identity_r_signature(key, message: bytes) -> bytes:
    """A signature with R the identity point and S = h*a mod L. It meets the
    cofactorless equation [S]B = R + [h]A, which OpenSSL checks, but
    libsodium refuses R for its small order."""
    order = 2**252 + 27742317777372353535851937790883648493
    digest = bytearray(hashlib.sha512(key.secret).digest()[:32])
    digest[0] &= 248
    digest[31] = (digest[31] & 127) | 64
    scalar = int.from_bytes(digest, "little")
    r = b"\x01" + bytes(31)
    h = int.from_bytes(hashlib.sha512(r + key.public + message).digest(), "little") % order
    return r + (h * scalar % order).to_bytes(32, "little")


@pytest.mark.parametrize("bound", [True, False], ids=["libsodium", "openssl-only"])
def test_identity_r_signature_is_accepted_as_openssl_accepts_it(bound):
    key, message = KEYS[0], b"identity R"
    signature = identity_r_signature(key, message)
    assert openssl_verdict(key.public, message, signature)
    if crypto._sodium_verify is not None:
        assert crypto._sodium_verify(signature, message, len(message), key.public) != 0
    with sodium_binding(bound):
        assert verify_sig(key.public, message, signature)


def installed_sodium_version():
    """The version of the libsodium find_library finds, or None."""
    name = ctypes.util.find_library("sodium")
    if name is None:
        return None
    lib = ctypes.CDLL(name)
    lib.sodium_version_string.restype = ctypes.c_char_p
    return tuple(int(n) for n in lib.sodium_version_string().decode().split(".")[:3])


@pytest.mark.skipif((installed_sodium_version() or (0,)) < (1, 0, 18), reason="no libsodium 1.0.18 or later")
def test_libsodium_is_bound_where_installed():
    assert crypto._sodium_verify is not None
    assert crypto._sodium_sign is not None


@pytest.mark.skipif((installed_sodium_version() or (0,)) < (1, 0, 18), reason="no libsodium 1.0.18 or later")
def test_libsodium_is_bound_without_find_library(monkeypatch):
    """The known sonames are tried first, so binding starts no ldconfig or
    compiler process where libsodium is installed under one of them."""

    def no_search(name):
        raise AssertionError("find_library was called")

    monkeypatch.setattr(ctypes.util, "find_library", no_search)
    assert crypto._bind_sodium(crypto._open_sodium()) is not None


def test_openssl_refuses_the_rfc8032_signature_with_l_added_to_s():
    """The vector _bind_sodium checks a library against: OpenSSL takes the
    signature and refuses its twin with S + L, which has the same top bits."""
    sig = crypto._RFC8032_SIGNATURE
    malleated = sig[:32] + (int.from_bytes(sig[32:], "little") + crypto._ED25519_L).to_bytes(32, "little")
    assert openssl_verdict(crypto._RFC8032_PUBLIC, b"", sig)
    assert not openssl_verdict(crypto._RFC8032_PUBLIC, b"", malleated)


def fake_sodium(version: bytes, accepts):
    """A stand-in for the loaded library: its verify returns 0 for the
    signatures accepts(signature) is true of, -1 for the rest."""
    return SimpleNamespace(
        sodium_version_string=lambda: version,
        sodium_init=lambda: 0,
        crypto_sign_ed25519_verify_detached=lambda sig, m, n, pk: 0 if accepts(sig) else -1,
    )


@pytest.mark.parametrize(
    "version, accepts, bound",
    [
        (b"1.0.18", lambda sig: sig == crypto._RFC8032_SIGNATURE, True),
        (b"1.0.20", lambda sig: sig == crypto._RFC8032_SIGNATURE, True),
        (b"1.0.17", lambda sig: sig == crypto._RFC8032_SIGNATURE, False),
        (b"1.0.18", lambda sig: True, False),  # takes S + L, as ED25519_COMPAT builds do
        (b"1.0.18", lambda sig: False, False),
    ],
    ids=["1.0.18", "1.0.20", "too-old", "takes-malleated-S", "refuses-all"],
)
def test_libsodium_is_bound_only_if_it_refuses_what_openssl_refuses(monkeypatch, version, accepts, bound):
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: "libsodium-stand-in")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake_sodium(version, accepts))
    assert (crypto._bind_sodium(crypto._open_sodium()) is not None) == bound


def test_sign_rejects_malformed_secret():
    key = keygen(Role.THF, b"\x01" * 32)
    with pytest.raises(MalformedKey):
        replace(key, secret=b"\x00" * 31)


def fake_signing_sodium(signature: bytes):
    """A stand-in for the loaded library whose detached sign writes
    signature, whatever it signs."""
    return SimpleNamespace(
        crypto_sign_ed25519_seed_keypair=lambda pk, sk, seed: 0,
        crypto_sign_ed25519_detached=lambda sig, siglen, m, n, sk: ctypes.memmove(sig, signature, len(signature)),
    )


def one_byte_off(signature: bytes) -> bytes:
    return signature[:-1] + bytes((signature[-1] ^ 1,))


@pytest.mark.parametrize(
    "library, bound",
    [
        (fake_signing_sodium(crypto._RFC8032_SIGNATURE), True),
        (fake_signing_sodium(one_byte_off(crypto._RFC8032_SIGNATURE)), False),
        (SimpleNamespace(), False),
        (None, False),
    ],
    ids=["signs-rfc8032-test1", "one-byte-off", "no-sign-functions", "no-library"],
)
def test_libsodium_signs_only_if_it_signs_rfc8032_test1_to_the_byte(library, bound):
    assert (crypto._bind_sodium_sign(library) is not None) == bound


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
