"""Key management, Ed25519 signatures, and salted document commitments.

Signing is deterministic (RFC 8032), so golden vectors are stable across runs
and platforms. The commitment is a domain-tagged SHA-256 over a fresh 16-byte
salt and the canonical document bytes: hiding without the salt, binding to
(salt, document). The salt travels only inside the traveller's token, which is
what keeps on-chain records unlinkable and unexplorable.

Signing runs on libsodium's detached Ed25519 sign where the library is
installed and signs RFC 8032 test 1 to the byte, and on `cryptography`
(OpenSSL) elsewhere; the scheme is deterministic, so both give the same
signature. Verification runs libsodium first where it is installed, at about
half OpenSSL's cost, and takes only its acceptances. libsodium checks the same
cofactorless equation and also refuses small-order and non-canonical points,
so what it accepts OpenSSL accepts too; OpenSSL decides every rejection, and a
host with libsodium and one without return the same verdicts. A libsodium
older than 1.0.18, or one that takes a signature whose S is not reduced, is
not used.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import secrets
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from random import Random

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

from .core import ActorId, DhpError, EncodingError, Role, TravelDocument, canonical_doc_bytes

COMMIT_TAG = b"DHPC1|"
ACTOR_ID_TAG = b"DHPID|"
SALT_LEN = 16
SEED_LEN = 32
PUBLIC_KEY_LEN = 32
SIGNATURE_LEN = 64

#: A commitment is a raw 32-byte digest.
Commitment = bytes


class MalformedKey(DhpError):
    """Secret key bytes are not a valid signing key."""


@dataclass(frozen=True)
class KeyPair:
    """An actor's signing seed and verification key. secret stays local.

    The seed alone, never public, is turned into a signer once, on
    construction (a malformed seed raises MalformedKey);
    `dataclasses.replace` builds the signer of a new seed.
    """

    secret: bytes
    public: bytes
    owner: ActorId
    _sign: Callable[[bytes], bytes] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Building a signer from the seed costs about as much as a signature.
        object.__setattr__(self, "_sign", _signer(self.secret))


@dataclass(frozen=True)
class Salt:
    """Per-credential 16-byte randomness; disclosed only inside the token."""

    value: bytes


def new_salt(rng: Random | None = None) -> Salt:
    """Draw a fresh salt; pass a seeded Random only in simulations/tests."""
    if rng is None:
        return Salt(secrets.token_bytes(SALT_LEN))
    return Salt(rng.randbytes(SALT_LEN))


def _checked_seed(secret: bytes) -> bytes:
    if not isinstance(secret, bytes) or len(secret) != SEED_LEN:
        raise MalformedKey(f"signing key must be {SEED_LEN} bytes")
    return secret


def _private_key(secret: bytes) -> ed25519.Ed25519PrivateKey:
    seed = _checked_seed(secret)
    try:
        return ed25519.Ed25519PrivateKey.from_private_bytes(seed)
    except Exception as exc:  # pragma: no cover - library rejects nothing else
        raise MalformedKey(str(exc)) from exc


def derive_public(secret: bytes) -> bytes:
    return _private_key(secret).public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )


# The y-coordinates, sign bit cleared, of the points of order 1, 2, 4 and 8:
# 0, 1, p - 1, p and p + 1 (0 and 1 again, non-canonical), and the two of order
# 8. Under such a key OpenSSL takes R = identity, S = 0 for many messages.
_SMALL_ORDER_Y = frozenset(bytes.fromhex(y) for y in (
    "00" * 32, "01" + "00" * 31, "ec" + "ff" * 30 + "7f", "ed" + "ff" * 30 + "7f", "ee" + "ff" * 30 + "7f",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
))


def usable_public_key(public: bytes) -> bool:
    """True iff public is 32 bytes and not a point of small order."""
    return len(public) == PUBLIC_KEY_LEN and public[:31] + bytes((public[31] & 0x7F,)) not in _SMALL_ORDER_Y


def actor_id_for(public: bytes) -> bytes:
    """16-byte actor id derived from the verification key."""
    return hashlib.sha256(ACTOR_ID_TAG + public).digest()[:16]


def keygen(role: Role, seed: bytes | None = None) -> KeyPair:
    """Create a key pair for a consortium role.

    With a 32-byte seed the output is fully deterministic (tests and
    simulations only); without one, fresh randomness is used.
    """
    secret = secrets.token_bytes(SEED_LEN) if seed is None else seed
    public = derive_public(secret)
    owner = ActorId(role=role, id=actor_id_for(public), public_key=public)
    return KeyPair(secret=secret, public=public, owner=owner)


def sign(key: KeyPair, message: bytes) -> bytes:
    """Sign a message; deterministic for a fixed (key, message)."""
    return key._sign(message)


def _signer(seed: bytes) -> Callable[[bytes], bytes]:
    """The function that signs a message under seed: libsodium's where it is
    bound, OpenSSL's elsewhere. A malformed seed raises MalformedKey."""
    if _sodium_sign is None:
        return _private_key(seed).sign
    return _sodium_sign(_checked_seed(seed))


def verify_sig(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid for message under public.

    Total: malformed keys, empty or garbage signatures all return False.
    """
    return _verify_cached(public, message, signature)


# RFC 8032 test 1 (empty message), for the checks the bindings make.
_RFC8032_SEED = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
_RFC8032_PUBLIC = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
_RFC8032_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)
_ED25519_L = 2**252 + 27742317777372353535851937790883648493


#: libsodium's sonames on Linux: 23 up to 1.0.18, 26 from 1.0.19.
_SODIUM_SONAMES = ("libsodium.so.23", "libsodium.so.26")


def _load_sodium() -> ctypes.CDLL | None:
    """libsodium, loaded by a known soname, which starts no process; failing
    that, by ctypes.util.find_library, which runs ldconfig (and a compiler
    where the library is missing). None if neither finds it."""
    for soname in _SODIUM_SONAMES:
        try:
            return ctypes.CDLL(soname)
        except OSError:
            continue
    name = ctypes.util.find_library("sodium")
    return None if name is None else ctypes.CDLL(name)


def _open_sodium() -> ctypes.CDLL | None:
    """libsodium 1.0.18 or later, initialised, or None. Loaded once, for
    both bindings."""
    try:
        lib = _load_sodium()
        if lib is None:
            return None
        lib.sodium_version_string.restype = ctypes.c_char_p
        version = tuple(int(n) for n in lib.sodium_version_string().split(b".")[:3])
        return lib if version >= (1, 0, 18) and lib.sodium_init() >= 0 else None
    except (OSError, AttributeError, ValueError):
        return None


def _bind_sodium(lib: ctypes.CDLL | None):
    """lib's detached Ed25519 verify, or None where there is no lib or it
    might accept what OpenSSL refuses.

    The argument that libsodium accepts a subset of what OpenSSL accepts
    holds from 1.0.18 on. Older builds, and builds made with ED25519_COMPAT,
    check only the top bits of S, so the binding is also used only if it takes
    the RFC 8032 signature and refuses it with L added to S, as OpenSSL does.
    """
    if lib is None:
        return None
    try:
        verify = lib.crypto_sign_ed25519_verify_detached
    except AttributeError:
        return None
    # (sig[64], m, mlen, pk[32]) -> 0 iff valid.
    verify.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p)
    verify.restype = ctypes.c_int
    r, s = _RFC8032_SIGNATURE[:32], int.from_bytes(_RFC8032_SIGNATURE[32:], "little")
    malleated = r + (s + _ED25519_L).to_bytes(32, "little")
    if verify(_RFC8032_SIGNATURE, b"", 0, _RFC8032_PUBLIC) != 0 or verify(malleated, b"", 0, _RFC8032_PUBLIC) == 0:
        return None
    return verify


def _bind_sodium_sign(lib: ctypes.CDLL | None):
    """A function from a 32-byte seed to lib's detached Ed25519 signer under
    it, or None where there is no lib or its signature of RFC 8032 test 1
    differs from the known one by a single byte.

    The signer's 64-byte secret key is libsodium's own, derived from the
    seed by crypto_sign_ed25519_seed_keypair."""
    if lib is None:
        return None
    try:
        seed_keypair = lib.crypto_sign_ed25519_seed_keypair
        detached = lib.crypto_sign_ed25519_detached
    except AttributeError:
        return None
    # (pk[32], sk[64], seed[32]) -> 0.
    seed_keypair.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p)
    seed_keypair.restype = ctypes.c_int
    # (sig[64], siglen or NULL, m, mlen, sk[64]) -> 0.
    detached.argtypes = (ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p)
    detached.restype = ctypes.c_int

    def signer(seed: bytes) -> Callable[[bytes], bytes]:
        buffer = ctypes.create_string_buffer(2 * SEED_LEN)
        seed_keypair(ctypes.create_string_buffer(PUBLIC_KEY_LEN), buffer, seed)
        secret = buffer.raw

        def sign_detached(message: bytes) -> bytes:
            signature = ctypes.create_string_buffer(SIGNATURE_LEN)
            detached(signature, None, message, len(message), secret)
            return signature.raw

        return sign_detached

    if signer(_RFC8032_SEED)(b"") != _RFC8032_SIGNATURE:
        return None
    return signer


_sodium = _open_sodium()
_sodium_verify = _bind_sodium(_sodium)
_sodium_sign = _bind_sodium_sign(_sodium)


# Verification is pure, so it is memoised for the three places that check a
# signature again: repeat gate checks of one credential at a member, an
# authority appending the block it built from records it admitted, and the
# simulator's in-process replicas, which each append every block but check
# only its header signature again. A miss runs one full verification:
# libsodium's, and OpenSSL's too unless libsodium accepted.
@lru_cache(maxsize=1 << 16)
def _verify_cached(public: bytes, message: bytes, signature: bytes) -> bool:
    # libsodium reads exactly 64 signature and 32 key bytes, so it only sees
    # arguments of those lengths.
    if (
        _sodium_verify is not None
        and isinstance(public, bytes) and len(public) == PUBLIC_KEY_LEN
        and isinstance(signature, bytes) and len(signature) == SIGNATURE_LEN
        and isinstance(message, bytes)
        and _sodium_verify(signature, message, len(message), public) == 0
    ):
        return True
    try:
        key = ed25519.Ed25519PublicKey.from_public_bytes(public)
        key.verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def commit(doc: TravelDocument, salt: Salt) -> Commitment:
    """Salted, domain-tagged digest binding a credential to a document."""
    if not isinstance(salt.value, bytes) or len(salt.value) != SALT_LEN:
        raise EncodingError(f"salt must be {SALT_LEN} bytes")
    return hashlib.sha256(COMMIT_TAG + salt.value + canonical_doc_bytes(doc)).digest()
