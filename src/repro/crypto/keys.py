"""Algorithm-agnostic key abstraction consumed by the dRBAC core.

Entities in dRBAC are "represented by a unique PKI public identity" (paper,
Section 2). The core model never touches raw curve points or RSA moduli; it
works with :class:`PublicKey` (identity + verification) and :class:`KeyPair`
(identity + signing). Two algorithms are registered:

* ``schnorr-secp256k1`` (default) -- fast keygen, 65-byte signatures.
* ``rsa-fdh-sha256`` -- classic RSA, slower keygen, for interoperability
  tests and to demonstrate algorithm agility.

Public keys serialize to ``(algorithm, key bytes)`` pairs; their SHA-256
fingerprint is the entity's stable, globally unique identifier.
"""

import secrets
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.crypto import ec, rsa, schnorr, verify_cache
from repro.crypto.encoding import CanonicalMap
from repro.crypto.hashing import sha256, sha256_hex
from repro.crypto.pools import make_room

DEFAULT_ALGORITHM = "schnorr-secp256k1"
ALGORITHMS = ("schnorr-secp256k1", "rsa-fdh-sha256")

# Default RSA modulus size for generated keys; tests can lower this.
RSA_DEFAULT_BITS = 512


class SignatureError(ValueError):
    """Raised on malformed keys, unknown algorithms, or bad signatures."""


# Interned PublicKey instances: wire payloads and wallet
# snapshots repeat the same issuer/subject keys in every record, and
# each construction re-validates (the Schnorr arm pays a Jacobi
# symbol). The intern key is the COMPLETE content -- (algorithm, key
# bytes) -- so sharing an instance can never conflate distinct keys.
# Bounded FIFO, mirroring the ec.py cache pattern.
_PK_INTERN_LIMIT = 4096
_pk_intern: dict = {}


@dataclass(frozen=True)
class PublicKey:
    """A verification key plus the algorithm that interprets it."""

    algorithm: str
    key_bytes: bytes

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise SignatureError(f"unknown algorithm {self.algorithm!r}")
        # Fail fast on undecodable key material. A Schnorr key is only
        # checked here: most keys a wallet admits name a subject and
        # never verify anything, so the point is decompressed by the
        # first verify (_decode), not on construction.
        if self.algorithm == "schnorr-secp256k1":
            _schnorr_key(schnorr.SchnorrPublicKey.check, self.key_bytes)
        else:
            self._decode()

    def _decode(self):
        # Decoding is not free (the Schnorr path does a modular square
        # root to decompress the point), so the verifier object is built
        # once per PublicKey, on its first verify, and cached on the
        # instance. The cache slot is plain instance state, invisible to
        # the dataclass-generated __eq__/__hash__ (which only consider
        # declared fields).
        cached = self.__dict__.get("_verifier")
        if cached is not None:
            return cached
        if self.algorithm == "schnorr-secp256k1":
            verifier = _schnorr_key(schnorr.SchnorrPublicKey.decode,
                                    self.key_bytes)
        else:
            n_bytes, e_bytes = _split_rsa_blob(self.key_bytes)
            try:
                verifier = rsa.RSAPublicKey(
                    n=int.from_bytes(n_bytes, "big"),
                    e=int.from_bytes(e_bytes, "big"),
                )
            except rsa.RSAError as exc:
                raise SignatureError(f"bad rsa key: {exc}") from exc
        object.__setattr__(self, "_verifier", verifier)
        return verifier

    @property
    def fingerprint(self) -> str:
        """Stable 64-hex-char identifier for this key (entity identity).

        Entity equality/hashing bottoms out here, so the digest is
        computed once per instance and cached the same way as the
        verifier object above.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = sha256_hex(
                self.algorithm.encode("utf-8") + self.key_bytes)
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @property
    def short_fingerprint(self) -> str:
        """First 12 hex chars of the fingerprint, for display."""
        return self.fingerprint[:12]

    def _memo_key(self, message: bytes,
                  signature: bytes) -> verify_cache.MemoKey:
        return (self.algorithm, self.key_bytes, sha256(message), signature)

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` over ``message`` verifies.

        Successful verifications are memoized process-wide (see
        :mod:`repro.crypto.verify_cache`); failures always re-run the
        full check and are never cached.
        """
        if not isinstance(signature, (bytes, bytearray)):
            return False
        signature = bytes(signature)
        memo = verify_cache.memo()
        key = self._memo_key(message, signature)
        if memo.lookup(key):
            return True
        # Memo miss: the only arm that pays group arithmetic, and the
        # only one worth a trace span.
        with obs.span("crypto.verify", algorithm=self.algorithm):
            ok = self._decode().verify(message, signature)
        if ok:
            memo.record(key)
        return ok

    def to_dict(self) -> dict:
        """Serializable representation (used in wire messages), built
        and encoded once per instance."""
        cached = self.__dict__.get("_map")
        if cached is None:
            cached = CanonicalMap({"algorithm": self.algorithm,
                                   "key": self.key_bytes})
            object.__setattr__(self, "_map", cached)
        return cached

    @staticmethod
    def from_dict(data: dict) -> "PublicKey":
        try:
            algorithm = data["algorithm"]
            key_bytes = bytes(data["key"])
        except (KeyError, TypeError) as exc:
            raise SignatureError(f"malformed public key record: {exc}") from exc
        if isinstance(algorithm, str):
            intern_key = (algorithm, key_bytes)
            cached = _pk_intern.get(intern_key)
            if cached is not None:
                return cached
            key = PublicKey(algorithm=algorithm, key_bytes=key_bytes)
            make_room(_pk_intern, _PK_INTERN_LIMIT)
            _pk_intern[intern_key] = key
            return key
        return PublicKey(algorithm=algorithm, key_bytes=key_bytes)


@dataclass(frozen=True)
class KeyPair:
    """A signing key bound to its public half."""

    algorithm: str
    public: PublicKey
    _private: object = field(repr=False)

    def sign(self, message: bytes) -> bytes:
        """Sign ``message``; the signature verifies under ``self.public``."""
        if not isinstance(message, (bytes, bytearray)):
            raise SignatureError("messages to sign must be bytes")
        return self._private.sign(bytes(message))

    @property
    def fingerprint(self) -> str:
        return self.public.fingerprint


# A batch-verification item: (public key, message, signature).
BatchItem = Tuple[PublicKey, bytes, bytes]


def verify_batch(items: Sequence[BatchItem]) -> List[bool]:
    """Verify many (key, message, signature) items, amortizing the work.

    Returns one bool per item, identical to calling
    ``key.verify(message, signature)`` item by item (asserted by the
    Hypothesis property test in ``tests/crypto/test_batch_verify.py``),
    but cheaper:

    * items already in the verification memo are answered without any
      group arithmetic;
    * the remaining Schnorr items are checked together
      (:func:`repro.crypto.schnorr.verify_batch_bisect`): one
      random-linear-combination equation for the whole group when the
      group is large enough for that to beat single checks, with
      bisection on failure so the offending item is identified exactly;
    * RSA (and malformed) items fall back to individual verification.

    Successes are recorded in the memo either way.
    """
    results: List[Optional[bool]] = [None] * len(items)
    memo = verify_cache.memo()
    memo_keys: List[Optional[verify_cache.MemoKey]] = [None] * len(items)
    schnorr_indices: List[int] = []
    schnorr_items: List[schnorr.BatchItem] = []
    for index, (public_key, message, signature) in enumerate(items):
        if not isinstance(signature, (bytes, bytearray)):
            results[index] = False
            continue
        signature = bytes(signature)
        key = public_key._memo_key(message, signature)
        memo_keys[index] = key
        if memo.lookup(key):
            results[index] = True
            continue
        if public_key.algorithm == "schnorr-secp256k1":
            schnorr_indices.append(index)
            schnorr_items.append(
                (public_key._decode(), message, signature))
        else:
            results[index] = public_key._decode().verify(message,
                                                         signature)
    if schnorr_items:
        count = len(schnorr_items)
        issuers = len({key for key, _message, _signature in schnorr_items})
        with obs.span("crypto.verify_batch", items=count, keys=issuers,
                      kernel="equation" if schnorr.equation_wins(
                          count, issuers) else "single"):
            verdicts = schnorr.verify_batch_bisect(schnorr_items)
        for index, verdict in zip(schnorr_indices, verdicts):
            results[index] = verdict
    for index, verdict in enumerate(results):
        if verdict and memo_keys[index] is not None:
            memo.record(memo_keys[index])
    return [bool(verdict) for verdict in results]


def generate_keypair(algorithm: str = DEFAULT_ALGORITHM,
                     rng: Optional[secrets.SystemRandom] = None,
                     rsa_bits: int = RSA_DEFAULT_BITS) -> KeyPair:
    """Generate a fresh keypair for the given algorithm.

    ``rng`` allows deterministic key generation in tests and workload
    builders (pass ``secrets.SystemRandom`` look-alikes seeded explicitly).
    """
    if algorithm == "schnorr-secp256k1":
        private = schnorr.generate_schnorr_keypair(rng=rng)
        # The point is already at hand: intern it and seed the verifier
        # with it, so neither this key nor one built from its bytes
        # later is ever decompressed.
        public = PublicKey(algorithm=algorithm,
                           key_bytes=ec.intern(private.public_key.point))
        object.__setattr__(public, "_verifier", private.public_key)
        return KeyPair(algorithm=algorithm, public=public, _private=private)
    if algorithm == "rsa-fdh-sha256":
        private = rsa.generate_rsa_keypair(bits=rsa_bits, rng=rng)
        blob = _join_rsa_blob(private.n, private.e)
        public = PublicKey(algorithm=algorithm, key_bytes=blob)
        return KeyPair(algorithm=algorithm, public=public, _private=private)
    raise SignatureError(f"unknown algorithm {algorithm!r}")


def serialize_keypair(keypair: KeyPair) -> dict:
    """Serialize a keypair INCLUDING its private key.

    For tooling that persists identities (e.g. the CLI's local
    workspace). The output is plaintext key material -- callers own the
    storage-protection question.
    """
    record = {"algorithm": keypair.algorithm,
              "public": keypair.public.to_dict()}
    private = keypair._private
    if keypair.algorithm == "schnorr-secp256k1":
        record["private"] = private.d.to_bytes(32, "big")
    else:
        record["private"] = {
            "n": private.n.to_bytes((private.n.bit_length() + 7) // 8,
                                    "big"),
            "e": private.e,
            "d": private.d.to_bytes((private.d.bit_length() + 7) // 8,
                                    "big"),
            "p": private.p.to_bytes((private.p.bit_length() + 7) // 8,
                                    "big"),
            "q": private.q.to_bytes((private.q.bit_length() + 7) // 8,
                                    "big"),
        }
    return record


def deserialize_keypair(record: dict) -> KeyPair:
    """Rebuild a keypair from :func:`serialize_keypair` output.

    The reconstructed public half is checked against the stored one, so
    a corrupted record fails loudly rather than signing with a key that
    does not match its advertised identity.
    """
    try:
        algorithm = record["algorithm"]
        public = PublicKey.from_dict(record["public"])
        if algorithm == "schnorr-secp256k1":
            private = schnorr.SchnorrPrivateKey(
                int.from_bytes(bytes(record["private"]), "big"))
            rebuilt = private.public_key.encode()
        elif algorithm == "rsa-fdh-sha256":
            blob = record["private"]
            private = rsa.RSAPrivateKey(
                n=int.from_bytes(bytes(blob["n"]), "big"),
                e=int(blob["e"]),
                d=int.from_bytes(bytes(blob["d"]), "big"),
                p=int.from_bytes(bytes(blob["p"]), "big"),
                q=int.from_bytes(bytes(blob["q"]), "big"),
            )
            rebuilt = _join_rsa_blob(private.n, private.e)
        else:
            raise SignatureError(f"unknown algorithm {algorithm!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SignatureError):
            raise
        raise SignatureError(f"malformed keypair record: {exc}") from exc
    if rebuilt != public.key_bytes:
        raise SignatureError(
            "private key does not match the stored public key"
        )
    return KeyPair(algorithm=algorithm, public=public, _private=private)


def _schnorr_key(parse, key_bytes: bytes):
    """``parse(key_bytes)``, its refusal re-raised as a SignatureError."""
    try:
        return parse(key_bytes)
    except (schnorr.SchnorrError, ValueError) as exc:
        raise SignatureError(f"bad schnorr key: {exc}") from exc


def _join_rsa_blob(n: int, e: int) -> bytes:
    n_bytes = n.to_bytes((n.bit_length() + 7) // 8, "big")
    e_bytes = e.to_bytes((e.bit_length() + 7) // 8, "big")
    return (len(n_bytes).to_bytes(4, "big") + n_bytes +
            len(e_bytes).to_bytes(4, "big") + e_bytes)


def _split_rsa_blob(blob: bytes):
    if len(blob) < 8:
        raise SignatureError("rsa key blob too short")
    n_len = int.from_bytes(blob[:4], "big")
    if len(blob) < 4 + n_len + 4:
        raise SignatureError("rsa key blob truncated")
    n_bytes = blob[4:4 + n_len]
    e_len = int.from_bytes(blob[4 + n_len:8 + n_len], "big")
    e_bytes = blob[8 + n_len:8 + n_len + e_len]
    if len(e_bytes) != e_len or len(blob) != 8 + n_len + e_len:
        raise SignatureError("rsa key blob malformed")
    return n_bytes, e_bytes
