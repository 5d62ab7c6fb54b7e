"""Signed buildcaches: Spack's GPG model via HMAC-SHA256 manifests.

Real Spack signs the spec file of every cache entry with GPG and ships
public keys alongside the cache (``spack gpg trust``).  No key daemon
exists in this sandbox, so we model the same trust boundary with
symmetric keys:

* a **manifest** per entry records the SHA-256 digest of every payload
  file and of the metadata document — the content-addressed statement
  of "what was pushed";
* a **detached signature** is an HMAC-SHA256 of the manifest bytes
  under a named :class:`SigningKey`;
* a consumer configures a :class:`TrustStore` of accepted keys; on
  extraction the manifest signature must verify against a trusted key
  AND the payload must still match the manifest digests.

This preserves exactly the properties the paper's distribution story
needs: tampered payloads are rejected, unsigned entries are rejected by
trusting consumers, and signatures survive relocation because they
cover the *cache* content, not the installed (rewritten) binaries.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from typing import Dict, Iterable, List, Optional

__all__ = ["SigningKey", "TrustStore", "SignatureError"]

#: the one signature scheme: HMAC-SHA256 under a named key
ALGORITHM = "hmac-sha256"


class SignatureError(RuntimeError):
    """A signature is missing, unknown, or does not verify."""


class SigningKey:
    """A named symmetric signing key (the GPG keypair stand-in).

    The ``key_id`` is derived from the secret, so two keys that happen
    to share a human name still have distinct identities — exactly like
    a GPG fingerprint.
    """

    __slots__ = ("name", "secret")

    def __init__(self, name: str, secret: str):
        if not name:
            raise ValueError("signing key needs a name")
        if not secret:
            raise ValueError("signing key needs a secret")
        self.name = name
        self.secret = secret

    @classmethod
    def generate(cls, name: str) -> "SigningKey":
        """Create a fresh key with a random 256-bit secret."""
        return cls(name, secrets.token_hex(32))

    @property
    def key_id(self) -> str:
        """Stable public identifier (fingerprint) for this key."""
        return hashlib.sha256(
            b"repro-key:" + self.secret.encode()
        ).hexdigest()[:16]

    def sign(self, data: bytes) -> Dict[str, str]:
        """Detached signature document over ``data``."""
        mac = hmac.new(self.secret.encode(), data, hashlib.sha256)
        return {
            "key_name": self.name,
            "key_id": self.key_id,
            "algorithm": ALGORITHM,
            "signature": mac.hexdigest(),
        }

    def verify(self, data: bytes, signature: Dict[str, str]) -> bool:
        mac = hmac.new(self.secret.encode(), data, hashlib.sha256)
        return hmac.compare_digest(mac.hexdigest(), signature.get("signature", ""))

    def __repr__(self) -> str:
        return f"<SigningKey {self.name!r} id={self.key_id}>"


class TrustStore:
    """The set of signing keys a consumer accepts (``spack gpg trust``)."""

    def __init__(self, keys: Iterable[SigningKey] = ()):
        self._keys: Dict[str, SigningKey] = {}
        for key in keys:
            self.trust(key)

    def trust(self, key: SigningKey) -> None:
        self._keys[key.key_id] = key

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._keys

    def keys(self) -> List[SigningKey]:
        return list(self._keys.values())

    def verify(self, data: bytes, signature: Optional[Dict[str, str]]) -> None:
        """Check ``signature`` over ``data`` against the trusted keys.

        Raises :class:`SignatureError` when the signature is missing,
        declares another algorithm, comes from an untrusted key or names
        it wrongly, or fails to verify: every field counts.
        """
        if not signature:
            raise SignatureError(
                "entry is unsigned but the consumer requires trusted signatures"
            )
        if signature.get("algorithm") != ALGORITHM:
            raise SignatureError(
                f"signature declares unknown algorithm "
                f"{signature.get('algorithm')!r}"
            )
        key_id = signature.get("key_id", "")
        key = self._keys.get(key_id)
        if key is None:
            raise SignatureError(
                f"signature by untrusted key "
                f"{signature.get('key_name', '?')!r} (id {key_id or '?'})"
            )
        if signature.get("key_name") != key.name:
            raise SignatureError(
                f"signature names key {signature.get('key_name')!r} but its "
                f"key_id belongs to {key.name!r}"
            )
        if not key.verify(data, signature):
            raise SignatureError(
                f"signature by key {key.name!r} does not verify: "
                "manifest was modified after signing"
            )

    def __repr__(self) -> str:
        names = ", ".join(sorted(k.name for k in self._keys.values()))
        return f"<TrustStore [{names}]>"
