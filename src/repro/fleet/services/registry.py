"""Signed release images: the fleet's unit of deployment.

§3.1's trusted toolchain signs an extension once.  A
:class:`Release` is that signed artifact at fleet scale: a named,
versioned bytecode image whose content hash (the same per-instruction
serialization the load cache keys on —
:func:`repro.ebpf.progcache.insns_digest`) is bound to its name and
version and HMAC-signed by the registry's
:class:`~repro.core.signing.SigningKey`.  Nodes hold the public half
(here: the same deterministic key) and refuse anything that does not
verify — a tampered image or a signature lifted from another version
both fail closed.

A signature admits an image; it does not replace the load-time check.
:meth:`~repro.fleet.adapters.node.FleetNode.deploy` checks the HMAC
first and then loads the bytes through
:meth:`~repro.ebpf.loader.BpfSubsystem.load_program`, which runs the
node's own verifier — as kernel BPF signing checks a program's
signature and still verifies it.  Only a repeat load of identical
bytes on the same node skips the verifier, through that node's load
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.signing import SigningKey
from repro.ebpf.progcache import insns_digest


@dataclass(frozen=True)
class Release:
    """One immutable, signed extension release."""

    #: extension name (the program tag on every node is ``bpf:name``,
    #: stable across versions so the supervisor's history follows the
    #: extension, not the image)
    name: str
    #: version string; ``name@version`` identifies the release
    version: str
    #: program type value (e.g. ``"xdp"``)
    prog_type: object
    #: the bytecode image
    insns: Tuple[object, ...]
    #: SHA-256 over the instruction fields (see
    #: :func:`~repro.ebpf.progcache.insns_digest`)
    content_hash: str
    #: id of the key that signed this release
    key_id: str
    #: HMAC-SHA256 over :meth:`image_bytes`
    signature: str

    @property
    def release_id(self) -> str:
        """The canonical ``name@version`` identifier."""
        return f"{self.name}@{self.version}"

    def image_bytes(self) -> bytes:
        """The canonical signed image: name, version and content hash
        — binding the signature to *this* version of *this* extension,
        not just to the bytes."""
        return (f"{self.name}@{self.version}:"
                f"{getattr(self.prog_type, 'value', self.prog_type)}:"
                f"{self.content_hash}").encode()

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary (no bytecode)."""
        return {
            "release_id": self.release_id,
            "prog_type": getattr(self.prog_type, "value",
                                 self.prog_type),
            "insns": len(self.insns),
            "content_hash": self.content_hash,
            "key_id": self.key_id,
            "signature": self.signature,
        }


class ReleaseRegistry:
    """The trusted toolchain's release store.

    ``publish`` hashes and signs; ``verify`` is what every node (and
    the orchestrator, before it wastes a rollout on a forgery) runs
    against the registry key.  Deterministic: the same name, version
    and bytecode always produce the same signed release.
    """

    def __init__(self, key: Optional[SigningKey] = None) -> None:
        """Create a registry; ``key`` defaults to the deterministic
        fleet toolchain key."""
        self.key = key or SigningKey.generate("fleet-toolchain")
        self._releases: Dict[str, Release] = {}

    def publish(self, name: str, version: str,
                insns: Sequence[object],
                prog_type: object) -> Release:
        """Hash, sign and store one release; returns it.  Re-publishing
        an existing ``name@version`` with different content is refused
        — releases are immutable."""
        content_hash = insns_digest(insns)
        release = Release(
            name=name, version=version, prog_type=prog_type,
            insns=tuple(insns), content_hash=content_hash,
            key_id=self.key.key_id, signature="")
        release = replace(
            release, signature=self.key.sign(release.image_bytes()))
        existing = self._releases.get(release.release_id)
        if existing is not None:
            if existing.signature != release.signature:
                raise ValueError(
                    f"release {release.release_id} already published "
                    "with different content")
            return existing
        self._releases[release.release_id] = release
        return release

    def get(self, release_id: str) -> Release:
        """Look up a release by ``name@version``; raises ``KeyError``
        with the known ids when absent."""
        release = self._releases.get(release_id)
        if release is None:
            raise KeyError(
                f"unknown release {release_id!r}; published: "
                f"{sorted(self._releases) or 'none'}")
        return release

    def verify(self, release: Release) -> bool:
        """True when the release's signature checks out against the
        registry key *and* its content hash matches its bytecode (a
        re-hashed image catches bytecode swapped under a valid
        signature)."""
        if insns_digest(release.insns) != release.content_hash:
            return False
        return self.key.verify(release.image_bytes(),
                               release.signature)

    def releases(self) -> List[Release]:
        """Every published release, in publish order."""
        return list(self._releases.values())
