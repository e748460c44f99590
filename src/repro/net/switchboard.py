"""Authenticated channels in the spirit of Switchboard [8].

The paper's implementation "leverages a novel secure inter-host
communication abstraction called Switchboard", which provides credentialed
secure links between hosts. This module reproduces the *behavioral*
surface the dRBAC experiments need (see DESIGN.md, substitution 1):

* **Mutual authentication**: a three-message handshake in which each side
  signs the session transcript with its entity key, so each end knows the
  peer controls its claimed PKI identity.
* **Frame integrity**: established channels MAC every frame with a session
  key derived from both nonces; tampering or replay is detected.
* **Credentialed acceptance**: an acceptor may require the connecting
  entity to present a dRBAC proof of a specific role -- exactly the check
  discovery tags call for ("a dRBAC role required to authorize the home
  and its proxies", Section 4.2.1).

Confidentiality is out of scope: the simulated wire is in-process, and no
reproduced claim depends on encryption.
"""

import itertools
import secrets
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.core.delegation import prefetch_signatures
from repro.core.identity import Entity, Principal
from repro.core.proof import Proof
from repro.crypto.encoding import canonical_encode
from repro.crypto.hashing import hmac_sha256
from repro.net.transport import Network

# Validates (entity, proof) for credentialed acceptance; raises on failure.
RoleValidator = Callable[[Entity, Optional[Proof]], None]


class HandshakeError(Exception):
    """Mutual authentication failed."""


@dataclass
class Channel:
    """One end of an established, MAC-protected channel."""

    switchboard: "Switchboard" = field(repr=False)
    channel_id: str
    local: Entity
    peer: Entity
    session_key: bytes = field(repr=False)
    send_seq: int = 0
    recv_seq: int = 0
    inbox: List[Any] = field(default_factory=list)
    on_message: Optional[Callable[[Any], None]] = None
    open: bool = True

    def send(self, payload: Any) -> None:
        """Send a MAC'd frame to the peer."""
        if not self.open:
            raise HandshakeError("channel is closed")
        frame = {
            "channel": self.channel_id,
            "seq": self.send_seq,
            "data": payload,
        }
        frame["mac"] = _frame_mac(self.session_key, self.send_seq, payload)
        self.send_seq += 1
        self.switchboard._send_frame(self, frame)

    def _receive(self, frame: dict) -> None:
        expected_mac = _frame_mac(self.session_key, frame.get("seq", -1),
                                  frame.get("data"))
        if frame.get("mac") != expected_mac:
            raise HandshakeError("frame MAC verification failed")
        if frame.get("seq") != self.recv_seq:
            raise HandshakeError(
                f"frame out of sequence: got {frame.get('seq')}, "
                f"expected {self.recv_seq}"
            )
        self.recv_seq += 1
        if self.on_message is not None:
            self.on_message(frame["data"])
        else:
            self.inbox.append(frame["data"])

    def close(self) -> None:
        self.open = False


class Switchboard:
    """A host's endpoint for authenticated channels.

    Each switchboard claims the transport address ``<address>#sb``. An
    acceptor may demand a role proof from connecting peers by setting
    ``required_role_validator``.
    """

    def __init__(self, network: Network, principal: Principal,
                 address: str,
                 required_role_validator: Optional[RoleValidator] = None,
                 rng: Optional[secrets.SystemRandom] = None) -> None:
        self.network = network
        self.principal = principal
        self.address = address
        self.required_role_validator = required_role_validator
        self._rng = rng if rng is not None else secrets.SystemRandom()
        self._channels: Dict[str, Channel] = {}
        self._pending: Dict[str, dict] = {}
        self._by_peer: Dict[str, str] = {}
        self._ids = itertools.count()
        network.register(self._net_address(address), self._handle)
        # Registry-backed session counters (labelled by address plus a
        # process-unique instance id -- coalitions reuse addresses across
        # simulated networks, and two hosts' tallies must never merge).
        self.stats = obs.CounterSet(
            "drbac_switchboard",
            ("handshakes_completed", "handshakes_rejected",
             "sessions_reused"),
            address=address)

    def __getattr__(self, name: str):
        # Reached only for what is not an attribute: the tallies stay
        # readable on the switchboard (``board.handshakes_completed``).
        stats = self.__dict__.get("stats")
        if stats is None:
            raise AttributeError(name)
        return getattr(stats, name)

    @staticmethod
    def _net_address(address: str) -> str:
        return f"{address}#sb"

    # -- initiator side ----------------------------------------------------

    def connect(self, remote_address: str,
                expected_peer: Optional[Entity] = None,
                role_proof: Optional[Proof] = None) -> Channel:
        """Open an authenticated channel to the switchboard at
        ``remote_address``.

        ``expected_peer`` pins the acceptor's identity (connection fails
        if a different entity answers). ``role_proof`` is presented if the
        acceptor demands credentialed access.
        """
        with obs.span("net.handshake", local=self.address,
                      remote=remote_address):
            return self._connect_impl(remote_address, expected_peer,
                                      role_proof)

    def _connect_impl(self, remote_address: str,
                      expected_peer: Optional[Entity],
                      role_proof: Optional[Proof]) -> Channel:
        nonce_i = self._rng.getrandbits(128).to_bytes(16, "big")
        hello = {
            "entity": self.principal.entity.to_dict(),
            "nonce": nonce_i,
            "from": self.address,
        }
        challenge = self.network.send(
            self._net_address(self.address),
            self._net_address(remote_address),
            "sb:hello", hello,
        )
        if not isinstance(challenge, dict) or "error" in challenge:
            error = challenge.get("error") if isinstance(challenge, dict) \
                else "no response"
            raise HandshakeError(f"handshake rejected: {error}")
        peer = Entity.from_dict(challenge["entity"])
        if expected_peer is not None and peer != expected_peer:
            raise HandshakeError(
                f"acceptor is {peer.display_name}, expected "
                f"{expected_peer.display_name}"
            )
        nonce_r = bytes(challenge["nonce"])
        transcript = _transcript(nonce_i, nonce_r,
                                 self.principal.entity, peer,
                                 self.address, remote_address)
        if not peer.verify(transcript, bytes(challenge["signature"])):
            raise HandshakeError("acceptor signature invalid")
        finish = {
            "channel": challenge["channel"],
            "signature": self.principal.sign(transcript),
            "from": self.address,
        }
        if role_proof is not None:
            finish["role_proof"] = role_proof.to_dict()
        result = self.network.send(
            self._net_address(self.address),
            self._net_address(remote_address),
            "sb:finish", finish,
        )
        if not isinstance(result, dict) or result.get("ok") is not True:
            error = result.get("error") if isinstance(result, dict) \
                else "no response"
            raise HandshakeError(f"handshake rejected: {error}")
        session_key = _session_key(nonce_i, nonce_r,
                                   self.principal.entity, peer)
        channel = Channel(
            switchboard=self, channel_id=challenge["channel"],
            local=self.principal.entity, peer=peer,
            session_key=session_key,
        )
        channel._peer_address = remote_address  # type: ignore[attr-defined]
        self._channels[channel.channel_id] = channel
        self._by_peer[remote_address] = channel.channel_id
        self.stats.c_handshakes_completed.inc()
        return channel

    # -- session reuse -----------------------------------------------------

    def session_to(self, remote_address: str,
                   expected_peer: Optional[Entity] = None,
                   role_proof: Optional[Proof] = None) -> Channel:
        """An authenticated channel to ``remote_address``, reusing the
        open one from a previous exchange when available (no
        re-handshake)."""
        channel_id = self._by_peer.get(remote_address)
        if channel_id is not None:
            channel = self._channels.get(channel_id)
            if channel is not None and channel.open:
                if expected_peer is None or channel.peer == expected_peer:
                    self.stats.c_sessions_reused.inc()
                    return channel
            self._by_peer.pop(remote_address, None)
        return self.connect(remote_address, expected_peer=expected_peer,
                            role_proof=role_proof)

    # -- acceptor side -------------------------------------------------------

    def _handle(self, src: str, topic: str, payload: Any) -> Any:
        if topic == "sb:hello":
            return self._on_hello(payload)
        if topic == "sb:finish":
            return self._on_finish(payload)
        if topic == "sb:frame":
            return self._on_frame(payload)
        return {"error": f"unknown switchboard topic {topic!r}"}

    def _on_hello(self, payload: dict) -> dict:
        initiator = Entity.from_dict(payload["entity"])
        nonce_i = bytes(payload["nonce"])
        nonce_r = self._rng.getrandbits(128).to_bytes(16, "big")
        channel_id = f"{self.address}/{next(self._ids)}"
        transcript = _transcript(nonce_i, nonce_r, initiator,
                                 self.principal.entity,
                                 payload["from"], self.address)
        self._pending[channel_id] = {
            "initiator": initiator,
            "nonce_i": nonce_i,
            "nonce_r": nonce_r,
            "transcript": transcript,
            "from": payload["from"],
        }
        return {
            "entity": self.principal.entity.to_dict(),
            "nonce": nonce_r,
            "signature": self.principal.sign(transcript),
            "channel": channel_id,
        }

    def _on_finish(self, payload: dict) -> dict:
        pending = self._pending.pop(payload.get("channel"), None)
        if pending is None:
            self.stats.c_handshakes_rejected.inc()
            return {"ok": False, "error": "no pending handshake"}
        initiator: Entity = pending["initiator"]
        if not initiator.verify(pending["transcript"],
                                bytes(payload["signature"])):
            self.stats.c_handshakes_rejected.inc()
            return {"ok": False, "error": "initiator signature invalid"}
        if self.required_role_validator is not None:
            proof = None
            if payload.get("role_proof") is not None:
                proof = Proof.from_dict(payload["role_proof"])
                # Pre-warm the freshly decoded credential's signatures in
                # one batch; the validator's per-link checks then hit the
                # per-object flags. (Transcript verification above and
                # everything inside the validator already ride the
                # process-wide memo via PublicKey.verify.)
                prefetch_signatures(proof.all_delegations())
            try:
                self.required_role_validator(initiator, proof)
            except Exception as exc:  # noqa: BLE001 - policy boundary
                self.stats.c_handshakes_rejected.inc()
                return {"ok": False, "error": f"credential check: {exc}"}
        session_key = _session_key(pending["nonce_i"], pending["nonce_r"],
                                   initiator, self.principal.entity)
        channel = Channel(
            switchboard=self, channel_id=payload["channel"],
            local=self.principal.entity, peer=initiator,
            session_key=session_key,
        )
        channel._peer_address = pending["from"]  # type: ignore[attr-defined]
        self._channels[channel.channel_id] = channel
        self._by_peer[pending["from"]] = channel.channel_id
        self.stats.c_handshakes_completed.inc()
        return {"ok": True}

    # -- frames --------------------------------------------------------------

    def _send_frame(self, channel: Channel, frame: dict) -> None:
        peer_address = getattr(channel, "_peer_address")
        self.network.send(
            self._net_address(self.address),
            self._net_address(peer_address),
            "sb:frame", frame,
        )

    def _on_frame(self, frame: dict) -> Any:
        channel = self._channels.get(frame.get("channel"))
        if channel is None:
            return {"error": "unknown channel"}
        channel._receive(frame)
        return {"ok": True}

    def channel(self, channel_id: str) -> Optional[Channel]:
        return self._channels.get(channel_id)

    def close(self) -> None:
        self.network.unregister(self._net_address(self.address))


def _transcript(nonce_i: bytes, nonce_r: bytes, initiator: Entity,
                acceptor: Entity, from_addr: str, to_addr: str) -> bytes:
    return canonical_encode({
        "proto": "switchboard-v1",
        "nonce_i": nonce_i,
        "nonce_r": nonce_r,
        "initiator": initiator.id,
        "acceptor": acceptor.id,
        "from": from_addr,
        "to": to_addr,
    })


def _session_key(nonce_i: bytes, nonce_r: bytes, initiator: Entity,
                 acceptor: Entity) -> bytes:
    return hmac_sha256(nonce_i + nonce_r,
                       initiator.id.encode() + acceptor.id.encode())


def _frame_mac(session_key: bytes, seq: int, payload: Any) -> bytes:
    body = canonical_encode({"seq": seq, "data": payload})
    return hmac_sha256(session_key, body)
