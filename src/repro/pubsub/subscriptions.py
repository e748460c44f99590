"""The per-wallet subscription hub.

Implements the push model of Section 4.2.2: subscribers register interest
in individual delegations (or in the future availability of a proof) and
are called back when a matching event is published. "Delegation
subscriptions only require server and network resources when a credential
has been updated" -- the hub does no polling; silence costs nothing. The
E2 benchmark counts deliveries through this hub against OCSP/CRL baselines.
"""

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.pubsub.events import DelegationEvent, EventKind

EventCallback = Callable[[DelegationEvent], None]


class Subscription:
    """A handle to one registration; call :meth:`cancel` to unsubscribe."""

    __slots__ = ("_hub", "_key", "_token", "active")

    def __init__(self, hub: "SubscriptionHub", key, token: int) -> None:
        self._hub = hub
        self._key = key
        self._token = token
        self.active = True

    def cancel(self) -> None:
        if self.active:
            self.active = False
            self._hub._remove(self._key, self._token)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *_exc) -> None:
        self.cancel()


class SubscriptionHub:
    """Local pub/sub state for one wallet.

    Two channel families:

    * **delegation channels**, keyed by delegation id -- status pushes for
      revocation/expiry/update;
    * **awaiting-proof channels**, keyed by an opaque relationship key --
      fired when a wallet that previously answered "no proof" acquires one
      ("the entity object can register a callback that will be activated
      when such a proof is available", Section 4.2.2).

    Delivery is synchronous and exceptions in one callback do not prevent
    delivery to the rest (errors are collected and re-raised afterwards).
    """

    def __init__(self) -> None:
        self._channels: Dict[object, Dict[int, EventCallback]] = {}
        self._tokens = itertools.count()
        # Registry-backed tallies (``drbac metrics`` exports them).
        self.stats = obs.CounterSet(
            "drbac_hub", ("events_published", "callbacks_delivered"))

    def __getattr__(self, name: str):
        # Reached only for what is not an attribute: the tallies stay
        # readable on the hub itself (``hub.events_published``; E2
        # counts on them).
        stats = self.__dict__.get("stats")
        if stats is None:
            raise AttributeError(name)
        return getattr(stats, name)

    # -- registration ---------------------------------------------------

    def subscribe(self, delegation_id: str,
                  callback: EventCallback) -> Subscription:
        """Register for status events on one delegation."""
        return self._add(("delegation", delegation_id), callback)

    def subscribe_proof_available(self, relationship_key,
                                  callback: EventCallback) -> Subscription:
        """Register for the future availability of a proof."""
        return self._add(("awaiting", relationship_key), callback)

    def subscribe_all(self, callback: EventCallback) -> Subscription:
        """Register for *every* delegation status event on this hub.

        The firehose channel backs local infrastructure that must observe
        the whole event stream -- the wallet's proof cache invalidation
        being the canonical consumer. It sees exactly the events that flow
        through :meth:`publish`; awaiting-proof announcements are not
        delegation status changes and stay off this channel.
        """
        return self._add(("wildcard",), callback)

    def _add(self, key, callback: EventCallback) -> Subscription:
        token = next(self._tokens)
        self._channels.setdefault(key, {})[token] = callback
        return Subscription(self, key, token)

    def _remove(self, key, token: int) -> None:
        channel = self._channels.get(key)
        if channel is not None:
            channel.pop(token, None)
            if not channel:
                self._channels.pop(key, None)

    # -- publication -------------------------------------------------------

    def publish(self, event: DelegationEvent) -> int:
        """Push a delegation status event; returns deliveries made.

        The event reaches every wildcard subscriber plus the delegation's
        own channel; it counts as a single published event. Wildcard
        subscribers run *first*: they are infrastructure (cache
        invalidation), and per-delegation subscribers like proof monitors
        may re-query during delivery -- they must observe post-event
        state, never a stale cached answer.
        """
        self.stats.c_events_published.inc()
        errors: List[Exception] = []
        delivered = self._deliver_channel(("wildcard",), event, errors)
        delivered += self._deliver_channel(
            ("delegation", event.delegation_id), event, errors)
        self.stats.c_callbacks_delivered.inc(delivered)
        if errors:
            raise errors[0]
        return delivered

    def publish_proof_available(self, relationship_key,
                                event: DelegationEvent) -> int:
        """Announce that a previously missing proof now exists."""
        self.stats.c_events_published.inc()
        errors: List[Exception] = []
        delivered = self._deliver_channel(
            ("awaiting", relationship_key), event, errors)
        self.stats.c_callbacks_delivered.inc(delivered)
        if errors:
            raise errors[0]
        return delivered

    def _deliver_channel(self, key, event: DelegationEvent,
                         errors: List[Exception]) -> int:
        channel = self._channels.get(key)
        if not channel:
            return 0
        delivered = 0
        for callback in list(channel.values()):
            try:
                callback(event)
            except Exception as exc:  # noqa: BLE001 - isolate subscribers
                errors.append(exc)
            else:
                delivered += 1
        return delivered

    # -- introspection -------------------------------------------------------

    def subscriber_count(self, delegation_id: str) -> int:
        return len(self._channels.get(("delegation", delegation_id), ()))

    def awaiting_keys(self) -> List[object]:
        """Relationship keys with at least one awaiting-proof subscriber."""
        return [key[1] for key in self._channels if key[0] == "awaiting"]

    def total_subscriptions(self) -> int:
        return sum(len(channel) for channel in self._channels.values())
