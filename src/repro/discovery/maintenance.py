"""Periodic wallet maintenance on the discrete-event simulator.

Ties together the time-driven duties Section 4 distributes across the
infrastructure:

* **expiration sweeps** -- announce EXPIRED events when certificate
  lifetimes pass (Table 2's expiration dates);
* **cache lease renewal** -- reconfirm cached remote delegations with
  their home wallets before the discovery-tag TTL lapses ("a time-to-live
  field that indicates the duration a delegation is valid following
  validity confirmation from its home wallet", Section 4.2.1);
* **cache sweeps** -- evict (and invalidate proofs over) entries whose
  lease lapsed anyway, e.g. because the home became unreachable.

The confirm-before-lapse traffic is the steady-state cost of dRBAC's
liveness guarantee; the maintenance loop keeps it to one probe per
cached delegation per TTL window -- still far below OCSP's per-client
polling, which the E2 benchmark quantifies.
"""

from dataclasses import dataclass
from typing import Optional

from repro.discovery.resolver import WalletServer
from repro.net.rpc import RpcError
from repro.net.simnet import Simulation
from repro.net.transport import NetworkError


@dataclass
class MaintenanceStats:
    sweeps: int = 0
    expirations_announced: int = 0
    confirmations_attempted: int = 0
    confirmations_succeeded: int = 0
    evictions: int = 0


class WalletMaintenance:
    """A recurring maintenance task for one wallet server."""

    def __init__(self, server: WalletServer,
                 confirm_margin: float = 0.5) -> None:
        """``confirm_margin``: reconfirm an entry once less than this
        fraction of its TTL remains on the lease."""
        if not (0.0 < confirm_margin <= 1.0):
            raise ValueError("confirm margin must be in (0, 1]")
        self.server = server
        self.confirm_margin = confirm_margin
        self.stats = MaintenanceStats()

    def run_once(self) -> None:
        """One maintenance pass: sweep expirations, refresh leases,
        evict what could not be refreshed."""
        self.stats.sweeps += 1
        wallet = self.server.wallet
        self.stats.expirations_announced += len(wallet.expire_sweep())
        now = wallet.clock.now()
        cache = self.server.cache
        for delegation_id in cache.ids():
            entry = cache.entry(delegation_id)
            if entry is None or not entry.requires_monitoring:
                continue
            remaining = entry.valid_until - now
            if remaining > entry.ttl * self.confirm_margin:
                continue
            self.stats.confirmations_attempted += 1
            try:
                if self.server.remote_confirm(entry.home, delegation_id):
                    self.stats.confirmations_succeeded += 1
            except (RpcError, NetworkError):
                pass  # home unreachable; the lease will lapse
        self.stats.evictions += len(cache.sweep())

    def schedule(self, simulation: Simulation, interval: float,
                 until: Optional[float] = None) -> "WalletMaintenance":
        """Register the pass to run every ``interval`` simulated seconds."""
        simulation.every(interval, self.run_once, until=until)
        return self


def schedule_maintenance(simulation: Simulation, server: WalletServer,
                         interval: float,
                         until: Optional[float] = None,
                         confirm_margin: float = 0.5
                         ) -> WalletMaintenance:
    """Convenience wrapper: build and schedule in one call."""
    maintenance = WalletMaintenance(server, confirm_margin=confirm_margin)
    return maintenance.schedule(simulation, interval, until=until)
