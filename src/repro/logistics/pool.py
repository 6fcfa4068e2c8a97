"""Depot pools: load balancing across equivalent depots.

Section VII-A: "admission control and load balancing over a pool of
available depots could easily be used to provide scalability". A
:class:`DepotPool` tracks a set of interchangeable depots (e.g. a rack
at a POP) and assigns each new session one of them, by policy:

- ``round-robin`` — cycle through the pool;
- ``least-loaded`` — fewest active sessions first;
- ``weighted`` — probability proportional to configured capacity.

The pool also honours admission feedback: depots that refused their
last assignment are skipped for a cooldown period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lsl.depot import Depot


@dataclass
class PoolMember:
    """One depot in the pool."""

    depot: Depot
    weight: float = 1.0
    cooldown_until: float = -1.0

    @property
    def active_sessions(self) -> int:
        return self.depot.counters.active_sessions

    @property
    def address(self):
        return (self.depot.host_name, self.depot.port)


class DepotPool:
    """Assigns sessions to depots by policy."""

    POLICIES = ("round-robin", "least-loaded", "weighted")

    def __init__(
        self,
        depots: Sequence[Depot],
        policy: str = "least-loaded",
        weights: Optional[Sequence[float]] = None,
        rng: Optional[random.Random] = None,
        refusal_cooldown_s: float = 1.0,
    ) -> None:
        if not depots:
            raise ValueError("empty depot pool")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected {self.POLICIES}")
        if weights is not None and len(weights) != len(depots):
            raise ValueError("weights must match depots")
        self.members = [
            PoolMember(d, weight=(weights[i] if weights else 1.0))
            for i, d in enumerate(depots)
        ]
        self.policy = policy
        self.rng = rng if rng is not None else random.Random(0)
        self.refusal_cooldown_s = refusal_cooldown_s
        self._rr_index = 0
        self.assignments: Dict[str, int] = {m.depot.host_name: 0 for m in self.members}

    # -- selection -------------------------------------------------------

    def pick(self, now: float = 0.0) -> Depot:
        """Choose a depot for a new session."""
        candidates = [m for m in self.members if m.cooldown_until <= now]
        if not candidates:
            candidates = self.members  # everyone cooling down: best effort
        if self.policy == "round-robin":
            member = candidates[self._rr_index % len(candidates)]
            self._rr_index += 1
        elif self.policy == "least-loaded":
            member = min(candidates, key=lambda m: (m.active_sessions, m.depot.host_name))
        else:  # weighted
            total = sum(m.weight for m in candidates)
            x = self.rng.random() * total
            member = candidates[-1]
            for m in candidates:
                x -= m.weight
                if x <= 0:
                    member = m
                    break
        self.assignments[member.depot.host_name] += 1
        return member.depot

    def report_refusal(self, depot: Depot, now: float) -> None:
        """Mark a depot that refused admission; skip it briefly."""
        for m in self.members:
            if m.depot is depot:
                m.cooldown_until = now + self.refusal_cooldown_s
                return
        raise ValueError(f"{depot!r} is not in this pool")

    # -- introspection ----------------------------------------------------------

    def load_snapshot(self) -> List[tuple]:
        """(host, active sessions, total assigned) per member."""
        return [
            (m.depot.host_name, m.active_sessions, self.assignments[m.depot.host_name])
            for m in self.members
        ]

    def __len__(self) -> int:
        return len(self.members)
