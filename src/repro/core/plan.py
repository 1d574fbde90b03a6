"""Aggregation plan data structures (Section 2 of the paper).

A :class:`Plan` is a serial list of :class:`Phase`\\ s; each phase is a
set of concurrent :class:`Transfer`\\ s ``s -> t`` of one partition
``l``. These are pure-Python objects produced by the planners
(``repro.core.grasp``, ``repro.baselines``) and consumed by the Spark
executor (``repro.engine.executor``) and the network cost model
(``repro.netsim.truecost``).
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Transfer:
    """One data transfer: node ``src`` sends its partition ``part`` to ``dst``."""

    src: int
    dst: int
    part: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-transfer {self.src}->{self.dst}")
        if self.src < 0 or self.dst < 0 or self.part < 0:
            raise ValueError(f"negative identifier in {self!r}")


@dataclass
class Phase:
    """One aggregation phase: transfers that execute concurrently.

    ``shared_links=True`` marks a phase whose transfers may share network
    links (the repartition baselines). GRASP/LOOM phases schedule at most
    one cross-pair transfer per link, which the validator enforces.
    """

    transfers: list[Transfer] = field(default_factory=list)
    shared_links: bool = False

    def validate(self) -> None:
        """Check the paper's per-phase scheduling constraints.

        For non-shared phases: a node sends to at most one node and
        receives from at most one node (Section 3.5). For all phases: a
        node never sends and receives data of the *same* partition
        (Section 2.2), and no duplicate transfers exist.
        """
        if len(set(self.transfers)) != len(self.transfers):
            raise ValueError("duplicate transfer in phase")
        if not self.shared_links:
            senders = [t.src for t in self.transfers]
            receivers = [t.dst for t in self.transfers]
            if len(set(senders)) != len(senders):
                raise ValueError("a node sends to more than one node in a phase")
            if len(set(receivers)) != len(receivers):
                raise ValueError("a node receives from more than one node in a phase")
        sends = {(t.src, t.part) for t in self.transfers}
        recvs = {(t.dst, t.part) for t in self.transfers}
        both = sends & recvs
        if both:
            raise ValueError(f"node sends and receives same partition: {sorted(both)}")

    def __len__(self) -> int:
        return len(self.transfers)

    def __iter__(self):
        return iter(self.transfers)


@dataclass
class Plan:
    """A complete aggregation execution plan ``P = {P_1, ..., P_n}``.

    ``algorithm`` is a label for reporting ("grasp", "loom", "repart",
    "preagg_repart"). A plan holds no timing: it depends only on the
    planner's inputs, so two identical plans compare equal. The harness
    measures planning wall time (``ResultRow.planning_seconds``).
    """

    phases: list[Phase] = field(default_factory=list)
    algorithm: str = ""

    def validate(self) -> None:
        """Validate every phase plus cross-phase sender-inactivity.

        Once a node sends partition ``l`` it holds none of ``l`` and must
        not send ``l`` again in a later phase (Section 2.1/2.2) unless it
        received ``l`` in some intermediate phase.
        """
        holds_nothing: set[tuple[int, int]] = set()
        for phase in self.phases:
            phase.validate()
            for t in phase:
                if (t.src, t.part) in holds_nothing:
                    raise ValueError(
                        f"node {t.src} re-sends partition {t.part} after emptying it"
                    )
            for t in phase:
                holds_nothing.add((t.src, t.part))
                holds_nothing.discard((t.dst, t.part))

    @property
    def n_transfers(self) -> int:
        return sum(len(p) for p in self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self):
        return iter(self.phases)
