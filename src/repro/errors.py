"""Exception hierarchy for the library.

Every error the library raises deliberately derives from
:class:`ReproError`, so applications can catch the whole family while
letting genuine bugs (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ProtocolError(ReproError):
    """An algorithm received input that violates its interface contract.

    Examples: a view containing processes outside the initial view, a
    message from a process not in the current view, or a malformed
    piggybacked payload.
    """


class TopologyError(ReproError):
    """An invalid operation on the network component topology.

    Examples: partitioning a singleton component, merging a component
    with itself, or referencing a process the topology does not know.
    """


class ScheduleError(ReproError):
    """A fault schedule was configured with impossible parameters."""


class InvariantViolation(ReproError):
    """A safety invariant of the primary-component abstraction broke.

    The thesis reports over 1.3 million injected connectivity changes
    per algorithm with no inconsistency; the simulator checks the same
    obligations continuously and raises this error the moment one
    fails, carrying a human-readable description of the evidence.

    ``kind`` is a stable machine-readable label for *which* invariant
    broke (e.g. ``"dual_primary"``, ``"chain_order_conflict"``); the
    adversarial fault oracle (:mod:`repro.faults.oracle`) classifies a
    violation as expected or unexpected by this label, never by parsing
    the message.
    """

    def __init__(self, message: str, *, kind: str = "safety") -> None:
        super().__init__(message)
        self.kind = kind


class SimulationError(ReproError):
    """The driver loop reached a state it cannot make progress from.

    The most important case is quiescence failure: the network is
    stable, yet the algorithm instances keep exchanging messages beyond
    the configured round bound, which would indicate a livelock in an
    algorithm implementation.
    """


class ExperimentError(ReproError):
    """An experiment spec was requested that does not exist or cannot run."""


class UnsupportedBatchConfig(ReproError):
    """A case asked for the batched kernel outside its supported surface.

    The batched campaign kernel (:mod:`repro.sim.batch`) reproduces the
    scalar driver's per-run outcomes *exactly* — but only for the
    configurations its equivalence proof covers: fresh-start cases of
    two or more processes under the stock change generators, with no
    observers, fault models, trace capture or statistics collectors
    attached.  Anything outside that surface raises this error instead
    of silently diverging; ``run_case(kernel="batched")`` catches it
    and falls back to the scalar engine.
    """


class UnsupportedTransportConfig(ReproError):
    """A transport was requested in a combination that cannot work.

    Mirrors :class:`UnsupportedBatchConfig`: the pluggable GCS
    transports (:mod:`repro.gcs.transport`) refuse loudly instead of
    silently degrading.  Examples: the batched campaign kernel combined
    with a network transport (the kernel has no packet boundary to
    attach one to) or an unknown transport name.
    """


class WireFormatError(ReproError):
    """A datagram failed to decode from the canonical wire format.

    Raised for truncated frames, oversized length prefixes, garbage
    bytes, JSON that does not follow the tagged encoding, or payload
    classes outside the decode registry — the transport-level analogue
    of the driver's Byzantine "tamper detected, message rejected"
    handling: the frame is refused at the boundary, never half-applied.
    """
