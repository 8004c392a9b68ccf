"""Compile a case's fault schedules into batched change steps.

The fault environment of a fresh-start case — gap draws, change
content, mid-round cut draws, view installation order and sequence
numbers — never depends on the algorithm under test.  This module
replays exactly the driver's environment decisions *ahead of time*,
using the very same RNG objects and change generators the scalar
engine uses (``derive_rng`` streams, the configured
:class:`~repro.net.schedule.ChangeSchedule`), and emits each run as a
flat list of :class:`CompiledChange` steps over packed bitmasks.
Bit-exactness of the RNG consumption order is the load-bearing
property: the scalar driver draws gaps up front, then per change round
draws the change content and the late-set, and the compiler performs
the identical calls in the identical order.

The generators are fed a :class:`_MirrorTopology` — a lean stand-in
for :class:`~repro.net.topology.Topology` that maintains the identical
component frozensets in the identical canonical order but skips the
full topology machinery (validation, dataclass construction and a
fresh canonical sort) the compiler's hot loop would otherwise pay per
change.
The mirror is sound because the batched surface excludes crashes:
partition/merge on a crash-free topology touch exactly the query
surface the mirror implements (``splittable_components``,
``mergeable_pairs_exist``, ``live_components``), and
``affected_processes``/``DriverLoop._views_needed`` never consult the
topology for partition/merge changes.  The differential battery holds
the mirror to the scalar engine's draws, change for change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.changes import (
    MergeChange,
    PartitionChange,
    SkewedPartitionGenerator,
    UniformChangeGenerator,
)
from repro.sim.batch.bitops import mask_of
from repro.sim.rng import derive_rng


@dataclass(frozen=True)
class CompiledChange:
    """One connectivity change of one run, as the batch kernel sees it.

    ``round_index`` is the absolute round the change lands in (the
    driver's mid-round injection point); ``late_mask`` are the affected
    processes that lose the round's in-flight messages; ``installs``
    are the (member mask, view seq) pairs installed at the end of the
    round, in the driver's deterministic installation order.
    """

    round_index: int
    affected_mask: int
    late_mask: int
    installs: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class CompiledRun:
    """One run's whole fault environment, flattened.

    ``t_last`` is the round of the final change round (``sum(gap+1)``
    over the schedule — counted even when the generator proposed
    nothing); ``final_components`` maps each component standing at the
    end to the view seq its members last installed (seq 0 for processes
    that never installed any view).
    """

    run_index: int
    changes: Tuple[CompiledChange, ...]
    t_last: int
    final_components: Tuple[Tuple[int, int], ...]


class _MirrorTopology:
    """Crash-free topology mirror serving the change generators.

    ``components`` is kept in :class:`Topology`'s canonical order, with
    the matching packed masks in the parallel ``masks`` list, so every
    ``rng.choice`` / ``rng.sample`` over components sees the identical
    list the scalar engine would.  Components are disjoint, so the
    canonical order (lexicographic on sorted member tuples) is decided
    by each component's smallest member — equivalently by the numeric
    value of its mask's lowest set bit, which is what :meth:`replace`
    keeps sorted without ever materializing the member tuples.
    """

    __slots__ = ("components", "masks")

    def __init__(self, n_processes: int) -> None:
        self.components: List[frozenset] = [frozenset(range(n_processes))]
        self.masks: List[int] = [(1 << n_processes) - 1]

    def splittable_components(self) -> List[frozenset]:
        return [c for c in self.components if len(c) >= 2]

    def mergeable_pairs_exist(self) -> bool:
        return len(self.components) >= 2

    def live_components(self) -> List[frozenset]:
        return list(self.components)

    def mask_for(self, component: frozenset) -> int:
        return self.masks[self.components.index(component)]

    def replace(
        self,
        removed: Tuple[frozenset, ...],
        added: Tuple[Tuple[frozenset, int], ...],
    ) -> None:
        components, masks = self.components, self.masks
        for item in removed:
            index = components.index(item)
            del components[index]
            del masks[index]
        for item, mask in added:
            low = mask & -mask
            position = 0
            while (
                position < len(masks)
                and masks[position] & -masks[position] < low
            ):
                position += 1
            components.insert(position, item)
            masks.insert(position, mask)


def compile_run(
    run_index: int,
    gaps: List[int],
    fault_rng,
    change_generator,
    n_processes: int,
    cut_probability: float,
) -> CompiledRun:
    """Replay one run's environment decisions into compiled steps.

    ``fault_rng`` must already have consumed exactly what the scalar
    engine would have before its first change draw (i.e. the gap draws
    for this run); the caller owns that ordering.
    """
    topology = _MirrorTopology(n_processes)
    view_seq = 0
    round_index = 0
    changes: List[CompiledChange] = []
    # Component mask -> seq of the view its members currently hold.
    comp_seq: Dict[int, int] = {mask_of(range(n_processes)): 0}
    draw = fault_rng.random
    for gap in gaps:
        round_index += gap + 1
        change = change_generator.propose(topology, fault_rng)
        if change is None:
            # No feasible change (cannot happen for the stock
            # partition/merge generators at n >= 2, but the scalar
            # engine treats it as a quiet round and so do we).
            continue
        # The affected set and the installed views, in mask arithmetic.
        # ``DriverLoop._views_needed`` orders a partition's two halves
        # canonically; they are disjoint, so lowest-bit order is that
        # order.  The late draws replay the scalar engine exactly: one
        # ``random()`` per affected process, ascending pid.
        if isinstance(change, PartitionChange):
            component = frozenset(change.component)
            affected_mask = topology.mask_for(component)
            moved_mask = mask_of(change.moved)
            remaining_mask = affected_mask & ~moved_mask
            if remaining_mask & -remaining_mask < moved_mask & -moved_mask:
                halves = (remaining_mask, moved_mask)
            else:
                halves = (moved_mask, remaining_mask)
            installs = tuple(
                (half, view_seq + offset + 1)
                for offset, half in enumerate(halves)
            )
            view_seq += 2
            topology.replace(
                (component,),
                (
                    (component - change.moved, remaining_mask),
                    (frozenset(change.moved), moved_mask),
                ),
            )
        else:
            assert isinstance(change, MergeChange)
            first = frozenset(change.first)
            second = frozenset(change.second)
            affected_mask = topology.mask_for(first) | topology.mask_for(
                second
            )
            view_seq += 1
            installs = ((affected_mask, view_seq),)
            topology.replace(
                (first, second), ((first | second, affected_mask),)
            )
        late_mask = 0
        remaining = affected_mask
        while remaining:
            low = remaining & -remaining
            if draw() < cut_probability:
                late_mask |= low
            remaining ^= low
        for mask, seq in installs:
            comp_seq[mask] = seq
        current = set(topology.masks)
        comp_seq = {m: s for m, s in comp_seq.items() if m in current}
        changes.append(
            CompiledChange(
                round_index=round_index,
                affected_mask=affected_mask,
                late_mask=late_mask,
                installs=installs,
            )
        )
    return CompiledRun(
        run_index=run_index,
        changes=tuple(changes),
        t_last=round_index,
        final_components=tuple(sorted(comp_seq.items())),
    )


#: Change generator types the compiler replays bit-exactly.  The checks
#: are exact-type on purpose: a subclass (e.g. the crash/recovery fault
#: generator) may consume RNG draws or propose change kinds the
#: compiler does not model.
SUPPORTED_GENERATORS = (UniformChangeGenerator, SkewedPartitionGenerator)

#: The fault environment compiled last, as ``(key, runs)``.  A case's
#: environment does not mention the algorithm, so the seven cases of a
#: comparison ask for the same one back to back; one slot serves them
#: and holds one environment, not a figure's worth.
_last_environment: Tuple[Optional[tuple], Tuple[CompiledRun, ...]] = (
    None,
    (),
)


def _environment_key(config) -> Optional[tuple]:
    """Everything :func:`compile_case` reads, or None where the
    environment is not a pure function of the config: a caller-owned
    schedule may carry state from case to case
    (:class:`~repro.net.schedule.BurstSchedule` does), and only the
    stock generators are known to be determined by their attributes.
    Labels are keyed as the strings :func:`derive_seed` hashes, which
    tell ``2`` from ``2.0`` where ``==`` does not.
    """
    if config.schedule is not None:
        return None
    generator = config.change_generator
    if generator is None:
        generator_key: tuple = (UniformChangeGenerator, ())
    elif type(generator) in SUPPORTED_GENERATORS:
        generator_key = (
            type(generator),
            tuple(sorted(vars(generator).items())),
        )
    else:
        return None
    labels = (config.master_seed, *config.case_label())
    return (
        tuple(str(label) for label in labels),
        config.n_processes,
        config.n_changes,
        config.runs,
        config.cut_probability,
        generator_key,
    )


def compile_case(config) -> List[CompiledRun]:
    """Compile every run of a fresh-start case, in run order.

    One schedule instance serves all runs (exactly as ``run_case``
    builds it once — :class:`~repro.net.schedule.BurstSchedule` is
    stateful across runs, so sharing the instance is part of the
    equivalence contract).

    Consecutive calls for one fault environment (the algorithms of a
    comparison) get the same immutable :class:`CompiledRun` objects in
    a fresh list; see :func:`_environment_key` for when that applies.
    """
    global _last_environment
    key = _environment_key(config)
    last_key, last_runs = _last_environment
    if key is not None and key == last_key:
        return list(last_runs)
    schedule = config.make_schedule()
    generator = config.change_generator
    if generator is None:
        generator = UniformChangeGenerator()
    compiled: List[CompiledRun] = []
    for run_index in range(config.runs):
        fault_rng = derive_rng(
            config.master_seed, *config.case_label(), run_index
        )
        gaps = schedule.draw_gaps(fault_rng, config.n_changes)
        compiled.append(
            compile_run(
                run_index,
                gaps,
                fault_rng,
                generator,
                config.n_processes,
                config.cut_probability,
            )
        )
    if key is not None:
        _last_environment = (key, tuple(compiled))
    return compiled
