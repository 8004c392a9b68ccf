"""The multi-process cluster and its differential convergence battery.

The acceptance bar of the transports redesign: N **real OS processes**,
each hosting a full GCS stack on real localhost sockets, driven through
recorded partition schedules, must converge to exactly the same stable
views and primary claimant sets as the deterministic in-memory
reference — per stage, per algorithm, schedule after schedule.

Both sides host a replicated-store replica per process.  The battery
below covers the three stock schedules × three algorithms over UDP and
one UDP pair under injected packet loss; under ``REPRO_TIER2=1`` the
lossy pair runs over sixteen loss seeds.  In memory, the store-replica
reference is checked against bare endpoints on every algorithm.  Real
processes and real sockets make this the slowest file in the suite;
everything else about the proc layer (schedule validation, refusals,
outcome comparison) is tested cheaply alongside.
"""

import os

import pytest

from repro.core.registry import algorithm_names
from repro.errors import SimulationError, TopologyError
from repro.faults import LinkFaults
from repro.gcs.adapter import PrimaryComponentService
from repro.gcs.proc import (
    DifferentialResult,
    ProcCluster,
    RecordedSchedule,
    STOCK_SCHEDULES,
    StageOutcome,
    generated_schedule,
    run_differential,
    simulate_reference,
)
from repro.net.topology import Topology


def _topology(stage):
    return Topology(components=tuple(frozenset(c) for c in stage))


class TestScheduleValidation:
    def test_stock_schedules_are_well_formed(self):
        assert set(STOCK_SCHEDULES) == {"split_restore", "cascade", "flip_flop"}
        for schedule in STOCK_SCHEDULES.values():
            assert len(schedule.stages) >= 3
            for stage in schedule.stages:
                assert _topology(stage).components  # constructible, valid

    def test_non_partition_stage_refused(self):
        with pytest.raises(SimulationError, match="does not partition"):
            RecordedSchedule("bad", 4, (((0, 1),),))
        with pytest.raises(SimulationError, match="reuses"):
            RecordedSchedule("bad", 4, (((0, 1), (1, 2, 3)),))
        with pytest.raises(SimulationError, match="empty component"):
            RecordedSchedule("bad", 4, (((0, 1, 2, 3), ()),))

    def test_stages_normalize_to_canonical_order(self):
        schedule = RecordedSchedule("norm", 4, (((3, 2), (1, 0)),))
        assert schedule.stages == ((((0, 1), (2, 3))),)

    def test_generated_schedules_are_pure_hash(self):
        assert generated_schedule(3) == generated_schedule(3)
        assert generated_schedule(3) != generated_schedule(4)
        for seed in range(5):
            schedule = generated_schedule(seed)
            # Always book-ended by full connectivity.
            full = (tuple(range(schedule.n_processes)),)
            assert schedule.stages[0] == full
            assert schedule.stages[-1] == full


class TestRefusals:
    def test_schedule_size_mismatch_refused(self):
        schedule = STOCK_SCHEDULES["flip_flop"]  # wants 4 processes
        with pytest.raises(SimulationError, match="wants 4 processes"):
            with ProcCluster(3) as cluster:
                cluster.run_schedule(schedule)


class TestOutcomeComparison:
    def test_divergences_are_per_stage_and_readable(self):
        ref = StageOutcome.build({0: (0, 1), 1: (0, 1)}, [0, 1])
        obs = StageOutcome.build({0: (0, 1), 1: (1,)}, [1])
        result = DifferentialResult(
            schedule="s", algorithm="ykd",
            reference=(ref, ref), observed=(ref, obs),
        )
        assert not result.matches
        lines = result.divergences()
        assert any(line.startswith("stage 1: views differ") for line in lines)
        assert any("primaries differ" in line for line in lines)

    def test_matching_outcomes_have_no_divergences(self):
        ref = StageOutcome.build({0: (0,)}, [0])
        result = DifferentialResult(
            schedule="s", algorithm="ykd",
            reference=(ref,), observed=(ref,),
        )
        assert result.matches and result.divergences() == []


class TestSimulatedReference:
    def test_flip_flop_forces_a_quorum_handoff(self):
        # The cross-cutting re-split is the schedule's point: after
        # ({0,1},{2,3}) nobody holds a primary (an even split of 4 with
        # the tie-break deciding), and the re-cut ({0,2},{1,3}) mixes
        # the halves.  The reference pins how YKD resolves it so the
        # differential battery compares against a meaningful oracle.
        outcomes = simulate_reference(STOCK_SCHEDULES["flip_flop"], "ykd")
        assert outcomes[0].primaries == (0, 1, 2, 3)
        final = outcomes[-1]
        assert final.primaries == (0, 1, 2, 3)
        assert all(members == (0, 1, 2, 3) for _, members in final.views)


def _bare_reference(schedule, algorithm, max_ticks=500):
    """The schedule on a bare-endpoint service: the idle application
    of Fig. 2-2 on every process, no store and no sync traffic."""
    service = PrimaryComponentService(algorithm, schedule.n_processes)
    outcomes = []
    for stage in schedule.stages:
        service.set_topology(_topology(stage))
        service.run_until_stable(max_ticks=max_ticks)
        views = {
            pid: tuple(sorted(service.cluster.stacks[pid].view_members))
            for pid in range(schedule.n_processes)
        }
        primaries = [
            pid
            for pid in sorted(service.processes)
            if service.processes[pid].in_primary()
        ]
        outcomes.append(StageOutcome.build(views, primaries))
    return outcomes


@pytest.mark.parametrize("algorithm", algorithm_names())
@pytest.mark.parametrize(
    "schedule",
    [*STOCK_SCHEDULES.values(), *(generated_schedule(s) for s in range(10))],
    ids=lambda schedule: schedule.name,
)
def test_store_replicas_converge_like_bare_endpoints(schedule, algorithm):
    """Every proc node is a store replica, and so is the reference.

    The store adds a sync broadcast on every view change, which must
    move no view and no primary claim: the store-replica reference
    equals the bare endpoints' run stage for stage.
    """
    assert simulate_reference(schedule, algorithm) == _bare_reference(
        schedule, algorithm
    )


@pytest.mark.parametrize("algorithm", ["ykd", "dfls", "mr1p"])
@pytest.mark.parametrize(
    "schedule_name", ["split_restore", "cascade", "flip_flop"]
)
def test_differential_battery_udp(schedule_name, algorithm):
    """Real processes over UDP converge exactly like the simulation."""
    result = run_differential(
        STOCK_SCHEDULES[schedule_name], algorithm=algorithm
    )
    assert result.matches, "\n".join(result.divergences())


def test_differential_battery_udp_under_packet_loss():
    """10% injected loss: the ARQ recovers, the outcomes still agree."""
    result = run_differential(
        STOCK_SCHEDULES["split_restore"],
        algorithm="ykd",
        link=LinkFaults(loss_permille=100, seed=7),
    )
    assert result.matches, "\n".join(result.divergences())


@pytest.mark.skipif(
    os.environ.get("REPRO_TIER2") != "1",
    reason="the sixteen-seed lossy battery runs under REPRO_TIER2=1",
)
@pytest.mark.parametrize("seed", range(16))
def test_differential_battery_udp_under_packet_loss_seeds(seed):
    """10% loss on every seed: a lost frame waits for its resend
    instead of restarting agreement, and the outcomes still agree."""
    result = run_differential(
        STOCK_SCHEDULES["split_restore"],
        algorithm="ykd",
        link=LinkFaults(loss_permille=100, seed=seed),
    )
    assert result.matches, "\n".join(result.divergences())


# ----------------------------------------------------------------------
# Controller error paths (stubbed children; no sockets involved).
# ----------------------------------------------------------------------


class TestControllerErrorPaths:
    """Dead children must surface as SimulationError, never hangs."""

    def test_child_death_before_rendezvous_is_reported(self, monkeypatch):
        from repro.gcs.proc import controller as controller_module
        from tests._proc_stubs import silent_node_main

        monkeypatch.setattr(
            controller_module, "node_main", silent_node_main
        )
        with pytest.raises(
            SimulationError, match="died before reporting its port"
        ):
            ProcCluster(2, algorithm="ykd", start_timeout=10.0)

    @pytest.fixture
    def mute_cluster(self, monkeypatch):
        from repro.gcs.proc import controller as controller_module
        from tests._proc_stubs import mute_node_main

        monkeypatch.setattr(controller_module, "node_main", mute_node_main)
        cluster = ProcCluster(2, algorithm="ykd", start_timeout=10.0)
        yield cluster
        cluster.close()

    def test_rendezvous_with_stub_ports_completes(self, mute_cluster):
        assert mute_cluster.ports == {0: 40000, 1: 40001}

    def test_child_crash_mid_conversation_is_reported(self, mute_cluster):
        with pytest.raises(SimulationError, match="died"):
            mute_cluster.statuses()

    def test_await_stable_zero_timeout_raises_without_polling(
        self, mute_cluster
    ):
        # timeout=0.0 expires before the first poll, so even a cluster
        # whose children would crash on contact reports the timeout.
        with pytest.raises(
            SimulationError, match="did not stabilize within 0.0s"
        ):
            mute_cluster.await_stable(timeout=0.0)

    def test_a_bad_stage_is_refused_before_any_node_sees_it(
        self, mute_cluster
    ):
        # The controller builds the stage's topology before it sends
        # anything, so a stage that is not a partition never leaves it.
        with pytest.raises(SimulationError, match="does not partition"):
            mute_cluster.apply_stage(((0,),))
        with pytest.raises(TopologyError, match="multiple components"):
            mute_cluster.apply_stage(((0, 1), (1,)))

    def test_double_close_is_idempotent(self, mute_cluster):
        mute_cluster.close()
        mute_cluster.close()  # must be a no-op, not an OSError

    def test_operations_after_close_are_reported_not_hung(
        self, mute_cluster
    ):
        mute_cluster.close()
        with pytest.raises(SimulationError, match="died"):
            mute_cluster.statuses()
