"""The differential battery: batched kernel == scalar engine, exactly.

The scalar :class:`~repro.sim.driver.DriverLoop` is the authoritative
oracle.  For every algorithm the batched kernel implements, pinned seed
grids and hypothesis-drawn random configurations run through both
backends, and every per-run observable must agree exactly:

* the per-run availability outcome (and hence the availability %);
* total rounds and injected changes (quiescence accounting included);
* the final-state fingerprint — which components stand at the end of
  each run, the view sequence number their members last installed, and
  the exact set of processes that finished inside a primary.

Statistical agreement would hide compensating bugs; exact agreement is
the contract that lets campaigns and figure regeneration route through
the fast kernel without a second thought.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationError
from repro.net.changes import SkewedPartitionGenerator
from repro.net.schedule import BurstSchedule
from repro.obs import Subscriber
from repro.sim.batch import BatchCaseResult, compile_case, run_case_batched
from repro.sim.batch import compile as batch_compile
from repro.sim.batch import kernel as batch_kernel
from repro.sim.batch.bitops import mask_of
from repro.sim.campaign import CaseConfig, compare_algorithms, run_case

TIER2 = os.environ.get("REPRO_TIER2") == "1"

#: Every algorithm the kernel implements (the five studied by the
#: thesis plus the two YKD ablation variants).
BATCHED_ALGORITHMS = (
    "simple_majority",
    "ykd",
    "ykd_unopt",
    "ykd_aggressive",
    "dfls",
    "one_pending",
    "mr1p",
)


class FinalStateFingerprint(Subscriber):
    """Capture the scalar engine's end-of-run state, in kernel terms."""

    def __init__(self) -> None:
        self.components = []
        self.primaries = []

    def on_run_end(self, driver) -> None:
        components = []
        for component in driver.topology.components:
            seqs = {
                driver.algorithms[pid].current_view.seq
                if driver.algorithms[pid].current_view is not None
                else 0
                for pid in component
            }
            assert len(seqs) == 1, "component members disagree on the view"
            components.append((mask_of(component), seqs.pop()))
        self.components.append(tuple(sorted(components)))
        self.primaries.append(
            mask_of(
                pid
                for pid in range(driver.n_processes)
                if driver.algorithms[pid].in_primary()
            )
        )


def assert_equivalent(config: CaseConfig) -> BatchCaseResult:
    """Run ``config`` through both backends and compare everything."""
    fingerprint = FinalStateFingerprint()
    scalar = run_case(config, observers=[fingerprint])
    batched = run_case_batched(config)
    label = (
        f"{config.algorithm} n={config.n_processes} "
        f"seed={config.master_seed}"
    )
    assert batched.outcomes == scalar.outcomes, label
    assert batched.availability_percent == scalar.availability_percent, label
    assert batched.rounds_total == scalar.rounds_total, label
    assert batched.changes_total == scalar.changes_total, label
    assert batched.final_components == fingerprint.components, label
    assert batched.final_primary_masks == fingerprint.primaries, label
    return batched


# ----------------------------------------------------------------------
# Pinned seed grids, one per algorithm.
# ----------------------------------------------------------------------


GRID = [
    # (n_processes, n_changes, rate, cut_probability, master_seed)
    (2, 3, 1.0, 0.5, 1),
    (3, 6, 2.0, 0.9, 2),
    (5, 8, 0.5, 0.1, 3),
    (16, 6, 4.0, 0.5, 4),
    (9, 10, 1.5, 1.0, 5),
    (4, 5, 3.0, 0.0, 6),
]


@pytest.mark.parametrize("algorithm", BATCHED_ALGORITHMS)
@pytest.mark.parametrize("n,changes,rate,cut,seed", GRID)
def test_pinned_grid_equivalence(algorithm, n, changes, rate, cut, seed) -> None:
    assert_equivalent(
        CaseConfig(
            algorithm=algorithm,
            n_processes=n,
            n_changes=changes,
            mean_rounds_between_changes=rate,
            runs=25,
            master_seed=seed,
            cut_probability=cut,
        )
    )


@pytest.mark.parametrize("algorithm", BATCHED_ALGORITHMS)
def test_back_to_back_changes_equivalence(algorithm) -> None:
    """Rate 0: a change lands every round, every episode is interrupted."""
    assert_equivalent(
        CaseConfig(
            algorithm=algorithm,
            n_processes=6,
            n_changes=10,
            mean_rounds_between_changes=0.0,
            runs=25,
            master_seed=11,
        )
    )


def test_thesis_scale_universe() -> None:
    """n=64 — the full thesis scale — and n=65, one process past the
    64-bit boundary: masks are ints, so nothing caps the universe."""
    for n in (64, 65):
        for algorithm in BATCHED_ALGORITHMS:
            assert_equivalent(
                CaseConfig(
                    algorithm=algorithm,
                    n_processes=n,
                    n_changes=5,
                    mean_rounds_between_changes=4.0,
                    runs=3,
                    master_seed=13,
                )
            )


#: The algorithms whose episodes the kernel plays once per class of
#: members holding the same book instead of once per member.
CLASS_STEPPED = (
    "ykd",
    "ykd_unopt",
    "ykd_aggressive",
    "dfls",
    "one_pending",
    "mr1p",
)
FAMILY = CLASS_STEPPED[:-1]

#: Member classes split where the protocol can tell two members apart:
#: at a cut round's late mask (everyone late, no one late, a coin
#: each), at a session some members are outside of (MR1p's shares, the
#: family's ACCEPT), and where a run's changes follow one another so
#: closely that every episode is cut.
#: Thesis-scale views are where classes are large enough for a wrong
#: split to hide.
SCALE_GRID = [
    (n, cut, rate)
    for n in (33, 48, 64)
    for cut in (0.0, 0.5, 1.0)
    for rate in (0.0, 0.5, 2.0)
]


def assert_member_classes_at_scale(algorithm, n, cut, rate, runs=5) -> None:
    assert_equivalent(
        CaseConfig(
            algorithm=algorithm,
            n_processes=n,
            n_changes=12,
            mean_rounds_between_changes=rate,
            runs=runs,
            master_seed=n,
            cut_probability=cut,
        )
    )


@pytest.mark.parametrize("n,cut,rate", SCALE_GRID)
def test_mr1p_member_classes_at_scale(n, cut, rate) -> None:
    assert_member_classes_at_scale("mr1p", n, cut, rate)


#: Tier 1 gives each grid row one family algorithm, in rotation, and
#: the first three of its five runs (the scalar side of a family case
#: is the slow one); tier 2 runs all five on every row, in full.
FAMILY_SCALE_GRID = [
    (algorithm, n, cut, rate)
    for row, (n, cut, rate) in enumerate(SCALE_GRID)
    for algorithm in (FAMILY if TIER2 else (FAMILY[row % len(FAMILY)],))
]


@pytest.mark.parametrize("algorithm,n,cut,rate", FAMILY_SCALE_GRID)
def test_family_member_classes_at_scale(algorithm, n, cut, rate) -> None:
    assert_member_classes_at_scale(
        algorithm, n, cut, rate, runs=5 if TIER2 else 3
    )


def test_skewed_generator_equivalence() -> None:
    assert_equivalent(
        CaseConfig(
            algorithm="dfls",
            n_processes=8,
            n_changes=6,
            mean_rounds_between_changes=2.0,
            runs=25,
            master_seed=5,
            change_generator=SkewedPartitionGenerator(),
        )
    )


def test_burst_schedule_equivalence() -> None:
    # BurstSchedule is stateful across runs; sharing one schedule
    # instance across the whole case is part of the contract.
    assert_equivalent(
        CaseConfig(
            algorithm="one_pending",
            n_processes=8,
            n_changes=6,
            mean_rounds_between_changes=2.0,
            runs=25,
            master_seed=5,
            schedule=BurstSchedule(burst_size=3, lull=9),
        )
    )


def test_shared_burst_schedule_is_never_served_from_the_last_compile() -> None:
    """A caller-owned schedule carries its position from case to case
    (25 draws leave this one mid-burst), so two equal configs are two
    different fault environments and each must be compiled."""

    def two_cases(kernel):
        config = CaseConfig(
            algorithm="ykd",
            n_processes=8,
            n_changes=5,
            mean_rounds_between_changes=2.0,
            runs=5,
            master_seed=5,
            schedule=BurstSchedule(burst_size=3, lull=9),
        )
        return [run_case(config, kernel=kernel) for _ in range(2)]

    scalar = two_cases("scalar")
    batched = two_cases("batched")
    assert scalar[0].rounds_total != scalar[1].rounds_total
    for fast, reference in zip(batched, scalar):
        assert isinstance(fast, BatchCaseResult)
        assert fast.outcomes == reference.outcomes
        assert fast.rounds_total == reference.rounds_total
        assert fast.changes_total == reference.changes_total


def test_zero_change_runs() -> None:
    """No changes: every process stays in the initial primary."""
    result = assert_equivalent(
        CaseConfig(
            algorithm="ykd",
            n_processes=5,
            n_changes=0,
            mean_rounds_between_changes=2.0,
            runs=5,
            master_seed=5,
        )
    )
    assert result.availability_percent == 100.0


@pytest.mark.parametrize("max_quiescence", [0, 1, 2])
def test_quiescence_failure_parity(max_quiescence) -> None:
    """Both backends raise the same SimulationError at tight bounds."""
    config = CaseConfig(
        algorithm="dfls",
        n_processes=6,
        n_changes=5,
        mean_rounds_between_changes=1.0,
        runs=20,
        master_seed=3,
        max_quiescence_rounds=max_quiescence,
    )
    with pytest.raises(SimulationError) as scalar_error:
        run_case(config)
    with pytest.raises(SimulationError) as batched_error:
        run_case_batched(config)
    assert str(batched_error.value) == str(scalar_error.value)


def test_compare_algorithms_batched_matches_scalar() -> None:
    base = CaseConfig(
        algorithm="ykd",
        n_processes=8,
        n_changes=5,
        mean_rounds_between_changes=2.0,
        runs=25,
        master_seed=9,
    )
    scalar = compare_algorithms(base, BATCHED_ALGORITHMS)
    batched = compare_algorithms(base, BATCHED_ALGORITHMS, kernel="batched")
    for algorithm in BATCHED_ALGORITHMS:
        assert isinstance(batched[algorithm], BatchCaseResult)
        assert batched[algorithm].outcomes == scalar[algorithm].outcomes


# ----------------------------------------------------------------------
# Hypothesis: random CaseConfigs, batched == scalar.
# ----------------------------------------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    algorithm=st.sampled_from(BATCHED_ALGORITHMS),
    n_processes=st.integers(min_value=2, max_value=12),
    n_changes=st.integers(min_value=0, max_value=8),
    rate=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    cut=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
    runs=st.integers(min_value=1, max_value=12),
)
def test_random_configs_equivalent(
    algorithm, n_processes, n_changes, rate, cut, seed, runs
) -> None:
    assert_equivalent(
        CaseConfig(
            algorithm=algorithm,
            n_processes=n_processes,
            n_changes=n_changes,
            mean_rounds_between_changes=rate,
            runs=runs,
            master_seed=seed,
            cut_probability=cut,
        )
    )


@settings(
    max_examples=200 if TIER2 else 8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    algorithm=st.sampled_from(CLASS_STEPPED),
    n_processes=st.integers(min_value=2, max_value=64),
    n_changes=st.integers(min_value=0, max_value=12),
    rate=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    cut=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
    runs=st.integers(min_value=1, max_value=6),
)
def test_random_class_stepped_configs_equivalent_up_to_thesis_scale(
    algorithm, n_processes, n_changes, rate, cut, seed, runs
) -> None:
    assert_equivalent(
        CaseConfig(
            algorithm=algorithm,
            n_processes=n_processes,
            n_changes=n_changes,
            mean_rounds_between_changes=rate,
            runs=runs,
            master_seed=seed,
            cut_probability=cut,
        )
    )


# ----------------------------------------------------------------------
# Work counts: what the kernel does once, it must keep doing once.
# ----------------------------------------------------------------------


def test_mr1p_protocol_work_is_per_member_class(monkeypatch) -> None:
    """Handler work and class forks of one pinned thesis-scale case.

    Counts, not timings.  Delivering every bundle to every member made
    1.6 million deliveries for a case of this shape; per class of
    indistinguishable members it took 54,146 handler calls and 4,907
    forks, most of them one per late sender.  With answer rounds heard
    once per class from sender masks and late members forked per cell
    it takes 6,764 handler calls plus 1,059 answer-round class visits,
    and 678 forks.
    """
    handled = forks = 0
    deliver = batch_kernel._MR1pEngine._deliver
    hear = batch_kernel._MR1pEngine._hear_answers
    fork = batch_kernel._Cohort.fork

    def counting(self, members, events, start, view, classes):
        nonlocal handled
        handled += len(events) - start
        return deliver(self, members, events, start, view, classes)

    def hearing(self, members, answers, view):
        nonlocal handled
        handled += 1
        return hear(self, members, answers, view)

    def forking(self, mask):
        nonlocal forks
        forks += 1
        return fork(self, mask)

    monkeypatch.setattr(batch_kernel._MR1pEngine, "_deliver", counting)
    monkeypatch.setattr(batch_kernel._MR1pEngine, "_hear_answers", hearing)
    monkeypatch.setattr(batch_kernel._Cohort, "fork", forking)
    result = run_case_batched(
        CaseConfig(
            algorithm="mr1p",
            n_processes=64,
            n_changes=12,
            mean_rounds_between_changes=2.0,
            runs=40,
            master_seed=1,
        )
    )
    assert result.changes_total == 40 * 12
    assert 0 < handled < 12_000
    assert 0 < forks < 1_500


#: Per family algorithm: stage-1 class visits on the pinned case, as
#: (measured, bound).  The 776 episodes of the case visit 21,650
#: members; grouped by equal books they are 2,780 / 2,220 / 1,567
#: groups, and the late members of a cut exchange are not visited.
FAMILY_CLASS_VISITS = {
    "ykd": (1830, 3000),
    "dfls": (2172, 3000),
    "one_pending": (1550, 3000),
}


@pytest.mark.parametrize("algorithm", sorted(FAMILY_CLASS_VISITS))
def test_family_protocol_work_is_per_member_class(monkeypatch, algorithm) -> None:
    """Exchange effects computed on the same pinned thesis-scale case.

    A count, not a timing: once per class of members holding one book.
    Once per member it is 21,650 — seven times the bound.
    """
    visits = 0
    members_seen = 0
    exchange = batch_kernel._YkdFamilyEngine._exchange

    def counting(self, members, *rest):
        nonlocal visits, members_seen
        visits += 1
        members_seen += members.mask.bit_count()
        return exchange(self, members, *rest)

    monkeypatch.setattr(batch_kernel._YkdFamilyEngine, "_exchange", counting)
    result = run_case_batched(
        CaseConfig(
            algorithm=algorithm,
            n_processes=64,
            n_changes=12,
            mean_rounds_between_changes=2.0,
            runs=40,
            master_seed=1,
        )
    )
    assert result.changes_total == 40 * 12
    measured, bound = FAMILY_CLASS_VISITS[algorithm]
    assert 0 < visits < bound, f"{visits} visits (was {measured})"
    assert members_seen > 5 * visits  # the classes are worth having


@pytest.mark.parametrize("algorithm", CLASS_STEPPED)
def test_a_class_that_owns_its_book_shares_it_with_no_other_class(
    monkeypatch, algorithm
) -> None:
    """The member classes' one copy rule, checked after every ``own``
    and ``fork`` of the pinned thesis-scale case: a class that owns its
    book — and so may write it — shares that object with no other class
    of the episode and with no book the episode was handed."""
    Cohort = batch_kernel._Cohort
    live = []  # every class of the episode in play
    stored = set()  # ids of the books the episode was handed
    checks = owned_forks = 0

    def check() -> None:
        nonlocal checks
        checks += 1
        holders = {}
        for members in live:
            holders[id(members.book)] = holders.get(id(members.book), 0) + 1
        for members in live:
            if members.owned:
                assert holders[id(members.book)] == 1
                assert id(members.book) not in stored

    init, own, fork = Cohort.__init__, Cohort.own, Cohort.fork

    def registering(self, *args) -> None:
        init(self, *args)
        live.append(self)

    def owning(self):
        book = own(self)
        check()
        return book

    def forking(self, mask):
        nonlocal owned_forks
        owned_forks += self.owned
        twin = fork(self, mask)
        check()
        return twin

    for engine in (batch_kernel._YkdFamilyEngine, batch_kernel._MR1pEngine):

        def episode(self, held, *rest, play=engine._episode):
            live.clear()
            stored.clear()
            stored.update(id(book) for _, book in held)
            return play(self, held, *rest)

        monkeypatch.setattr(engine, "_episode", episode)
    monkeypatch.setattr(Cohort, "__init__", registering)
    monkeypatch.setattr(Cohort, "own", owning)
    monkeypatch.setattr(Cohort, "fork", forking)
    result = run_case_batched(
        CaseConfig(
            algorithm=algorithm,
            n_processes=64,
            n_changes=12,
            mean_rounds_between_changes=2.0,
            runs=40,
            master_seed=1,
        )
    )
    assert result.changes_total == 40 * 12
    assert checks > 100
    assert owned_forks > 0  # the rule's copying branch was exercised


ENVIRONMENT = CaseConfig(
    algorithm="ykd",
    n_processes=12,
    n_changes=6,
    mean_rounds_between_changes=2.0,
    runs=9,
    master_seed=21,
)


def _forget_last_environment() -> None:
    """Make the next ``compile_case`` a cold one: the compiler keeps
    one environment, so compiling another one evicts it."""
    compile_case(replace(ENVIRONMENT, master_seed=ENVIRONMENT.master_seed + 1))


def test_algorithms_sharing_an_environment_compile_it_once(monkeypatch) -> None:
    compiled_runs = 0
    compile_run = batch_compile.compile_run

    def counting(*args):
        nonlocal compiled_runs
        compiled_runs += 1
        return compile_run(*args)

    monkeypatch.setattr(batch_compile, "compile_run", counting)
    _forget_last_environment()
    compiled_runs = 0
    shared = compare_algorithms(
        ENVIRONMENT, BATCHED_ALGORITHMS, kernel="batched"
    )
    assert compiled_runs == ENVIRONMENT.runs

    for algorithm in BATCHED_ALGORITHMS:
        _forget_last_environment()
        cold = run_case_batched(replace(ENVIRONMENT, algorithm=algorithm))
        hot = shared[algorithm]
        assert hot.outcomes == cold.outcomes
        assert hot.rounds_total == cold.rounds_total
        assert hot.changes_total == cold.changes_total
        assert hot.final_components == cold.final_components
        assert hot.final_primary_masks == cold.final_primary_masks
    assert compiled_runs == (1 + 2 * len(BATCHED_ALGORITHMS)) * ENVIRONMENT.runs


@pytest.mark.parametrize(
    "other",
    [
        replace(ENVIRONMENT, master_seed=22),
        replace(ENVIRONMENT, n_processes=13),
        replace(ENVIRONMENT, n_changes=7),
        replace(ENVIRONMENT, mean_rounds_between_changes=2),  # labelled "2"
        replace(ENVIRONMENT, runs=10),
        replace(ENVIRONMENT, cut_probability=0.25),
        replace(ENVIRONMENT, change_generator=SkewedPartitionGenerator("even")),
    ],
    ids=[
        "seed", "processes", "changes", "rate-label", "runs", "cut",
        "generator",
    ],
)
def test_a_different_environment_is_compiled_anew(other) -> None:
    """Everything ``compile_case`` reads tells two environments apart."""
    _forget_last_environment()
    cold = compile_case(other)
    compile_case(ENVIRONMENT)
    assert compile_case(other) == cold
    # Equal parameters are one environment whichever instance carries them.
    if other.change_generator is not None:
        twin = replace(other, change_generator=SkewedPartitionGenerator("even"))
        first = compile_case(twin)
        assert all(a is b for a, b in zip(first, compile_case(other)))
