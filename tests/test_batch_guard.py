"""The batched kernel's refusal surface.

Anything the kernel cannot reproduce *exactly* must be refused loudly
with :class:`~repro.errors.UnsupportedBatchConfig` — never run with a
silent divergence — while ``run_case(kernel="batched")`` turns that
refusal into a scalar fallback so callers always get correct numbers.
Configurations the scalar engine itself rejects raise the scalar
engine's :class:`~repro.errors.SimulationError` instead: those must
fail the same way on every backend, not fall back.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, UnsupportedBatchConfig
from repro.net.changes import CrashRecoveryChangeGenerator
from repro.obs import Subscriber
from repro.sim.batch import ensure_batchable, run_case_batched
from repro.sim.batch.api import BatchCaseResult
from repro.sim.campaign import MODE_CASCADING, CaseConfig, run_case


def config_with(**overrides) -> CaseConfig:
    base = dict(
        algorithm="ykd",
        n_processes=5,
        n_changes=4,
        mean_rounds_between_changes=2.0,
        runs=5,
        master_seed=0,
    )
    base.update(overrides)
    return CaseConfig(**base)


# ----------------------------------------------------------------------
# Loud refusals: UnsupportedBatchConfig, with an explanation.
# ----------------------------------------------------------------------


def test_refuses_observers() -> None:
    with pytest.raises(UnsupportedBatchConfig, match="observers"):
        run_case_batched(config_with(), observers=[Subscriber()])


def test_refuses_cascading_mode() -> None:
    with pytest.raises(UnsupportedBatchConfig, match="cascading"):
        run_case_batched(config_with(mode=MODE_CASCADING))


def test_refuses_unknown_algorithm() -> None:
    with pytest.raises(UnsupportedBatchConfig, match="broken_majority"):
        ensure_batchable(config_with(algorithm="broken_majority"))


@pytest.mark.parametrize(
    "flag",
    [
        "collect_ambiguous",
        "collect_message_sizes",
        "collect_metrics",
    ],
)
def test_refuses_statistics_collection(flag) -> None:
    with pytest.raises(UnsupportedBatchConfig, match=flag):
        run_case_batched(config_with(**{flag: True}))


def test_refuses_fault_model_generators() -> None:
    # CrashRecoveryChangeGenerator subclasses UniformChangeGenerator;
    # the exact-type check must still refuse it — it consumes RNG draws
    # the batch compiler does not replay.
    with pytest.raises(UnsupportedBatchConfig, match="CrashRecovery"):
        run_case_batched(
            config_with(change_generator=CrashRecoveryChangeGenerator())
        )


# ----------------------------------------------------------------------
# Scalar-parity rejections: SimulationError, identical on both backends.
# ----------------------------------------------------------------------


def test_single_process_raises_simulation_error_not_fallback() -> None:
    config = config_with(n_processes=1)
    with pytest.raises(SimulationError) as scalar_error:
        run_case(config)
    with pytest.raises(SimulationError) as batched_error:
        run_case_batched(config)
    assert str(batched_error.value) == str(scalar_error.value)
    # And run_case(kernel="batched") must NOT swallow it as a fallback.
    with pytest.raises(SimulationError):
        run_case(config, kernel="batched")


def test_bad_cut_probability_raises_simulation_error() -> None:
    config = config_with(cut_probability=1.5)
    with pytest.raises(SimulationError, match=r"cut_probability"):
        run_case_batched(config)
    with pytest.raises(SimulationError, match=r"cut_probability"):
        run_case(config, kernel="batched")


# ----------------------------------------------------------------------
# run_case routing: fallback is silent and exact, bad names are loud.
# ----------------------------------------------------------------------


def test_run_case_falls_back_to_scalar_for_unsupported_config() -> None:
    config = config_with(mode=MODE_CASCADING)
    fallback = run_case(config, kernel="batched")
    scalar = run_case(config)
    assert not isinstance(fallback, BatchCaseResult)
    assert fallback.outcomes == scalar.outcomes
    assert fallback.rounds_total == scalar.rounds_total


def test_run_case_with_observers_stays_scalar() -> None:
    class Counter(Subscriber):
        runs = 0

        def on_run_end(self, driver) -> None:
            Counter.runs += 1

    result = run_case(config_with(), observers=[Counter()], kernel="batched")
    assert not isinstance(result, BatchCaseResult)
    assert Counter.runs == 5


def test_run_case_batched_returns_batch_result_when_supported() -> None:
    result = run_case(config_with(), kernel="batched")
    assert isinstance(result, BatchCaseResult)


def test_run_case_rejects_unknown_kernel_name() -> None:
    with pytest.raises(ValueError, match="kernel"):
        run_case(config_with(), kernel="gpu")
