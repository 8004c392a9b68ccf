"""Property tests for the pure-hash load generator.

Two families of guarantees:

* **shard invariance** — the op stream is a pure function of the
  profile, so generating it as 1, 2 or 8 client-shards and merging
  yields byte-identical sequences (hypothesis-driven);
* **draw fidelity** — the Zipf key draws and the burst/storm interval
  draws match independent reference implementations written directly
  from the definitions, not by calling the production code paths.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import ReproError
from repro.obs.canonical import canonical_jsonl
from repro.service.load import (
    LoadProfile,
    burst_windows,
    client_ops,
    key_for,
    replica_for,
    storm_ticks,
    workload,
    workload_digest,
    zipf_cdf,
)
from repro.sim.rng import derive_seed

# ----------------------------------------------------------------------
# Independent reference implementations (definitions, not code reuse).
# ----------------------------------------------------------------------


def reference_key_rank(profile: LoadProfile, client: int, tick: int) -> int:
    """Zipf draw by direct inversion: first rank whose cumulative
    normalized weight reaches the uniform draw."""
    u = derive_seed(profile.seed, "service.load", "key", client, tick) / float(
        2**64
    )
    s = profile.zipf_s_milli / 1000.0
    weights = [(rank + 1) ** (-s) for rank in range(profile.n_keys)]
    total = sum(weights)
    acc = 0.0
    for rank, weight in enumerate(weights):
        acc += weight
        if acc / total >= u:
            return rank
    return profile.n_keys - 1


def reference_event_ticks(profile: LoadProfile, label: str, mean: int):
    """Event series by direct accumulation of the hashed gaps."""
    if mean <= 0:
        return []
    ticks, position, index = [], -1, 0
    while True:
        gap = 1 + derive_seed(profile.seed, "service.load", label, index) % (
            2 * mean - 1
        )
        position += gap
        index += 1
        if position >= profile.ticks:
            return ticks
        ticks.append(position)


profiles = st.builds(
    LoadProfile,
    clients=st.integers(1, 8),
    ticks=st.integers(1, 80),
    n_keys=st.integers(1, 32),
    zipf_s_milli=st.integers(0, 2500),
    arrival_permille=st.integers(0, 1000),
    put_permille=st.integers(0, 1000),
    burst_gap_mean=st.integers(0, 30),
    burst_len=st.integers(0, 8),
    burst_boost_permille=st.integers(0, 1000),
    storm_gap_mean=st.integers(0, 40),
    seed=st.integers(0, 2**32),
)


def stream_bytes(profile: LoadProfile, n_shards: int) -> str:
    """The canonical JSONL of ``n_shards`` client-shards, merged."""
    ops = []
    for shard in range(n_shards):
        for client in range(shard, profile.clients, n_shards):
            ops.extend(client_ops(profile, client))
    ops.sort(key=lambda op: (op.tick, op.client))
    return canonical_jsonl(op.to_dict() for op in ops)


class TestShardInvariance:
    @settings(max_examples=40, deadline=None)
    @given(profile=profiles)
    def test_one_two_and_eight_shards_merge_byte_identically(self, profile):
        reference = canonical_jsonl(op.to_dict() for op in workload(profile))
        assert stream_bytes(profile, 1) == reference
        assert stream_bytes(profile, 2) == reference
        assert stream_bytes(profile, 8) == reference

    @settings(max_examples=20, deadline=None)
    @given(profile=profiles)
    def test_client_streams_are_disjoint_slices(self, profile):
        merged = workload(profile)
        per_client = sorted(
            (op for c in range(profile.clients) for op in client_ops(profile, c)),
            key=lambda op: (op.tick, op.client),
        )
        assert merged == per_client


class TestDrawFidelity:
    @settings(max_examples=25, deadline=None)
    @given(
        profile=profiles,
        client=st.integers(0, 7),
        tick=st.integers(0, 79),
    )
    def test_zipf_draws_match_the_reference(self, profile, client, tick):
        expected = f"k{reference_key_rank(profile, client, tick)}"
        assert key_for(profile, client, tick) == expected

    @settings(max_examples=25, deadline=None)
    @given(profile=profiles)
    def test_burst_and_storm_series_match_the_reference(self, profile):
        expected_bursts = set()
        for start in reference_event_ticks(
            profile, "burst", profile.burst_gap_mean
        ):
            expected_bursts.update(
                range(start, min(start + profile.burst_len, profile.ticks))
            )
        assert burst_windows(profile) == frozenset(expected_bursts)
        assert list(storm_ticks(profile)) == reference_event_ticks(
            profile, "storm", profile.storm_gap_mean
        )

    def test_zipf_skew_concentrates_on_low_ranks(self):
        profile = LoadProfile(
            clients=8, ticks=400, n_keys=32, zipf_s_milli=1100, seed=5
        )
        counts = [0] * profile.n_keys
        for client in range(profile.clients):
            for tick in range(profile.ticks):
                counts[int(key_for(profile, client, tick)[1:])] += 1
        total = sum(counts)
        # Rank 0 alone should far exceed the uniform share, and the
        # top quarter of ranks should dominate the distribution.
        assert counts[0] > 3 * total / profile.n_keys
        assert sum(counts[: profile.n_keys // 4]) > total / 2

    def test_cdf_is_monotone_and_ends_at_one(self):
        cdf = zipf_cdf(LoadProfile(n_keys=16, zipf_s_milli=900))
        assert all(a < b for a, b in zip(cdf, cdf[1:]))
        assert abs(cdf[-1] - 1.0) < 1e-12


class TestReplicaPinning:
    def test_pins_are_sticky_between_storms(self):
        profile = LoadProfile(ticks=60, storm_gap_mean=15, seed=9)
        storms = storm_ticks(profile)
        assert storms, "profile must storm at least once"
        first = storms[0]
        before = {replica_for(profile, c, 5, first - 1) for c in range(8)}
        for tick in range(first):
            for client in range(8):
                assert replica_for(profile, client, 5, tick) == replica_for(
                    profile, client, 5, 0
                )
        after = [replica_for(profile, c, 5, first) for c in range(8)]
        assert set(after) != before or any(
            replica_for(profile, c, 5, first)
            != replica_for(profile, c, 5, first - 1)
            for c in range(8)
        )

    def test_no_storms_means_one_pin_forever(self):
        profile = LoadProfile(ticks=50, storm_gap_mean=0)
        for client in range(4):
            pins = {replica_for(profile, client, 3, t) for t in range(50)}
            assert len(pins) == 1


class TestDeterminism:
    def test_same_profile_same_digest(self):
        profile = LoadProfile(seed=11)
        assert workload_digest(profile) == workload_digest(profile)

    def test_seed_changes_the_workload(self):
        assert workload_digest(LoadProfile(seed=1)) != workload_digest(
            LoadProfile(seed=2)
        )

    def test_validation_rejects_out_of_range_knobs(self):
        with pytest.raises(ReproError):
            LoadProfile(clients=0)
        with pytest.raises(ReproError):
            LoadProfile(arrival_permille=1001)
        with pytest.raises(ReproError):
            LoadProfile(burst_gap_mean=-1)
