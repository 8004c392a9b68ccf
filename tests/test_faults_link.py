"""Tests for the pure-hash link fault draws (loss, delay, reorder)."""

from repro.faults import LinkFaults
from repro.faults.link import delivery_delay, delivery_lost, reorder_key

#: Every directed link of a three-process system.
LINKS_OF_3 = [(s, d) for s in range(3) for d in range(3) if s != d]


class TestDeliveryLost:
    def test_draws_are_pure_functions_of_seed_round_link(self):
        link = LinkFaults(loss_permille=400, seed=7)
        for round_index in range(20):
            assert delivery_lost(link, round_index, 0, 1) == delivery_lost(
                link, round_index, 0, 1
            )

    def test_zero_permille_never_loses(self):
        link = LinkFaults()
        assert not any(
            delivery_lost(link, r, s, d)
            for r in range(50)
            for s in range(3)
            for d in range(3)
            if s != d
        )

    def test_full_permille_always_loses(self):
        link = LinkFaults(loss_permille=1000)
        assert all(
            delivery_lost(link, r, 0, 1) for r in range(50)
        )

    def test_empirical_rate_tracks_the_permille(self):
        link = LinkFaults(loss_permille=250, seed=3)
        draws = [
            delivery_lost(link, r, s, d)
            for r in range(200)
            for s in range(4)
            for d in range(4)
            if s != d
        ]
        rate = sum(draws) / len(draws)
        assert 0.20 < rate < 0.30

    def test_different_links_draw_independently(self):
        link = LinkFaults(loss_permille=500, seed=1)
        a = [delivery_lost(link, r, 0, 1) for r in range(64)]
        b = [delivery_lost(link, r, 1, 0) for r in range(64)]
        assert a != b  # directed links have independent fates

    def test_seed_changes_the_environment(self):
        a = LinkFaults(loss_permille=500, seed=1)
        b = LinkFaults(loss_permille=500, seed=2)
        assert [delivery_lost(a, r, 0, 1) for r in range(64)] != [
            delivery_lost(b, r, 0, 1) for r in range(64)
        ]

    def test_per_link_override_beats_the_global_rate(self):
        link = LinkFaults(loss_permille=0, link_loss=((0, 1, 1000),))
        assert delivery_lost(link, 0, 0, 1)
        assert not delivery_lost(link, 0, 1, 0)
        assert not delivery_lost(link, 0, 0, 2)

    def test_override_can_also_protect_a_link(self):
        link = LinkFaults(loss_permille=1000, link_loss=((0, 1, 0),))
        assert not delivery_lost(link, 0, 0, 1)
        assert delivery_lost(link, 0, 1, 0)


class TestDeliveryDelay:
    def test_inactive_knobs_never_delay(self):
        assert delivery_delay(LinkFaults(delay_permille=500), 0, 0, 1) == 0
        assert delivery_delay(LinkFaults(delay_max=3), 0, 0, 1) == 0

    def test_delays_stay_within_the_bound(self):
        link = LinkFaults(delay_permille=1000, delay_max=3, seed=5)
        delays = {
            delivery_delay(link, r, s, d)
            for r in range(100)
            for s in range(3)
            for d in range(3)
            if s != d
        }
        assert delays <= {1, 2, 3}
        assert len(delays) > 1  # the span draw actually varies

    def test_unit_delay_max_always_holds_one_round(self):
        link = LinkFaults(delay_permille=1000, delay_max=1)
        assert delivery_delay(link, 9, 0, 1) == 1

    def test_partial_permille_sometimes_skips_the_delay(self):
        link = LinkFaults(delay_permille=400, delay_max=2, seed=5)
        delays = [delivery_delay(link, r, 0, 1) for r in range(100)]
        assert 0 in delays and max(delays) >= 1

    def test_per_link_override_beats_the_global_knobs(self):
        # ROADMAP item 4 leftover: only loss had a per-link matrix.
        link = LinkFaults(link_delay=((0, 1, 1000, 2),))
        assert delivery_delay(link, 0, 0, 1) in (1, 2)
        assert delivery_delay(link, 0, 1, 0) == 0
        assert delivery_delay(link, 0, 0, 2) == 0

    def test_per_link_override_can_exempt_a_link(self):
        link = LinkFaults(
            delay_permille=1000, delay_max=3, link_delay=((0, 1, 0, 0),)
        )
        assert delivery_delay(link, 0, 0, 1) == 0
        assert delivery_delay(link, 0, 1, 0) >= 1

    def test_override_bound_is_per_link(self):
        link = LinkFaults(
            delay_permille=1000,
            delay_max=1,
            link_delay=((2, 0, 1000, 5),),
            seed=9,
        )
        slow = {delivery_delay(link, r, 2, 0) for r in range(200)}
        assert slow <= {1, 2, 3, 4, 5} and max(slow) > 1
        assert {delivery_delay(link, r, 0, 1) for r in range(50)} == {1}

    def test_without_overrides_draws_are_unchanged(self):
        # The override plumbing must not move the pure-hash draws of a
        # plain global-knob model (bit-exact replay of old plans).
        base = LinkFaults(delay_permille=700, delay_max=4, seed=13)
        with_empty = LinkFaults(
            delay_permille=700, delay_max=4, link_delay=(), seed=13
        )
        for r in range(100):
            assert delivery_delay(base, r, 0, 1) == delivery_delay(
                with_empty, r, 0, 1
            )


class TestReorderKey:
    def test_off_means_sender_order(self):
        link = LinkFaults()
        keys = [reorder_key(link, 4, 0, sender) for sender in (3, 1, 2)]
        assert sorted(keys) == [(0, 1), (0, 2), (0, 3)]

    def test_on_means_a_replayable_shuffle(self):
        link = LinkFaults(reorder=True, seed=11)
        first = [reorder_key(link, 4, 0, sender) for sender in range(6)]
        second = [reorder_key(link, 4, 0, sender) for sender in range(6)]
        assert first == second
        assert [k[1] for k in sorted(first)] != list(range(6))


class TestLossMatrix:
    def test_matrix_reflects_overrides(self):
        link = LinkFaults(loss_permille=100, link_loss=((0, 1, 900),), seed=3)
        rate = {
            pair: sum(delivery_lost(link, r, *pair) for r in range(1000)) / 1000
            for pair in LINKS_OF_3
        }
        assert abs(rate.pop((0, 1)) - 0.9) < 0.05
        assert all(abs(share - 0.1) < 0.05 for share in rate.values())


class TestDelayMatrix:
    def test_matrix_reflects_overrides(self):
        link = LinkFaults(
            delay_permille=200, delay_max=1, link_delay=((1, 2, 800, 6),)
        )
        delays = {
            pair: [delivery_delay(link, r, *pair) for r in range(1000)]
            for pair in LINKS_OF_3
        }
        slow = delays.pop((1, 2))
        assert abs(sum(map(bool, slow)) / 1000 - 0.8) < 0.05
        assert max(slow) == 6
        for held in delays.values():
            assert abs(sum(map(bool, held)) / 1000 - 0.2) < 0.05
            assert max(held) == 1
