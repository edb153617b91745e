"""Named RNG streams: determinism and independence."""

from __future__ import annotations

from repro.sim.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_name_sensitive(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestRngRegistry:
    def test_same_seed_same_sequence(self):
        a = [RngRegistry(7).stream("x").random() for _ in range(5)]
        b = [RngRegistry(7).stream("x").random() for _ in range(5)]
        assert a == b

    def test_streams_are_memoised(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_streams_are_independent(self):
        reg = RngRegistry(7)
        # Drawing from one stream must not perturb another: compare with
        # a fresh registry where the other stream is never touched.
        reg.stream("noise").random()
        value = reg.stream("signal").random()
        fresh = RngRegistry(7).stream("signal").random()
        assert value == fresh

    def test_different_names_differ(self):
        reg = RngRegistry(7)
        assert reg.stream("a").random() != reg.stream("b").random()


class TestPerPidStreams:
    def test_indexing_is_the_named_stream(self):
        reg = RngRegistry(7)
        delays = reg.per_pid("delay")
        assert delays[3] is reg.stream("delay:3")
        assert delays[3] is delays[3]

    def test_two_bindings_of_one_prefix_share_the_draw_order(self):
        """A wrapped delay model and its base both bind ``delay``: they
        must keep drawing from one sequence per pid, as before."""
        reg = RngRegistry(7)
        first, second = reg.per_pid("delay"), reg.per_pid("delay")
        drawn = [first[0].random(), second[0].random(), first[0].random()]
        expected = RngRegistry(7).stream("delay:0")
        assert drawn == [expected.random() for _ in range(3)]

    def test_streams_are_bound_on_first_use_only(self):
        reg = RngRegistry(7)
        timers = reg.per_pid("timer")
        assert len(timers) == 0
        timers[2].random()
        assert sorted(timers) == [2]
