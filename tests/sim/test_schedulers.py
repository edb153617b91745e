"""Step-delay models: positivity, bounds, AWB1 semantics, stalls."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry
from repro.sim.schedulers import (
    AdversarialStallDelay,
    AlternatingBurstDelay,
    ChurningTimelyDelay,
    FixedDelay,
    GstRampDelay,
    HeavyTailDelay,
    PartiallySynchronousDelay,
    StallWindow,
    UniformDelay,
)
from tests.conftest import make_rng


class TestFixedDelay:
    def test_constant(self):
        model = FixedDelay(2.5)
        assert model.delay(0, 0.0) == 2.5
        assert model.delay(3, 99.0) == 2.5

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            FixedDelay(0.0).delay(0, 0.0)


class TestUniformDelay:
    def test_within_bounds(self, rng):
        model = UniformDelay(rng, 0.5, 1.5)
        for _ in range(200):
            assert 0.5 <= model.delay(1, 0.0) <= 1.5

    def test_bad_bounds_rejected(self, rng):
        with pytest.raises(ValueError):
            UniformDelay(rng, 2.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelay(rng, 0.0, 1.0)

    def test_per_pid_streams_differ(self, rng):
        model = UniformDelay(rng, 0.5, 1.5)
        a = [model.delay(0, 0.0) for _ in range(8)]
        b = [model.delay(1, 0.0) for _ in range(8)]
        assert a != b

    def test_deterministic_across_registries(self):
        a = UniformDelay(make_rng(5), 0.5, 1.5).delay(0, 0.0)
        b = UniformDelay(make_rng(5), 0.5, 1.5).delay(0, 0.0)
        assert a == b


class TestHeavyTailDelay:
    def test_positive_and_capped(self, rng):
        model = HeavyTailDelay(rng, scale=0.5, shape=1.3, cap=10.0)
        for _ in range(500):
            d = model.delay(2, 0.0)
            assert 0 < d <= 10.0

    def test_produces_tail(self, rng):
        model = HeavyTailDelay(rng, scale=0.5, shape=1.1, cap=100.0)
        samples = [model.delay(0, 0.0) for _ in range(2000)]
        assert max(samples) > 10 * min(samples)

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError):
            HeavyTailDelay(rng, scale=-1.0)


class TestPartiallySynchronousDelay:
    """The AWB1 realization: the designated process is timely after gst."""

    def test_timely_after_gst(self, rng):
        model = PartiallySynchronousDelay(
            base=HeavyTailDelay(rng, cap=50.0),
            timely_pids={0},
            gst=100.0,
            rng=rng,
            timely_lo=0.5,
            timely_hi=1.0,
        )
        for _ in range(200):
            assert 0.5 <= model.delay(0, 150.0) <= 1.0

    def test_untimely_before_gst(self, rng):
        model = PartiallySynchronousDelay(
            base=FixedDelay(7.0), timely_pids={0}, gst=100.0, rng=rng
        )
        assert model.delay(0, 50.0) == 7.0

    def test_other_pids_stay_on_base(self, rng):
        model = PartiallySynchronousDelay(
            base=FixedDelay(7.0), timely_pids={0}, gst=100.0, rng=rng
        )
        assert model.delay(1, 500.0) == 7.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            PartiallySynchronousDelay(FixedDelay(1.0), {0}, gst=-1.0, rng=rng)
        with pytest.raises(ValueError):
            PartiallySynchronousDelay(
                FixedDelay(1.0), {0}, gst=0.0, rng=rng, timely_lo=2.0, timely_hi=1.0
            )


class TestAdversarialStallDelay:
    def test_stall_pushes_wake_to_window_end(self):
        model = AdversarialStallDelay(FixedDelay(1.0), [StallWindow(0, 10.0, 50.0)])
        # Step at t=9.5 would wake at 10.5, inside the stall: push to 50.
        assert model.delay(0, 9.5) == pytest.approx(50.0 - 9.5)

    def test_other_pid_unaffected(self):
        model = AdversarialStallDelay(FixedDelay(1.0), [StallWindow(0, 10.0, 50.0)])
        assert model.delay(1, 9.5) == 1.0

    def test_outside_window_unaffected(self):
        model = AdversarialStallDelay(FixedDelay(1.0), [StallWindow(0, 10.0, 50.0)])
        assert model.delay(0, 100.0) == 1.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            StallWindow(0, 5.0, 5.0)

    def test_chained_windows(self):
        model = AdversarialStallDelay(
            FixedDelay(1.0), [StallWindow(0, 2.0, 5.0), StallWindow(0, 5.0, 9.0)]
        )
        # Wake at 2.5 -> pushed to 5.0 -> inside second window -> 9.0.
        assert model.delay(0, 1.5) == pytest.approx(7.5)


class TestGstRampDelay:
    def test_delays_shrink_toward_gst(self):
        model = GstRampDelay(make_rng(3), gst=1000.0, start_scale=8.0, lo=1.0, hi=1.0)
        early = model.delay(0, 0.0)
        mid = model.delay(0, 500.0)
        late = model.delay(0, 999.0)
        assert early == pytest.approx(8.0)
        assert early > mid > late
        assert model.delay(0, 1000.0) == pytest.approx(1.0)  # timely after gst

    def test_non_designated_pids_stay_slow_forever(self):
        model = GstRampDelay(
            make_rng(3), gst=100.0, start_scale=4.0, lo=1.0, hi=1.0, timely_pids={0}
        )
        assert model.delay(0, 200.0) == pytest.approx(1.0)
        # Non-designated pids never enter the ramp: slow before the gst
        # (even just before it) and slow after.
        assert model.delay(1, 99.9) == pytest.approx(4.0)
        assert model.delay(1, 200.0) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GstRampDelay(make_rng(0), gst=0.0)
        with pytest.raises(ValueError):
            GstRampDelay(make_rng(0), gst=10.0, start_scale=0.5)


class TestAlternatingBurstDelay:
    def make(self, **kw):
        defaults = dict(
            period=100.0, burst_fraction=0.5, calm_lo=1.0, calm_hi=1.0,
            burst_lo=10.0, burst_hi=10.0,
        )
        defaults.update(kw)
        return AlternatingBurstDelay(make_rng(4), **defaults)

    def test_calm_and_burst_phases_alternate(self):
        model = self.make()
        assert model.delay(1, 10.0) == pytest.approx(1.0)  # calm half
        assert model.delay(1, 60.0) == pytest.approx(10.0)  # burst half
        assert model.delay(1, 110.0) == pytest.approx(1.0)  # next cycle

    def test_timely_pid_drops_out_of_the_cycle_after_gst(self):
        model = self.make(timely_pids={0}, gst=200.0)
        assert model.delay(0, 60.0) == pytest.approx(10.0)  # still bursting
        assert model.delay(0, 260.0) == pytest.approx(1.0)  # timely forever
        assert model.delay(1, 260.0) == pytest.approx(10.0)  # others burst on

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(period=0.0)
        with pytest.raises(ValueError):
            self.make(burst_fraction=1.0)


class TestChurningTimelyDelay:
    def make(self):
        return ChurningTimelyDelay(
            base=FixedDelay(5.0),
            candidates=[0, 1, 2],
            epoch=100.0,
            settle_at=300.0,
            final_pid=0,
            rng=make_rng(5),
            timely_lo=1.0,
            timely_hi=1.0,
        )

    def test_timely_identity_rotates_then_settles(self):
        model = self.make()
        assert [model.timely_at(t) for t in (0.0, 100.0, 200.0)] == [0, 1, 2]
        assert model.timely_at(300.0) == 0
        assert model.timely_at(9999.0) == 0

    def test_only_the_current_witness_is_fast(self):
        model = self.make()
        assert model.delay(1, 150.0) == pytest.approx(1.0)
        assert model.delay(0, 150.0) == pytest.approx(5.0)
        assert model.delay(0, 400.0) == pytest.approx(1.0)
        assert model.delay(2, 400.0) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurningTimelyDelay(FixedDelay(1.0), [], 10.0, 0.0, 0, make_rng(0))


class TestEveryModel:
    @given(st.floats(min_value=0.1, max_value=10.0), st.integers(0, 7))
    def test_all_models_produce_valid_delays(self, base, pid):
        reg = make_rng(99)
        models = [
            FixedDelay(base),
            UniformDelay(reg, base / 2, base),
            HeavyTailDelay(reg, scale=base, cap=base * 100),
        ]
        for model in models:
            d = model.delay(pid, 0.0)
            assert d > 0


#: (pid, now) points crossing every model's gst, epoch and burst edges;
#: repeated so each pid's stream is drawn from many times in turn.
DRAW_POINTS = [
    (pid, now) for now in (0.0, 40.0, 150.0, 250.0, 390.0, 610.0, 1000.0) for pid in (0, 1, 2)
] * 4


def _ramp_reference(s, pid, now):
    base = s["delay"][pid].uniform(0.5, 1.5)
    if pid not in (0, 1):
        return base * 8.0
    if now >= 500.0:
        return base
    return base * (1.0 + 7.0 * (1.0 - now / 500.0))


def _burst_reference(s, pid, now):
    stream = s["delay"][pid]
    if pid == 2 and now >= 300.0:
        return stream.uniform(0.5, 1.5)
    if (now % 400.0) / 400.0 < 0.5:
        return stream.uniform(0.5, 1.5)
    return stream.uniform(5.0, 20.0)


#: model id -> (build(rng), reference(twin streams, pid, now)), the
#: reference written with ``random.Random.uniform``.
INLINE_DRAW_MODELS = {
    "uniform": (
        lambda rng: UniformDelay(rng, 0.5, 1.5),
        lambda s, pid, now: s["delay"][pid].uniform(0.5, 1.5),
    ),
    "partially-synchronous": (
        lambda rng: PartiallySynchronousDelay(UniformDelay(rng, 0.5, 2.0), [1], 200.0, rng, 0.5, 1.0),
        lambda s, pid, now: (
            s["timely"][pid].uniform(0.5, 1.0) if pid == 1 and now >= 200.0 else s["delay"][pid].uniform(0.5, 2.0)
        ),
    ),
    "gst-ramp": (
        lambda rng: GstRampDelay(rng, gst=500.0, start_scale=8.0, lo=0.5, hi=1.5, timely_pids=[0, 1]),
        _ramp_reference,
    ),
    "alternating-burst": (
        lambda rng: AlternatingBurstDelay(rng, period=400.0, timely_pids=[2], gst=300.0),
        _burst_reference,
    ),
    "churning-timely": (
        lambda rng: ChurningTimelyDelay(UniformDelay(rng, 1.0, 3.0), [0, 1, 2], 100.0, 600.0, 2, rng),
        lambda s, pid, now: (
            s["timely"][pid].uniform(0.5, 1.0)
            if pid == (2 if now >= 600.0 else int(now // 100.0) % 3)
            else s["delay"][pid].uniform(1.0, 3.0)
        ),
    ),
}


@pytest.mark.parametrize("build, reference", INLINE_DRAW_MODELS.values(), ids=list(INLINE_DRAW_MODELS))
def test_inline_draws_are_bit_identical_to_random_uniform(build, reference):
    """``lo + (hi - lo) * stream.random()`` is ``Random.uniform``'s body:
    the same floats, drawn in the same per-pid order, as on twin streams."""
    model = build(make_rng(7))
    twin = make_rng(7)
    streams = {"delay": twin.per_pid("delay"), "timely": twin.per_pid("timely")}
    drawn = [model.delay(pid, now) for pid, now in DRAW_POINTS]
    assert drawn == [reference(streams, pid, now) for pid, now in DRAW_POINTS]
