import math

import numpy as np
import pytest

from qwdr import ArrivalProcess, ChannelModel, achievable_rate
from qwdr.stochastic import ARRIVAL_STREAM, CHANNEL_STREAM, _philox_key, _rng_at


class TestAchievableRate:
    def test_zero_gain_zero_rate(self):
        assert achievable_rate(0.0) == 0.0

    def test_unit_rate_at_e_minus_one(self):
        assert achievable_rate(math.e - 1.0, sigma2=1.0) == pytest.approx(1.0, abs=1e-12)
        assert achievable_rate(2.0 * (math.e - 1.0), sigma2=2.0) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        assert achievable_rate(3.0, sigma2=1.0) == pytest.approx(math.log(4.0), abs=1e-12)


def one_link_channel(**kwargs):
    defaults = dict(links=[(1, 2)], mean_gain={(1, 2): 10.0}, seed=42)
    defaults.update(kwargs)
    return ChannelModel(**defaults)


class TestChannelModel:
    def test_same_seed_same_sequence(self):
        a = one_link_channel()
        b = one_link_channel()
        for idx in (0, 3, 17):
            assert a.draw(idx).gains == pytest.approx(b.draw(idx).gains)

    def test_draws_addressable_out_of_order(self):
        ch = one_link_channel()
        later = ch.draw(7).gain((1, 2))
        earlier = ch.draw(2).gain((1, 2))
        assert ch.draw(7).gain((1, 2)) == later
        assert ch.draw(2).gain((1, 2)) == earlier

    def test_different_streams_differ(self):
        # a shared seed still gives the channel and the arrivals different Philox keys
        channel = one_link_channel(seed=9)
        arrivals = ArrivalProcess([(1, 3)], [5.0], seed=9)
        assert channel._key.tobytes() != arrivals._key.tobytes()

    def test_truncation_bounds_gain_and_rate(self):
        ch = one_link_channel(truncation_factor=2.0)
        cap = 20.0
        for idx in range(500):
            state = ch.draw(idx)
            assert state.gain((1, 2)) <= cap + 1e-12
            assert state.rate((1, 2)) <= ch.max_rate + 1e-12

    def test_power_model_mean_within_two_percent(self):
        ch = one_link_channel(truncation_factor=1e9)  # effectively untruncated
        rng_mean = np.mean([ch.draw(i).gain((1, 2)) for i in range(200_000)])
        assert abs(rng_mean - 10.0) / 10.0 < 0.02

    def test_amplitude_model_mean_within_two_percent(self):
        ch = one_link_channel(gain_model="amplitude", truncation_factor=1e9)
        rng_mean = np.mean([ch.draw(i).gain((1, 2)) for i in range(200_000)])
        assert abs(rng_mean - 10.0) / 10.0 < 0.02

    def test_fixed_rates_exact(self):
        ch = ChannelModel(
            links=[(1, 2), (2, 3)],
            mean_gain={},
            fixed_rates={(1, 2): 4.0, (2, 3): 4.0},
        )
        state = ch.draw(0)
        assert state.rate((1, 2)) == 4.0
        assert state.rate((2, 3)) == 4.0
        assert int(state.rate((1, 2))) == 4  # integer floor stays exact

    def test_fixed_gain_max_rate_is_the_drawn_rate(self):
        # a fixed channel never applies its truncation cap
        ch = ChannelModel([(1, 2)], {(1, 2): 1.0}, gain_model="fixed")
        state = ch.draw(4)
        assert state.rates.tobytes() == achievable_rate(np.array([1.0])).tobytes()
        assert ch.max_rate == state.rate((1, 2)) == math.log(2.0)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_fixed_gain_accepted(self):
        # gain x truncation factor overflows, but a fixed channel's rate is finite
        ch = ChannelModel([(1, 2)], {(1, 2): 1e308}, gain_model="fixed")
        assert ch.draw(0).rate((1, 2)) == ch.max_rate == math.log1p(1e308)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [708.0, 709.0, 800.0, 2.0**70])
    def test_huge_fixed_rate_draws_without_warning(self, rate):
        # the back-computed gain overflows to inf; the rate stays exact
        ch = ChannelModel(links=[(1, 2)], mean_gain={}, fixed_rates={(1, 2): rate})
        state = ch.draw(3)
        assert state.rate((1, 2)) == rate
        assert ch.max_rate == rate


class TestChannelGeneratorReuse:
    """One generator per model, moved to each draw's counter block."""

    LINKS = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]

    @staticmethod
    def fresh_gains(ch, index):
        """The gains of a new generator built at ``index``'s counter block."""
        rng = _rng_at(ch._key, index)
        if ch.gain_model == "power":
            gains = rng.exponential(ch.mean_gain)
        else:
            gains = rng.rayleigh(scale=ch.mean_gain / np.sqrt(np.pi / 2.0))
        return np.minimum(gains, ch.gain_cap)

    @pytest.mark.parametrize("gain_model", ["power", "amplitude"])
    def test_draws_bitwise_equal_to_fresh_generator(self, gain_model):
        mean = {link: 0.5 + n for n, link in enumerate(self.LINKS)}
        ch = ChannelModel(self.LINKS, mean, gain_model=gain_model, seed=7)
        indices = list(range(1000)) + [12_345, 10**6, 2**63 + 5, 2**64 + 3, 2**100]
        np.random.default_rng(3).shuffle(indices)
        for index in indices:
            state = ch.draw(index)
            gains = self.fresh_gains(ch, index)
            assert state.gains.tobytes() == gains.tobytes(), index
            assert state.rates.tobytes() == achievable_rate(gains, ch.sigma2).tobytes(), index


class TestArrivalProcess:
    def test_zero_rate_always_zero(self):
        ap = ArrivalProcess([(1, 3)], [0.0], seed=1)
        assert all(ap.draw(s)[0] == 0 for s in range(200))

    def test_sample_mean_matches_rate(self):
        # CLT bound: 3 sigma over 1e5 slots is ~0.015 for lambda = 2.5
        ap = ArrivalProcess([(1, 3)], [2.5], seed=123)
        counts = [int(ap.draw(s)[0]) for s in range(100_000)]
        assert 2.45 <= np.mean(counts) <= 2.55

    def test_stream_separation(self):
        # arrivals draw from their own stream, never from the channel's under one seed
        arrivals = ArrivalProcess([(1, 3)], [5.0], seed=9)
        assert arrivals._key.tobytes() == _philox_key(9, ARRIVAL_STREAM).tobytes()
        assert arrivals._key.tobytes() != _philox_key(9, CHANNEL_STREAM).tobytes()

    def test_slot_addressable_independent_of_order(self):
        ap = ArrivalProcess([(1, 3), (2, 3)], [1.0, 4.0], seed=5)
        forward = [ap.draw(s).copy() for s in range(1000)]
        ap2 = ArrivalProcess([(1, 3), (2, 3)], [1.0, 4.0], seed=5)
        for s in reversed(range(1000)):
            assert np.array_equal(ap2.draw(s), forward[s])

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ArrivalProcess([(1, 3)], [-1.0])
