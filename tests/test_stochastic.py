import math

import numpy as np
import pytest

from qwdr import ArrivalProcess, ChannelModel, achievable_rate
from qwdr.stochastic import ARRIVAL_STREAM, CHANNEL_STREAM


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
        later = ch.draw(7).gains[ch.positions[(1, 2)]]
        earlier = ch.draw(2).gains[ch.positions[(1, 2)]]
        assert ch.draw(7).gains[ch.positions[(1, 2)]] == later
        assert ch.draw(2).gains[ch.positions[(1, 2)]] == earlier

    def test_different_streams_differ(self):
        # a shared seed still gives the channel and the arrivals different Philox keys
        channel = one_link_channel(seed=9)
        arrivals = ArrivalProcess([(1, 3)], [5.0], seed=9)
        assert channel._stream.key.tobytes() != arrivals._stream.key.tobytes()

    def test_truncation_bounds_gain_and_rate(self):
        ch = one_link_channel(truncation_factor=2.0)
        cap = 20.0
        for idx in range(500):
            state = ch.draw(idx)
            assert state.gains[state.positions[(1, 2)]] <= cap + 1e-12
            assert state.rates[state.positions[(1, 2)]] <= ch.max_rate + 1e-12

    def test_power_model_mean_within_two_percent(self):
        ch = one_link_channel(truncation_factor=1e9)  # effectively untruncated
        rng_mean = np.mean([ch.draw(i).gains[ch.positions[(1, 2)]] for i in range(200_000)])
        assert abs(rng_mean - 10.0) / 10.0 < 0.02

    def test_amplitude_model_mean_within_two_percent(self):
        ch = one_link_channel(gain_model="amplitude", truncation_factor=1e9)
        rng_mean = np.mean([ch.draw(i).gains[ch.positions[(1, 2)]] for i in range(200_000)])
        assert abs(rng_mean - 10.0) / 10.0 < 0.02

    def test_link_listed_twice_rejected(self):
        with pytest.raises(ValueError, match=r"link \(1, 2\) is listed twice"):
            one_link_channel(links=[(1, 2), (1, 2)])

    def test_fixed_rates_exact(self):
        ch = ChannelModel(
            links=[(1, 2), (2, 3)],
            mean_gain={},
            fixed_rates={(1, 2): 4.0, (2, 3): 4.0},
        )
        state = ch.draw(0)
        assert state.rates[state.positions[(1, 2)]] == 4.0
        assert state.rates[state.positions[(2, 3)]] == 4.0
        assert int(state.rates[state.positions[(1, 2)]]) == 4  # integer floor stays exact

    def test_fixed_gain_max_rate_is_the_drawn_rate(self):
        # a fixed channel never applies its truncation cap
        ch = ChannelModel([(1, 2)], {(1, 2): 1.0}, gain_model="fixed")
        state = ch.draw(4)
        assert np.array(state.rates).tobytes() == achievable_rate(np.array([1.0])).tobytes()
        assert ch.max_rate == state.rates[state.positions[(1, 2)]] == math.log(2.0)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_fixed_gain_accepted(self):
        # gain x truncation factor overflows, but a fixed channel's rate is finite
        ch = ChannelModel([(1, 2)], {(1, 2): 1e308}, gain_model="fixed")
        assert ch.draw(0).rates[ch.positions[(1, 2)]] == ch.max_rate == math.log1p(1e308)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [708.0, 709.0, 800.0, 2.0**70])
    def test_huge_fixed_rate_draws_without_warning(self, rate):
        # the back-computed gain overflows to inf; the rate stays exact
        ch = ChannelModel(links=[(1, 2)], mean_gain={}, fixed_rates={(1, 2): rate})
        state = ch.draw(3)
        assert state.rates[state.positions[(1, 2)]] == rate
        assert ch.max_rate == rate


class TestChannelGeneratorReuse:
    """One stream type addresses every draw: its one generator, moved to each
    draw's counter block, gives the bits of a new generator built there."""

    LINKS = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]

    @staticmethod
    def fresh_gains(ch, index):
        """The gains of a new generator built at ``index``'s counter block."""
        rng = np.random.Generator(np.random.Philox(key=ch._stream.key, counter=int(index) << 128))
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
            assert np.array(state.rates).tobytes() == achievable_rate(gains, ch.sigma2).tobytes(), index

    @pytest.mark.parametrize("gain_model", ["power", "amplitude"])
    def test_sampler_arithmetic_identity(self, gain_model):
        # draw() scales one standard exponential draw per link itself; the
        # gains must keep the bits of numpy's own samplers, for zero, tiny,
        # ordinary and huge means, and for a channel of a single link
        means = [0.0, 5e-324, 1e-300, 0.37, 1.0, 46_000.0, 3.1e6, 1e300]
        links = [(n, n + 1) for n in range(len(means))]
        channels = [
            ChannelModel(links, dict(zip(links, means)), gain_model=gain_model, seed=11),
            ChannelModel([(1, 2)], {(1, 2): 2.5}, gain_model=gain_model, seed=12),
        ]
        for ch in channels:
            for index in range(10_000):
                assert ch.draw(index).gains.tobytes() == self.fresh_gains(ch, index).tobytes(), index


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
        key = arrivals._stream.key.tobytes()
        assert key == np.random.SeedSequence([9, ARRIVAL_STREAM]).generate_state(2, np.uint64).tobytes()
        assert key != np.random.SeedSequence([9, CHANNEL_STREAM]).generate_state(2, np.uint64).tobytes()

    def test_slot_addressable_independent_of_order(self):
        ap = ArrivalProcess([(1, 3), (2, 3)], [1.0, 4.0], seed=5)
        forward = [ap.draw(s).copy() for s in range(1000)]
        assert all(type(c) is int for row in forward for c in row)
        ap2 = ArrivalProcess([(1, 3), (2, 3)], [1.0, 4.0], seed=5)
        for s in reversed(range(1000)):
            assert np.array_equal(ap2.draw(s), forward[s])

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ArrivalProcess([(1, 3)], [-1.0])

    def test_draws_bitwise_equal_to_fresh_generator(self):
        # each slot reads the block a new generator at the block's counter
        # draws; shuffled, so every draw moves to another block, and the
        # largest blocks need the high counter word
        rates = [0.0, 0.3, 2.5, 40.0]  # 40 takes numpy's rejection sampler
        ap = ArrivalProcess([(1, 9), (2, 9), (3, 9), (4, 9)], rates, seed=7)
        key = np.random.SeedSequence([7, ARRIVAL_STREAM]).generate_state(2, np.uint64)
        pick = np.random.default_rng(5)
        blocks = list(range(1000)) + [10**6, 2**63 + 5, 2**64 + 3, 2**100]
        slots = [b * ap._BLOCK + int(pick.integers(ap._BLOCK)) for b in blocks]
        pick.shuffle(slots)
        for slot in slots:
            block, offset = divmod(slot, ap._BLOCK)
            rng = np.random.Generator(np.random.Philox(key=key, counter=block << 128))
            fresh = rng.poisson(rates, size=(ap._BLOCK, len(rates))).tolist()[offset]
            assert ap.draw(slot) == fresh, slot


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: one_link_channel(gain_model="rician"), r"^unknown gain model 'rician'$"),
        (lambda: one_link_channel(sigma2=0.0), r"^sigma2 must be > 0$"),
        (lambda: one_link_channel(truncation_factor=0.0), r"^truncation factor must be > 0$"),
        (lambda: one_link_channel(mean_gain={(1, 2): -1.0}), r"^mean gains must be >= 0$"),
        (lambda: one_link_channel().draw(-1), r"^review index must be >= 0$"),
        (lambda: ArrivalProcess([(1, 3), (2, 3)], [1.0]), r"^one rate per \(source, flow\) required$"),
        (lambda: ArrivalProcess([(1, 3)], [1.0]).draw(-1), r"^slot must be >= 0$"),
    ],
    ids=["gain-model", "sigma2", "truncation", "mean-gain", "review-index", "rates", "slot"],
)
def test_bad_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
