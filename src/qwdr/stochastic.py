"""Seeded random processes: slow-fading channel gains and Poisson arrivals.

Every draw is addressed, not streamed: sample index (review index for the
channel, slot for arrivals) is fed into a counter-based generator, so
(seed, stream, index) fully determines each sample and processes can be
replayed or evaluated out of order. A weighted run and its unweighted twin
with the same seeds therefore share arrivals slot for slot. Fading is keyed
by review index, so they share it only until their review clocks diverge:
from then on the same review index starts at different slots. For the
bundled paper15 preset with seed 1, rows 1 and 2 diverge at review 2184,
which starts at slot 4348 in one run and at slot 4349 in the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it on first use: load it here, not in a build)

from .network import Link

#: stream tags keep channel and arrival keys apart even under a shared seed
CHANNEL_STREAM = 0
ARRIVAL_STREAM = 1


def _philox_key(seed: int, stream: int) -> np.ndarray:
    return np.random.SeedSequence([int(seed), int(stream)]).generate_state(2, np.uint64)


def _rng_at(key: np.ndarray, index: int) -> np.random.Generator:
    """Generator positioned at a counter block reserved for ``index``.

    Blocks are spaced 2^128 counter steps apart, far beyond what one draw can
    consume, so different indices never see overlapping Philox output.
    """
    return np.random.Generator(np.random.Philox(key=key, counter=int(index) << 128))


def achievable_rate(gain, sigma2: float = 1.0):
    """Rate of a link with power gain ``gain`` over noise ``sigma2`` (natural log)."""
    return np.log1p(np.asarray(gain, dtype=float) / sigma2)


@dataclass
class ChannelState:
    """Per-link gains and rates, held fixed for one review period.

    ``positions`` maps each link to its offset in ``links``, ``gains`` and
    ``rates``; every state drawn from one ``ChannelModel`` shares its map.
    """

    links: tuple[Link, ...]
    gains: np.ndarray
    rates: np.ndarray
    positions: dict[Link, int] = field(repr=False)

    def gain(self, link: Link) -> float:
        return float(self.gains[self.positions[link]])

    def rate(self, link: Link) -> float:
        return float(self.rates[self.positions[link]])


class ChannelModel:
    """Truncated fading gains per link, redrawn i.i.d. each review period.

    ``gain_model``:
      * ``"power"``     -- power gain is exponential with the given mean
                           (squared-Rayleigh amplitude), the default reading;
      * ``"amplitude"`` -- the gain itself is Rayleigh with the given mean;
      * ``"fixed"``     -- degenerate channel, gains pinned at their means.

    Fading gains are capped at ``truncation_factor`` times the link mean so
    that rates stay bounded; a fixed channel's rates are computed once, at
    construction. ``fixed_rates`` pins the rate map directly (the gain
    is back-computed), which keeps integer floors exact in tests.
    """

    def __init__(
        self,
        links,
        mean_gain: dict[Link, float],
        sigma2: float = 1.0,
        truncation_factor: float = 10.0,
        gain_model: str = "power",
        seed: int = 0,
        fixed_rates: Optional[dict[Link, float]] = None,
    ):
        if gain_model not in ("power", "amplitude", "fixed"):
            raise ValueError(f"unknown gain model {gain_model!r}")
        if sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")
        if truncation_factor <= 0:
            raise ValueError("truncation factor must be > 0")
        self.links = tuple(links)
        self.positions = {link: p for p, link in enumerate(self.links)}
        missing = [l for l in self.links if l not in mean_gain]
        if missing and fixed_rates is None:
            raise ValueError(f"no mean gain for links {missing}: give node coordinates or fixed rates")
        self.sigma2 = float(sigma2)
        self.truncation_factor = float(truncation_factor)
        self.gain_model = gain_model
        self._key = _philox_key(seed, CHANNEL_STREAM)
        # one generator, moved to each draw's counter block (see ``_seek``)
        self._bitgen = np.random.Philox(key=self._key)
        self._rng = np.random.Generator(self._bitgen)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,  # buffer used up: the next output starts a new block
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._fixed_rates: Optional[np.ndarray] = None  # every draw's rates on a fixed channel
        if fixed_rates is not None:
            self._fixed_rates = np.array([float(fixed_rates[l]) for l in self.links])
            if not np.all(self._fixed_rates >= 0):
                raise ValueError("fixed rates must be >= 0")
            # a run reads only the fixed rates; the back-computed gain is inf above rate ~709
            with np.errstate(over="ignore"):
                self.mean_gain = np.expm1(self._fixed_rates) * self.sigma2
            self.gain_model = "fixed"
        else:
            self.mean_gain = np.array([float(mean_gain[l]) for l in self.links])
            if not np.all(self.mean_gain >= 0):
                raise ValueError("mean gains must be >= 0")
        self._rayleigh_scale = self.mean_gain / np.sqrt(np.pi / 2.0)  # amplitude model
        # an overflow gives inf: a fading link's cap or a fixed link's rate is
        # rejected; a fixed channel never applies its cap
        with np.errstate(over="ignore"):
            self.gain_cap = self.mean_gain * self.truncation_factor
            if self._fixed_rates is None and gain_model == "fixed":
                self._fixed_rates = achievable_rate(self.mean_gain, self.sigma2)
            if not np.isfinite(self.max_rate):
                raise ValueError("link rates are unbounded: gain / sigma2 overflows")

    @property
    def link_max_rates(self) -> np.ndarray:
        """The largest rate each link can draw, aligned with ``links``."""
        if self._fixed_rates is not None:
            return self._fixed_rates
        return achievable_rate(self.gain_cap, self.sigma2)

    @property
    def max_rate(self) -> float:
        """The largest rate any draw can give."""
        return float(self.link_max_rates.max(initial=0.0))

    def _seek(self, index: int) -> np.random.Generator:
        """The model's generator in the state ``_rng_at(key, index)`` starts in.

        Sets the Philox counter to ``index << 128`` with an empty output
        buffer, as a new generator at that counter has, without building one.
        The generator is shared, so draws from one model must not overlap in
        time (the simulator draws from one thread).
        """
        index = int(index)
        counter = self._state["state"]["counter"]
        counter[2] = index & 0xFFFF_FFFF_FFFF_FFFF
        counter[3] = index >> 64
        self._bitgen.state = self._state
        return self._rng

    def draw(self, review_index: int) -> ChannelState:
        """Fresh i.i.d. gains for every link; same index -> same state."""
        if review_index < 0:
            raise ValueError("review index must be >= 0")
        if self._fixed_rates is not None:
            return ChannelState(self.links, self.mean_gain.copy(), self._fixed_rates.copy(), self.positions)
        # the samplers' own arithmetic on one standard exponential draw per
        # link: exponential(mean) is mean * e, rayleigh(scale) is
        # scale * sqrt(2 e); the same bits, without the per-element calls
        e = self._seek(review_index).standard_exponential(len(self.links))
        if self.gain_model == "power":
            gains = e * self.mean_gain
        else:
            gains = self._rayleigh_scale * np.sqrt(2.0 * e)
        gains = np.minimum(gains, self.gain_cap)
        return ChannelState(self.links, gains, achievable_rate(gains, self.sigma2), self.positions)


class ArrivalProcess:
    """Independent Poisson packet arrivals per (source node, flow), per slot.

    Counts are generated in fixed blocks of slots keyed by block index, so a
    slot's draw is a pure function of (seed, stream, slot) -- independent of
    the order in which slots are queried and of anything the controller does.
    """

    _BLOCK = 512

    def __init__(self, sources, rates, seed: int = 0):
        self.sources: tuple[tuple[int, int], ...] = tuple((int(i), int(f)) for i, f in sources)
        self.rates = np.asarray(rates, dtype=float)
        if self.rates.shape != (len(self.sources),):
            raise ValueError("one rate per (source, flow) required")
        if np.any(self.rates < 0):
            raise ValueError("arrival rates must be >= 0")
        self._key = _philox_key(seed, ARRIVAL_STREAM)
        self._block_index = -1
        self._block: Optional[np.ndarray] = None

    def draw(self, slot: int) -> np.ndarray:
        """Arrival counts aligned with ``sources``; same slot -> same counts."""
        if slot < 0:
            raise ValueError("slot must be >= 0")
        block, offset = divmod(slot, self._BLOCK)
        if block != self._block_index:
            rng = _rng_at(self._key, block)
            self._block = rng.poisson(self.rates, size=(self._BLOCK, len(self.sources)))
            self._block_index = block
        return self._block[offset]
