"""The Boltzmann gradient follower (BGF) architecture (Sec. 3.3).

The BGF turns the augmented Ising machine into a self-sufficient gradient
follower: every coupling unit carries a charge-pump training circuit, so
the gradient is applied *inside* the substrate, one sample at a time,
without any host involvement beyond streaming data and the final readout.
The effective algorithm differs from textbook CD-k in exactly the three
ways the paper enumerates after Eq. 12:

1. **Mid-step updates** — the positive-phase sample is taken under W^t and
   immediately applied, producing W^(t+1/2) under which the negative-phase
   sample is then taken.
2. **Hardware non-linearity** — the increment passes through the charge
   pump's ``f_ij(.)`` (saturation toward the weight rails, per-unit
   variation, update noise), modelled by
   :class:`~repro.analog.charge_pump.ChargePumpUpdater`.
3. **Effective minibatch of 1** — each sample updates the weights directly,
   with a correspondingly smaller step size, and ``p`` persistent particles
   provide the negative-phase chains (PCD-style persistence).

``BoltzmannGradientFollower`` is the machine; ``BGFTrainer`` adapts it to
the common ``train(rbm, data, epochs=...)`` interface: it loads the RBM's
initial parameters, runs the in-hardware training, then reads the trained
weights back out through the ADCs into the RBM object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analog.charge_pump import ChargePumpUpdater
from repro.analog.converters import AnalogToDigitalConverter
from repro.analog.noise import NoiseConfig
from repro.config.specs import (
    ComputeSpec,
    NoiseSpec,
    SubstrateSpec,
    TrainerSpec,
    check_spec,
    compute_dtype,
)
from repro.core.host import HostStatistics
from repro.ising.bipartite import BipartiteIsingSubstrate
from repro.rbm.rbm import BernoulliRBM, TrainingHistory
from repro.utils.numerics import bernoulli_sample
from repro.utils.rng import SeedLike, as_rng, spawn_rngs
from repro.utils.validation import ValidationError, check_array, check_positive


@dataclass(frozen=True)
class BGFConfig:
    """Operating parameters of the Boltzmann gradient follower.

    Attributes
    ----------
    step_size:
        Charge-pump step per qualifying sample (the minibatch-1 learning
        rate; the paper notes it should be roughly ``alpha / batch_size`` of
        the software configuration).
    n_particles:
        Number of persistent negative-phase particles ``p``.
    anneal_steps:
        Substrate evolution steps per negative phase (the "annealing"
        trajectory length, playing the role of CD-k's k).
    weight_range:
        Representable coupling range of the gate voltage.
    saturation:
        Whether the charge pump's f_ij saturation non-linearity is applied.
    readout_bits:
        ADC resolution for the final weight readout (8 in the paper);
        ``None`` disables readout quantization.
    """

    step_size: float = 2e-3
    n_particles: int = 8
    anneal_steps: int = 2
    weight_range: tuple = (-4.0, 4.0)
    saturation: bool = True
    readout_bits: Optional[int] = 8

    def __post_init__(self) -> None:
        check_positive(self.step_size, name="step_size")
        if self.n_particles < 1:
            raise ValidationError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.anneal_steps < 1:
            raise ValidationError(f"anneal_steps must be >= 1, got {self.anneal_steps}")
        if self.weight_range[1] <= self.weight_range[0]:
            raise ValidationError("weight_range must be increasing")
        if self.readout_bits is not None and self.readout_bits < 1:
            raise ValidationError("readout_bits must be >= 1 or None")


class BoltzmannGradientFollower:
    """The BGF machine: in-substrate sampling *and* in-substrate learning.

    Parameters
    ----------
    n_visible, n_hidden:
        Coupling-array dimensions.
    config:
        BGF operating parameters.
    noise_config:
        Analog noise/variation operating point; it affects both the
        sampling path (through the substrate) and the charge-pump updates.
    """

    def __init__(
        self,
        n_visible: int,
        n_hidden: int,
        *,
        config: Optional[BGFConfig] = None,
        noise_config: Optional[NoiseConfig] = None,
        sigmoid_gain: float = 1.0,
        input_bits: Optional[int] = 8,
        rng: SeedLike = None,
        fast_path: bool = True,
        dtype: "str" = "float64",
    ):
        self.config = config if config is not None else BGFConfig()
        self.noise_config = noise_config if noise_config is not None else NoiseConfig()
        self.fast_path = bool(fast_path)
        streams = spawn_rngs(rng, 4)
        # ``dtype`` selects the substrate precision tier: settles and latch
        # draws run in float32 when requested, while the charge pumps edit
        # the (tier-dtype) coupling array in place with float64 step math —
        # the update law itself is not precision-tiered.
        self.substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(
                n_visible=n_visible,
                n_hidden=n_hidden,
                sigmoid_gain=sigmoid_gain,
                input_bits=input_bits,
                noise=NoiseSpec.from_noise_config(self.noise_config),
                compute=ComputeSpec(dtype=dtype, fast_path=fast_path),
            ),
            rng=streams[0],
        )
        self.weight_pump = ChargePumpUpdater(
            (n_visible, n_hidden),
            step_size=self.config.step_size,
            weight_range=self.config.weight_range,
            saturation=self.config.saturation,
            variation_rms=self.noise_config.variation_rms,
            noise_rms=self.noise_config.noise_rms,
            rng=streams[1],
        )
        self.visible_bias_pump = ChargePumpUpdater(
            (n_visible, 1),
            step_size=self.config.step_size,
            weight_range=self.config.weight_range,
            saturation=self.config.saturation,
            variation_rms=self.noise_config.variation_rms,
            noise_rms=self.noise_config.noise_rms,
            rng=streams[2],
        )
        self.hidden_bias_pump = ChargePumpUpdater(
            (n_hidden, 1),
            step_size=self.config.step_size,
            weight_range=self.config.weight_range,
            saturation=self.config.saturation,
            variation_rms=self.noise_config.variation_rms,
            noise_rms=self.noise_config.noise_rms,
            rng=streams[3],
        )
        self._rng = as_rng(streams[0])
        self.readout_adc = (
            AnalogToDigitalConverter(
                self.config.readout_bits, value_range=self.config.weight_range
            )
            if self.config.readout_bits
            else None
        )
        self.host = HostStatistics()
        self._particles: Optional[np.ndarray] = None
        self._particle_cursor = 0

    # ------------------------------------------------------------------ #
    @property
    def n_visible(self) -> int:
        return self.substrate.n_visible

    @property
    def n_hidden(self) -> int:
        return self.substrate.n_hidden

    @property
    def particles(self) -> Optional[np.ndarray]:
        """Current hidden states of the persistent particles (copies)."""
        return None if self._particles is None else self._particles.copy()

    def initialize(
        self,
        weights: np.ndarray,
        visible_bias: np.ndarray,
        hidden_bias: np.ndarray,
    ) -> None:
        """Operation step 1: host initializes the weights and biases."""
        lo, hi = self.config.weight_range
        weights = np.clip(
            check_array(weights, name="weights", shape=(self.n_visible, self.n_hidden)),
            lo,
            hi,
        )
        visible_bias = np.clip(
            check_array(visible_bias, name="visible_bias", shape=(self.n_visible,)), lo, hi
        )
        hidden_bias = np.clip(
            check_array(hidden_bias, name="hidden_bias", shape=(self.n_hidden,)), lo, hi
        )
        self.substrate.program(weights, visible_bias, hidden_bias)
        self.host.record_programming()
        self._particles = (
            self._rng.random((self.config.n_particles, self.n_hidden)) < 0.5
        ).astype(np.float64)
        self._particle_cursor = 0

    def refresh_particles(
        self,
        n_steps: int = 1,
        *,
        workers: "int | str | None" = None,
    ) -> None:
        """Advance *all* ``p`` persistent particles through one chain-parallel
        settle batch (``settle_batch``), without touching the weights.

        The learning loop itself is strictly sequential (one particle per
        sample, mid-step updates), but decorrelating the particle pool —
        after initialization, or between epochs — has no such constraint, so
        it can use the substrate's batched kernel: ``n_steps`` settles of the
        whole ``(p, n)`` block as single matmuls — or, with ``workers=k``,
        as ``k`` thread-parallel shards (the multicore layer; see
        :meth:`~repro.ising.bipartite.BipartiteIsingSubstrate.settle_batch`).
        """
        if self._particles is None:
            raise ValidationError("initialize must be called before refresh_particles")
        _, hidden = self.substrate.settle_batch(self._particles, n_steps, workers=workers)
        self._particles = hidden

    # ------------------------------------------------------------------ #
    def _positive_step(self, sample: np.ndarray) -> None:
        """Operation step 3: clamp data, settle hidden, increment W by <v h>_s+.

        Multi-bit visible values (grayscale pixels, scaled ratings, stacked-
        layer activations) gate the charge pump stochastically: the latched
        visible bit is 1 with probability equal to the clamped analog value,
        so the expected weight change matches the analog correlation
        ``v_i * h_j`` without requiring an analog multiplier in every
        coupling unit.
        """
        visible = self.substrate.clamp_visible(np.atleast_2d(sample))
        hidden = self.substrate.sample_hidden_given_visible(visible)
        v_bits = bernoulli_sample(np.clip(visible, 0.0, 1.0), self._rng)[0]
        h_bits = hidden[0]
        correlation = np.outer(v_bits, h_bits)
        self.weight_pump.apply(self.substrate.weights, correlation, positive=True)
        self.visible_bias_pump.apply_bias(
            self.substrate.visible_bias, v_bits, positive=True
        )
        self.hidden_bias_pump.apply_bias(
            self.substrate.hidden_bias, h_bits, positive=True
        )
        # The pumps edit the coupling array in place behind the substrate's
        # back; drop its cached effective weights.
        self.substrate.invalidate_effective_weights()

    def _negative_step(self) -> None:
        """Operation steps 4-5: load a particle, anneal, decrement W by <v h>_s-."""
        assert self._particles is not None
        index = self._particle_cursor % self.config.n_particles
        self._particle_cursor += 1
        hidden_init = self._particles[index : index + 1]
        visible, hidden = self.substrate.gibbs_chain(hidden_init, self.config.anneal_steps)
        # Persist the particle (Tieleman 2008-style) for the next pass.
        self._particles[index] = hidden[0]

        v_bits = visible[0]
        h_bits = hidden[0]
        correlation = np.outer(v_bits, h_bits)
        self.weight_pump.apply(self.substrate.weights, correlation, positive=False)
        self.visible_bias_pump.apply_bias(
            self.substrate.visible_bias, v_bits, positive=False
        )
        self.hidden_bias_pump.apply_bias(
            self.substrate.hidden_bias, h_bits, positive=False
        )
        self.substrate.invalidate_effective_weights()

    # ------------------------------------------------------------------ #
    # Streaming fast path (chunked kernel behind :meth:`run`)
    # ------------------------------------------------------------------ #
    def _positive_step_fast(self, clamped_row: np.ndarray, v_bits: np.ndarray) -> None:
        """Trusted positive phase: ``clamped_row`` is already DTC-converted and
        ``v_bits`` pre-drawn, so only the settle and the pump updates remain."""
        hidden = self.substrate._sample_hidden_trusted(clamped_row)
        h_bits = hidden[0]
        self.weight_pump.apply_sample(self.substrate.weights, v_bits, h_bits, positive=True)
        self.visible_bias_pump.apply_bias_sample(
            self.substrate.visible_bias, v_bits, positive=True
        )
        self.hidden_bias_pump.apply_bias_sample(
            self.substrate.hidden_bias, h_bits, positive=True
        )
        self.substrate.invalidate_effective_weights()

    def _negative_step_fast(self) -> None:
        """Trusted negative phase: legacy semantics minus per-step validation."""
        index = self._particle_cursor % self.config.n_particles
        self._particle_cursor += 1
        hidden_init = self._particles[index : index + 1]
        visible, hidden = self.substrate.gibbs_chain(hidden_init, self.config.anneal_steps)
        self._particles[index] = hidden[0]

        v_bits = visible[0]
        h_bits = hidden[0]
        self.weight_pump.apply_sample(self.substrate.weights, v_bits, h_bits, positive=False)
        self.visible_bias_pump.apply_bias_sample(
            self.substrate.visible_bias, v_bits, positive=False
        )
        self.hidden_bias_pump.apply_bias_sample(
            self.substrate.hidden_bias, h_bits, positive=False
        )
        self.substrate.invalidate_effective_weights()

    def _stream_chunk(self, chunk: np.ndarray) -> None:
        """Stream one chunk of samples through the sequential learning loop.

        The clamp/DTC conversion and the positive-phase Bernoulli gating
        draws are batched over the whole chunk (both are elementwise and
        weight-independent, and the gating draws are the only consumers of
        the machine's stream inside the loop, so a single ``(chunk, m)`` draw
        reproduces the per-sample draws exactly).  The settles and
        charge-pump updates stay strictly sequential, preserving the paper's
        mid-step-update semantics: sample ``i``'s positive phase lands before
        its negative phase, which lands before sample ``i+1`` is seen.
        """
        clamped = self.substrate.clamp_visible(chunk)
        v_bits_all = (
            self._rng.random(clamped.shape) < np.clip(clamped, 0.0, 1.0)
        ).astype(np.float64)
        self.host.record_sample_streamed(chunk.shape[0])
        for i in range(chunk.shape[0]):
            self._positive_step_fast(clamped[i : i + 1], v_bits_all[i])
            self._negative_step_fast()

    def learn_sample(self, sample: np.ndarray) -> None:
        """One complete learning step (Eq. 12): positive then negative phase.

        The positive-phase update lands before the negative phase runs, so
        the negative sample is taken under W^(t+1/2) — the "mid-step update"
        divergence from textbook CD the paper calls out.
        """
        if self._particles is None:
            raise ValidationError("initialize must be called before learn_sample")
        sample = np.asarray(sample, dtype=float).reshape(-1)
        if sample.shape[0] != self.n_visible:
            raise ValidationError(
                f"sample has {sample.shape[0]} features; machine has {self.n_visible} visible nodes"
            )
        self.host.record_sample_streamed()
        self._positive_step(sample)
        self._negative_step()

    def run(
        self,
        data: np.ndarray,
        *,
        epochs: int = 1,
        shuffle: bool = True,
        chunk_size: int = 64,
    ) -> None:
        """Operation step 6: stream the training set for ``epochs`` passes.

        On the fast path the stream is processed in chunks of ``chunk_size``
        samples: clamp/DTC conversion and Bernoulli gating draws are batched
        per chunk while the learning itself stays strictly sequential (see
        :meth:`_stream_chunk`), reproducing the legacy per-sample loop
        bit-for-bit under a fixed seed.
        """
        data = check_array(data, name="data", ndim=2)
        if data.shape[1] != self.n_visible:
            raise ValidationError(
                f"data has {data.shape[1]} features; machine has {self.n_visible} visible nodes"
            )
        if epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {epochs}")
        if chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        dtc = self.substrate.input_dtc
        # A DTC with code-dependent noise draws from its own stream per
        # conversion, so batching would reorder those draws; fall back to the
        # per-sample loop there to keep seeded runs reproducible.
        fast = self.fast_path and (dtc is None or dtc.nonlinearity_rms == 0.0)
        if fast and self._particles is None:
            raise ValidationError("initialize must be called before run")
        n = data.shape[0]
        for _ in range(epochs):
            order = self._rng.permutation(n) if shuffle else np.arange(n)
            if fast:
                for start in range(0, n, chunk_size):
                    self._stream_chunk(data[order[start : start + chunk_size]])
            else:
                for idx in order:
                    self.learn_sample(data[idx])

    def read_out(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Final step: ADC readout of the trained weights and biases."""
        weights, visible_bias, hidden_bias = self.substrate.read_parameters()
        if self.readout_adc is not None:
            weights = self.readout_adc.read_columnwise(weights)
            visible_bias = self.readout_adc.read(visible_bias)
            hidden_bias = self.readout_adc.read(hidden_bias)
        self.host.record_final_readout()
        return weights, visible_bias, hidden_bias


class BGFTrainer:
    """Adapter exposing the BGF machine through the common trainer interface.

    Parameters
    ----------
    spec:
        Typed configuration (:class:`~repro.config.TrainerSpec` with
        ``kind="bgf"``; see :meth:`~repro.config.TrainerSpec.bgf`).  It
        derives the :class:`BGFConfig`: ``cd_k`` is ``anneal_steps``,
        ``sampler.chains`` is ``n_particles``, and ``step_size=None``
        derives ``learning_rate / reference_batch_size`` — the paper's
        guidance that a minibatch of 1 needs a roughly ``batch_size``-times
        smaller step.  ``sampler.burn_in`` settles the whole persistent
        pool that many chain-parallel steps right after initialization (0
        skips the refresh).  ``compute.workers`` shards only that refresh:
        the learning loop is sequential by algorithm (the paper's mid-step
        updates serialize it).  ``compute.dtype`` is the lazily-created
        machine's precision tier, ``noise`` its operating point.
    rng, callback:
        Trainer generator and optional ``callback(epoch, rbm)`` hook.
    config:
        Expert :class:`BGFConfig` for the knobs the spec does not model
        (``weight_range``, ``saturation``, ``readout_bits``).  It is
        authoritative: the recorded spec's ``step_size``, ``cd_k`` and
        ``sampler.chains`` are reconciled to it.
    """

    def __init__(
        self,
        spec: TrainerSpec,
        *,
        rng: SeedLike = None,
        callback=None,
        config: Optional[BGFConfig] = None,
    ):
        check_spec(spec, TrainerSpec, "BGFTrainer", kind="bgf")
        if config is None:
            config = BGFConfig(
                step_size=(
                    spec.step_size
                    if spec.step_size is not None
                    else spec.learning_rate / spec.reference_batch_size
                ),
                n_particles=spec.sampler.chains,
                anneal_steps=spec.cd_k,
            )
        else:
            spec = spec.replace(
                step_size=config.step_size,
                cd_k=config.anneal_steps,
                sampler=spec.sampler.replace(chains=config.n_particles),
            )
        self.spec = spec
        self.config = config
        self.particle_burn_in = spec.sampler.burn_in
        self.workers = spec.compute.workers
        self.noise_config = None if spec.noise.is_ideal else spec.noise.to_noise_config()
        self._rng = as_rng(rng)
        self.callback = callback
        self.fast_path = spec.compute.fast_path
        # The kernels' compute dtype; the machine below receives the tier
        # *label* (spec.compute.dtype), so the qint8 tier survives the trip.
        self.dtype = compute_dtype(spec.compute.dtype)
        self.machine: Optional[BoltzmannGradientFollower] = None

    def _ensure_machine(self, rbm: BernoulliRBM) -> BoltzmannGradientFollower:
        if self.machine is None or (
            self.machine.n_visible,
            self.machine.n_hidden,
        ) != (rbm.n_visible, rbm.n_hidden):
            self.machine = BoltzmannGradientFollower(
                rbm.n_visible,
                rbm.n_hidden,
                config=self.config,
                noise_config=self.noise_config,
                rng=self._rng,
                fast_path=self.fast_path,
                dtype=self.spec.compute.dtype,
            )
        return self.machine

    def train(
        self,
        rbm: BernoulliRBM,
        data: np.ndarray,
        *,
        epochs: int = 10,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Train ``rbm`` entirely inside the (simulated) Ising substrate.

        The RBM's parameters are loaded into the machine once, the machine
        streams the data for ``epochs`` passes, and the trained weights are
        read back (through the ADC model) into the RBM.  The per-epoch
        readout used for the history/callback is *not* part of the hardware
        algorithm — it is instrumentation, matching how the paper evaluates
        log-probability trajectories offline.
        """
        data = check_array(data, name="data", ndim=2)
        if data.shape[1] != rbm.n_visible:
            raise ValidationError(
                f"data has {data.shape[1]} features but the RBM has "
                f"{rbm.n_visible} visible units"
            )
        if epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {epochs}")
        machine = self._ensure_machine(rbm)
        machine.initialize(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        if self.particle_burn_in:
            # Decorrelate the freshly-drawn particle pool before learning;
            # the default of 0 keeps runs bit-identical to the no-burn-in
            # implementation (the refresh draws from the substrate streams).
            machine.refresh_particles(self.particle_burn_in, workers=self.workers)

        history = TrainingHistory()
        for epoch in range(epochs):
            machine.run(data, epochs=1, shuffle=shuffle)
            weights, visible_bias, hidden_bias = machine.substrate.read_parameters()
            rbm.set_parameters(weights, visible_bias, hidden_bias)
            recon = rbm.reconstruct(data)
            history.record(epoch, float(np.mean((data - recon) ** 2)))
            if self.callback is not None:
                self.callback(epoch, rbm)

        weights, visible_bias, hidden_bias = machine.read_out()
        rbm.set_parameters(weights, visible_bias, hidden_bias)
        return history
