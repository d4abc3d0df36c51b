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

from typing import Optional

import numpy as np

from repro.analog.charge_pump import ChargePumpUpdater
from repro.analog.converters import AnalogToDigitalConverter
from repro.config.specs import ComputeSpec, SubstrateSpec, TrainerSpec, check_spec
from repro.core.host import HostStatistics
from repro.ising.bipartite import (
    BipartiteIsingSubstrate,
    _settle_eval_kernel,
    _settle_loop_kernel,
)
from repro.rbm.rbm import (
    BernoulliRBM,
    TrainingHistory,
    check_training_rows,
    run_epochs,
)
from repro.utils.numerics import is_sparse
from repro.utils.rng import SeedLike, as_rng, spawn_rngs
from repro.utils.validation import ValidationError, check_array

#: Representable coupling range of the gate voltage: the charge pumps'
#: rails and the readout ADCs' full scale.
WEIGHT_RANGE = (-4.0, 4.0)

#: ADC resolution of the final weight readout (8 bits in the paper).
READOUT_BITS = 8

#: Samples per streamed chunk: the clamp/DTC conversion and the gating draws
#: are batched over a chunk, the learning stays one sample at a time.
CHUNK_SIZE = 64


def _reject_sparse(data) -> None:
    """The BGF streams dense samples: name a sparse input before anything
    canonicalizes it."""
    if is_sparse(data):
        raise ValidationError(
            f"the BGF streams dense samples; got a scipy-sparse "
            f"{type(data).__name__} — densify it with .toarray() first"
        )


class BoltzmannGradientFollower:
    """The BGF machine: in-substrate sampling *and* in-substrate learning.

    The array holds the weights and biases as the paper wires a bias
    (Fig. 4): one ``(n_visible + 1, n_hidden + 1)`` buffer whose last
    column and row are the couplings of the visible and hidden nodes to an
    always-on spin (see :meth:`initialize`).  Each phase of a learning step
    pulses every coupling unit of it once: one trusted
    ``weight_pump.apply_sample`` on the buffer, gated by ``[v, 1]`` and
    ``[h, 1]``, with the bias units drawing their update noise from the
    visible- and hidden-bias pumps' own streams.

    Parameters
    ----------
    spec:
        Typed configuration (:class:`~repro.config.TrainerSpec` with
        ``kind="bgf"``; see :meth:`~repro.config.TrainerSpec.bgf`).  The
        charge-pump step per qualifying sample is
        ``learning_rate / reference_batch_size`` — the paper's guidance
        that a minibatch of 1 needs a roughly ``batch_size``-times smaller
        step.  ``sampler.chains`` is the
        number of persistent particles ``p``, ``cd_k`` the anneal steps
        per negative phase (the trajectory length playing CD-k's k),
        ``noise`` the analog operating point of both the sampling path
        (through the substrate) and the charge-pump updates, and
        ``compute.dtype`` the substrate's precision tier.  The pumps
        saturate toward the :data:`WEIGHT_RANGE` rails and the weights are
        read out through :data:`READOUT_BITS`-bit ADCs.
    n_visible, n_hidden:
        Coupling-array dimensions.
    rng:
        Master seed; the substrate and the three pumps (the weights', the
        bias column's and the bias row's) draw from streams spawned from it.
    """

    def __init__(
        self,
        spec: TrainerSpec,
        n_visible: int,
        n_hidden: int,
        *,
        rng: SeedLike = None,
    ):
        check_spec(spec, TrainerSpec, "BoltzmannGradientFollower", kind="bgf")
        self.spec = spec
        self.step_size = spec.learning_rate / spec.reference_batch_size
        noise = spec.noise
        streams = spawn_rngs(rng, 4)
        # ``compute.dtype`` selects the substrate precision tier: settles and
        # latch draws run in float32 when requested, while the pump pulse
        # edits the (tier-dtype) buffer in place with float64 step math —
        # the update law itself is not precision-tiered.
        self.substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(
                n_visible=n_visible,
                n_hidden=n_hidden,
                noise=noise,
                compute=ComputeSpec(dtype=spec.compute.dtype),
            ),
            rng=streams[0],
        )
        law = dict(
            step_size=self.step_size,
            weight_range=WEIGHT_RANGE,
            variation_rms=noise.variation_rms,
            noise_rms=noise.noise_rms,
        )
        self.visible_bias_pump, self.hidden_bias_pump = (
            ChargePumpUpdater((size, 1), rng=stream, **law)
            for size, stream in ((n_visible, streams[2]), (n_hidden, streams[3]))
        )
        self.weight_pump = ChargePumpUpdater(
            (n_visible, n_hidden),
            rng=streams[1],
            bias_pumps=(self.visible_bias_pump, self.hidden_bias_pump),
            **law,
        )
        self._rng = as_rng(streams[0])
        self.readout_adc = AnalogToDigitalConverter(READOUT_BITS, value_range=WEIGHT_RANGE)
        self.host = HostStatistics()
        # The augmented coupling buffer (see initialize) and the pump gates
        # ``[v, 1]`` and ``[h, 1]`` of its always-on spins, float64 like the
        # steps they gate.
        self._buffer: Optional[np.ndarray] = None
        self._gates = tuple(
            np.ones(size + 1, dtype=np.float64) for size in (n_visible, n_hidden)
        )
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
        """Operation step 1: host initializes the weights and biases.

        The array holds them as the paper wires a bias (Fig. 4): one
        ``(n_visible + 1, n_hidden + 1)`` buffer in the substrate's dtype,
        the weights in its ``(n_visible, n_hidden)`` block, the visible
        biases in its last column (couplings to an always-on hidden spin)
        and the hidden biases in its last row (couplings to an always-on
        visible spin); the corner stays 0.  The substrate adopts views of
        it, so each phase's single pump pulse on the buffer is what the
        next settle sees.
        """
        lo, hi = WEIGHT_RANGE
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
        m, n = self.n_visible, self.n_hidden
        buffer = np.zeros((m + 1, n + 1), dtype=self.substrate.dtype)
        buffer[:m, :n] = weights
        buffer[:m, n] = visible_bias
        buffer[m, :n] = hidden_bias
        self._buffer = buffer
        self.substrate.program_trusted(buffer[:m, :n], buffer[:m, n], buffer[m, :n])
        self.host.record_programming()
        self._particles = (
            self._rng.random((self.spec.sampler.chains, self.n_hidden)) < 0.5
        ).astype(self.substrate.dtype)
        self._particle_cursor = 0

    # ------------------------------------------------------------------ #
    # Streaming kernel (chunked, behind :meth:`run`)
    # ------------------------------------------------------------------ #
    def _bgf_sample_step(self, clamped_row, v_bits, kern, static) -> None:
        """One sample's learning step (Eq. 12), given the DTC-converted
        ``(1, m)`` clamp and its pre-drawn gating bits.

        Positive phase (operation step 3): settle the hidden nodes on the
        clamp and increment W by ``<v h>``; the positive update lands
        before the negative phase runs, so the negative sample is taken
        under W^(t+1/2) — the "mid-step update" divergence from textbook
        CD the paper calls out.  Negative phase (steps 4-5): load the next
        particle round-robin, anneal it, persist it and decrement W.

        The settles run the substrate's own evaluation kernels on its
        circuits with the chunk's ``kern`` snapshot; ``static`` is
        the chunk's coupling pair when the pumps' in-place edits keep it
        current, ``None`` when each update invalidates it.
        """
        sub = self.substrate
        ctx = sub._circuits
        pair = sub._static_pair() if static is None else static
        hidden = _settle_eval_kernel(clamped_row, pair, ctx, kern, hidden_side=True)
        self._pump_sample(v_bits, hidden[0], positive=True, invalidate=static is None)

        index = self._particle_cursor % self.spec.sampler.chains
        self._particle_cursor += 1
        pair = sub._static_pair() if static is None else static
        visible, hidden = _settle_loop_kernel(
            self._particles[index : index + 1], self.spec.cd_k, pair, ctx, kern
        )
        # Persist the particle (Tieleman 2008-style) for the next pass.
        self._particles[index] = hidden[0]
        self._pump_sample(visible[0], hidden[0], positive=False, invalidate=static is None)

    def _pump_sample(self, v_bits, h_bits, *, positive: bool, invalidate: bool) -> None:
        """One phase's charge-pump pulse from raw latch bits: a single
        trusted update of the whole augmented buffer, gated by ``[v, 1]``
        and ``[h, 1]``, so the weights and both bias vectors move at once
        (each unit as its own pump's update would move it)."""
        v_gate, h_gate = self._gates
        v_gate[:-1] = v_bits
        h_gate[:-1] = h_bits
        self.weight_pump.apply_sample(self._buffer, v_gate, h_gate, positive=positive)
        if invalidate:
            self.substrate.invalidate_effective_weights()

    def _stream_chunk(self, chunk: np.ndarray) -> None:
        """Stream one chunk of samples through the sequential learning loop.

        Multi-bit visible values (grayscale pixels, scaled ratings, stacked-
        layer activations) gate the charge pump stochastically: the latched
        visible bit is 1 with probability equal to the clamped analog value,
        so the expected weight change matches the analog correlation
        ``v_i * h_j`` without requiring an analog multiplier in every
        coupling unit.  The clamp/DTC conversion and these gating
        draws are batched over the whole chunk (both are elementwise and
        weight-independent, and the gating draws are the only consumers of
        the machine's stream inside the loop, so a single ``(chunk, m)`` draw
        reproduces the per-sample draws exactly).  The settles and
        charge-pump updates stay strictly sequential, preserving the paper's
        mid-step-update semantics: sample ``i``'s positive phase lands before
        its negative phase, which lands before sample ``i+1`` is seen.
        """
        sub = self.substrate
        clamped = sub.clamp_visible(chunk)
        v_bits_all = (
            self._rng.random(clamped.shape) < np.clip(clamped, 0.0, 1.0)
        ).astype(np.float64)
        self.host.record_sample_streamed(chunk.shape[0])
        kern = sub._kernel()
        # The ideal-variation float tiers cache the coupling array itself, so
        # the in-place pump edits keep it current; the variation corner
        # caches a derived copy that each update must invalidate.
        static = sub._static_pair()
        if static[0] is not sub.weights:
            static = None
        for i in range(chunk.shape[0]):
            self._bgf_sample_step(clamped[i : i + 1], v_bits_all[i], kern, static)

    def run(self, data: np.ndarray, *, shuffle: bool = True) -> None:
        """Operation step 6: stream the training set once (one epoch).

        Requires :meth:`initialize`; ``data`` is a non-empty, finite, dense
        ``(rows, n_visible)`` matrix.  The stream is processed in chunks of
        :data:`CHUNK_SIZE` samples: clamp/DTC conversion and Bernoulli gating
        draws are batched per chunk while the learning itself stays strictly
        sequential, one :meth:`_bgf_sample_step` per sample (see
        :meth:`_stream_chunk`), so the run equals a per-sample loop under a
        fixed seed.  ``run(x[None], shuffle=False)`` is one learning step on
        the sample ``x``, bit-identical to running its positive phase
        (clamp, settle, pump) and then its negative phase (anneal a
        particle, pump) as separate per-sample calls.
        """
        _reject_sparse(data)
        data = check_training_rows(data, self.n_visible)
        if self._particles is None:
            raise ValidationError("initialize must be called before run")
        n = data.shape[0]
        order = self._rng.permutation(n) if shuffle else np.arange(n)
        for start in range(0, n, CHUNK_SIZE):
            self._stream_chunk(data[order[start : start + CHUNK_SIZE]])

    def read_out(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Final step: ADC readout of the trained weights and biases."""
        weights, visible_bias, hidden_bias = (
            self.readout_adc.read(values) for values in self.substrate.read_parameters()
        )
        self.host.record_final_readout()
        return weights, visible_bias, hidden_bias


class BGFTrainer:
    """Adapter exposing the BGF machine through the common trainer interface.

    Parameters
    ----------
    spec:
        Typed configuration (:class:`~repro.config.TrainerSpec` with
        ``kind="bgf"``; see :meth:`~repro.config.TrainerSpec.bgf`), from
        which the lazily-created :class:`BoltzmannGradientFollower` is
        built.  The learning loop is sequential by algorithm (the paper's
        mid-step updates serialize it).
    rng, callback:
        Trainer generator and optional ``callback(epoch, rbm)`` hook.
    """

    def __init__(
        self,
        spec: TrainerSpec,
        *,
        rng: SeedLike = None,
        callback=None,
    ):
        check_spec(spec, TrainerSpec, "BGFTrainer", kind="bgf")
        self.spec = spec
        self._rng = as_rng(rng)
        self.callback = callback
        self.machine: Optional[BoltzmannGradientFollower] = None

    def _ensure_machine(self, rbm: BernoulliRBM) -> BoltzmannGradientFollower:
        if self.machine is None or (
            self.machine.n_visible,
            self.machine.n_hidden,
        ) != (rbm.n_visible, rbm.n_hidden):
            self.machine = BoltzmannGradientFollower(
                self.spec, rbm.n_visible, rbm.n_hidden, rng=self._rng
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
        _reject_sparse(data)

        def setup() -> None:
            machine = self._ensure_machine(rbm)
            machine.initialize(rbm.weights, rbm.visible_bias, rbm.hidden_bias)

        def one_pass(data) -> None:
            self.machine.run(data, shuffle=shuffle)
            rbm.set_parameters(*self.machine.substrate.read_parameters())

        history = run_epochs(
            rbm, data, epochs, one_pass, setup=setup, callback=self.callback
        )
        rbm.set_parameters(*self.machine.read_out())
        return history
