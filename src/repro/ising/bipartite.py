"""Bipartite (RBM-shaped) Ising substrate with clamping and analog sampling.

Figure 3 of the paper modifies the BRIM layout for the RBM's bipartite
graph: visible nodes sit on one edge of the coupling mesh, hidden nodes on
the other, and a coupling unit exists only between a visible and a hidden
node — an ``m x n`` array instead of ``(m+n)^2`` (the paper's example: a
784x200 RBM needs ~6x fewer coupling units than an all-to-all layout).

Each node is augmented with (Appendix B): a current-summing phase, a
sigmoid unit, a thermal-noise RNG plus dynamic comparator for probabilistic
latching, and a clamp unit driven through a DTC for multi-bit inputs.  This
class composes those behavioral models into the substrate operations the
Gibbs-sampler and Boltzmann-gradient-follower architectures invoke:

* ``program(...)``    — write the coupling weights and biases,
* ``sample_hidden_given_visible`` — one clamped settle-and-latch, i.e. one
  conditional sampling step (the positive phase),
* ``settle_batch(...)`` / ``gibbs_chain(...)`` — k alternating settles (the
  hardware realization of the CD-k random walk / the annealing trajectory
  of a negative phase), all through one settle loop,
  :func:`_settle_loop_kernel`.

The DTC is a fixed quantizer on the clamp: it is the identity on the
binary visibles a chain latches, so chains never re-clamp.  Dynamic noise
and static variation enter through a :class:`NoiseModel`, exactly as in
the paper's Sec. 4.5 robustness study.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.analog.converters import DigitalToTimeConverter
from repro.analog.noise import NoiseModel
from repro.analog.rng import StochasticNeuronSampler
from repro.analog.sigmoid_unit import SigmoidUnit
from repro.config.specs import SubstrateSpec, check_spec
from repro.utils.numerics import (
    as_sparse_rows,
    fused_sigmoid_bernoulli,
    is_sparse,
    safe_sparse_dot,
    sigmoid_kernel,
)
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import ValidationError, check_array, check_binary


class _Circuits(NamedTuple):
    """The sampling circuits a settle draws from: the substrate's two
    latches and, in a dynamic-noise corner, its noise model (``None``
    skips the coupling and node noise)."""

    hidden_sampler: StochasticNeuronSampler
    visible_sampler: StochasticNeuronSampler
    noise_model: Optional[NoiseModel]


class _SettleInputs(NamedTuple):
    """Per-call snapshot of the settle evaluation's static inputs.

    Everything the settle loop needs beyond the coupling matrix and the
    circuits: biases, the sigmoid units' per-unit gains (``None`` for an
    ideal unit), the precision tier, and the fused-latch eligibility.
    Built once per settle call, since reprogramming swaps the bias arrays.
    """

    hidden_bias: np.ndarray
    visible_bias: np.ndarray
    hidden_gains: Optional[np.ndarray]
    visible_gains: Optional[np.ndarray]
    dtype: np.dtype
    fused_sampling: bool


def _field_kernel(
    state: np.ndarray,
    coupling: np.ndarray,
    bias: np.ndarray,
    noise_model: Optional[NoiseModel],
) -> np.ndarray:
    """Field kernel: summed currents plus (conditional) node noise.

    Single source shared by :meth:`BipartiteIsingSubstrate.hidden_field`
    and the settle evaluation, so they cannot drift apart.
    Runs in the coupling's precision tier; ``noise_model`` selects whose
    stream the node noise draws from, ``None`` skips it (the noise-free
    corner).  The node noise scales with the field's standard deviation,
    computed as ``np.std`` computes it (the same reductions and casts)
    without its dispatch."""
    if state.dtype != coupling.dtype:
        state = state.astype(coupling.dtype)
    # safe_sparse_dot falls through to the plain operator for dense
    # states (bit-identical); CSR clamp states run the sparse matmul and
    # densify here, at the field — the Bernoulli-draw boundary.
    field = safe_sparse_dot(state, coupling)
    field += bias
    if noise_model is not None:
        count = np.intp(field.size)
        mean = np.add.reduce(field, axis=None, keepdims=True)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        deviation = np.subtract(field, mean)
        np.square(deviation, out=deviation)
        variance = np.add.reduce(deviation, axis=None)
        std = np.sqrt(variance.dtype.type(variance / count))
        field += noise_model.node_noise(field.shape, scale=max(float(std), 1.0))
    return field


def _settle_eval_kernel(
    state: np.ndarray,
    static_pair: Tuple[np.ndarray, np.ndarray],
    ctx: _Circuits,
    kern: _SettleInputs,
    *,
    hidden_side: bool,
) -> np.ndarray:
    """One settle-and-latch: the single evaluation kernel behind the
    trusted samplers, the chain settle and the BGF's learning step.

    The per-evaluation order is fixed — dynamic coupling draw, field
    (matmul + bias + node noise), latch — on ``ctx``'s circuits.  The node
    circuit runs inline: the unit gain, the logistic (:func:`~repro.utils.numerics.sigmoid_kernel`) and
    the comparator against a uniform reference drawn from the sampler's
    stream, in the probability's dtype, latched straight into the tier
    dtype; the float32 tier's ideal units latch through the fused
    sigmoid→compare instead.
    """
    noise_model = ctx.noise_model
    if noise_model is None:
        coupling = static_pair[0] if hidden_side else static_pair[1]
    else:
        coupling = np.asarray(noise_model.apply_dynamic(static_pair[0]), dtype=kern.dtype)
        if not hidden_side:
            coupling = coupling.T
    if hidden_side:
        bias, sampler, gains = kern.hidden_bias, ctx.hidden_sampler, kern.hidden_gains
    else:
        bias, sampler, gains = kern.visible_bias, ctx.visible_sampler, kern.visible_gains
    field = _field_kernel(state, coupling, bias, noise_model)
    if kern.fused_sampling:
        uniforms = sampler._rng.random(field.shape, dtype=field.dtype)
        return fused_sigmoid_bernoulli(field, uniforms)
    if gains is not None:
        # The gain mismatch may run in float64; the binary latch lands in
        # the tier exactly, keeping chain states dtype-stable.
        field = gains * field
    probability = sigmoid_kernel(field, out=field)
    # A float64 reference, the probability's dtype: a float32 tier latches
    # here only with its float64 unit gains, so the probability is float64.
    reference = sampler._rng.random(field.shape)
    return np.greater(probability, reference).astype(kern.dtype)


def _settle_loop_kernel(
    hidden: np.ndarray,
    n_steps: int,
    static_pair: Tuple[np.ndarray, np.ndarray],
    ctx: _Circuits,
    kern: _SettleInputs,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance one chain block for ``n_steps`` alternating settles on
    ``ctx``'s circuits."""
    visible = _settle_eval_kernel(hidden, static_pair, ctx, kern, hidden_side=False)
    for _ in range(n_steps - 1):
        hidden = _settle_eval_kernel(visible, static_pair, ctx, kern, hidden_side=True)
        visible = _settle_eval_kernel(hidden, static_pair, ctx, kern, hidden_side=False)
    hidden = _settle_eval_kernel(visible, static_pair, ctx, kern, hidden_side=True)
    return visible, hidden


class BipartiteIsingSubstrate:
    """RBM-shaped Ising machine with per-node probabilistic sampling circuits.

    Parameters
    ----------
    spec:
        Typed configuration (:class:`~repro.config.SubstrateSpec`): array
        dimensions, DTC ``input_bits`` (``None`` disables input
        quantization), the Sec. 4.5 noise operating point, and the compute
        tier.  ``compute.dtype`` selects
        the precision tier: ``"float64"`` keeps the bit-identical pinning
        contract; ``"float32"`` stores the coupling cache, runs every settle
        matmul and draws the comparator references in single precision (in
        the ideal corner latching through the fused sigmoid→compare kernel),
        pinned statistically (``tests/property/test_precision_tiers.py``;
        see the precision policy in ``docs/performance.md``).
    rng:
        Master seed; per-subcircuit streams are spawned from it.

    A substrate is single-owner: one thread drives it at a time.  Its
    effective-coupling cache and its circuits' streams are plain state,
    as the hardware's one node array is; run concurrent chains as rows of
    one :meth:`settle_batch` block, or give each thread its own substrate.
    """

    def __init__(self, spec: SubstrateSpec, *, rng: SeedLike = None):
        check_spec(spec, SubstrateSpec, "BipartiteIsingSubstrate")
        self.spec = spec
        self.n_visible = spec.n_visible
        self.n_hidden = spec.n_hidden
        self.dtype = np.dtype(spec.compute.dtype)
        input_bits = spec.input_bits
        noise = spec.noise

        # Streams 5 and 6 are unused but still spawned: a seed sequence
        # numbers its children in spawn order, so a caller's later spawns
        # from the same generator keep their draws.
        streams = spawn_rngs(rng, 7)
        self.noise_model = NoiseModel(
            noise, (self.n_visible, self.n_hidden), rng=streams[0]
        )
        self.hidden_sigmoid = SigmoidUnit(
            n_units=self.n_hidden,
            gain_variation_rms=noise.variation_rms,
            rng=streams[1],
        )
        self.visible_sigmoid = SigmoidUnit(
            n_units=self.n_visible,
            gain_variation_rms=noise.variation_rms,
            rng=streams[2],
        )
        self.hidden_sampler = StochasticNeuronSampler(self.n_hidden, rng=streams[3])
        self.visible_sampler = StochasticNeuronSampler(self.n_visible, rng=streams[4])
        self.input_dtc = DigitalToTimeConverter(input_bits) if input_bits else None

        self.weights = np.zeros((self.n_visible, self.n_hidden), dtype=self.dtype)
        self.visible_bias = np.zeros(self.n_visible, dtype=self.dtype)
        self.hidden_bias = np.zeros(self.n_hidden, dtype=self.dtype)

        self._has_dynamic = self.noise_model.has_dynamic_noise
        # The fused sigmoid->compare latch is exact only when the sigmoid
        # units are the identity logistic; the variation corner falls back
        # to explicit sigmoid-then-compare (still run in the configured
        # dtype).
        self._fused_sampling = (
            self.dtype == np.float32
            and self.hidden_sigmoid.is_identity
            and self.visible_sigmoid.is_identity
        )
        # Cached (effective, effective.T) pair of the variation-scaled
        # coupling matrix; rebuilt lazily after (re)programming or an
        # explicit invalidation (the BGF's in-place charge-pump updates).
        self._eff_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # The circuits every settle draws from (see _settle_eval_kernel).
        self._circuits = _Circuits(
            hidden_sampler=self.hidden_sampler,
            visible_sampler=self.visible_sampler,
            noise_model=self.noise_model if self._has_dynamic else None,
        )

    # ------------------------------------------------------------------ #
    # Programming interface (the "Programming Logic" block of Fig. 3)
    # ------------------------------------------------------------------ #
    def program(
        self,
        weights: np.ndarray,
        visible_bias: np.ndarray,
        hidden_bias: np.ndarray,
    ) -> None:
        """Write the coupling weights and biases into the array.

        The arrays are stored in the substrate's precision tier: a float32
        substrate quantizes the programmed float64 parameters once, here —
        the analog analogue of the array's finite programming resolution.
        """
        self.weights = check_array(
            weights, name="weights", shape=(self.n_visible, self.n_hidden)
        ).astype(self.dtype)
        self.visible_bias = check_array(
            visible_bias, name="visible_bias", shape=(self.n_visible,)
        ).astype(self.dtype)
        self.hidden_bias = check_array(
            hidden_bias, name="hidden_bias", shape=(self.n_hidden,)
        ).astype(self.dtype)
        self._drop_effective_cache()

    def program_trusted(
        self,
        weights: np.ndarray,
        visible_bias: np.ndarray,
        hidden_bias: np.ndarray,
    ) -> None:
        """Zero-copy programming path for trusted callers (the trainers).

        The arrays are adopted by reference — no validation scan, no defensive
        copies.  The caller guarantees they are finite float arrays of the
        right shape and must reprogram (or call
        :meth:`invalidate_effective_weights`) before sampling again if it
        mutates them.  :meth:`program` remains the validated public API.
        On a float32 substrate the adoption becomes a one-time cast when the
        caller's arrays are float64 (the trainers keep the host-side model in
        double precision); that O(mn) cast replaces :meth:`program`'s O(mn)
        validation scan + copy.
        """
        weights = np.asarray(weights, dtype=self.dtype)
        visible_bias = np.asarray(visible_bias, dtype=self.dtype)
        hidden_bias = np.asarray(hidden_bias, dtype=self.dtype)
        if weights.shape != (self.n_visible, self.n_hidden):
            raise ValidationError(
                f"weights shape {weights.shape} does not match the "
                f"({self.n_visible}, {self.n_hidden}) array"
            )
        self.weights = weights
        self.visible_bias = visible_bias
        self.hidden_bias = hidden_bias
        self._drop_effective_cache()

    def invalidate_effective_weights(self) -> None:
        """Drop the cached effective couplings (after in-place weight edits)."""
        self._drop_effective_cache()

    def _drop_effective_cache(self) -> None:
        """Invalidate the effective-coupling cache — the single
        invalidation point shared by ``program``, ``program_trusted`` and
        the BGF's in-place charge-pump updates."""
        self._eff_cache = None

    def read_parameters(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read back the programmed parameters (host-visible copies)."""
        return self.weights.copy(), self.visible_bias.copy(), self.hidden_bias.copy()

    def clamp_visible(self, values: np.ndarray) -> np.ndarray:
        """Drive the visible clamp units with ``values`` (through the DTC).

        NaN or infinite values raise :class:`ValidationError`: the clamp
        would pass them through (or the DTC saturate them) into fields the
        comparators latch as silent zeros.  Accepts scipy-sparse CSR rows:
        the DTC quantizes the stored entries only (a zero drives the clamp
        at code 0 exactly, since the converter's full-scale range starts at
        0), so the sparse structure survives the conversion and the result
        equals converting the dense expansion.
        """
        sparse = is_sparse(values)
        if sparse:
            values = as_sparse_rows(values, dtype=self.dtype)
        else:
            values = np.asarray(values, dtype=self.dtype)
        if values.shape[-1] != self.n_visible:
            raise ValidationError(
                f"clamp values last dimension {values.shape[-1]} does not match "
                f"{self.n_visible} visible nodes"
            )
        if not np.isfinite(values.data if sparse else values).all():
            raise ValidationError("clamp values contain non-finite entries")
        if self.input_dtc is None:
            return values
        # The DTC's quantizer runs in float64; the converted clamp levels
        # re-enter the substrate tier here, so a float32 substrate never
        # leaks float64 clamp states downstream.
        if sparse:
            converted = values.copy()
            converted.data = np.asarray(self.input_dtc.convert(values.data), dtype=self.dtype)
            return converted
        return np.asarray(self.input_dtc.convert(values), dtype=self.dtype)

    # ------------------------------------------------------------------ #
    # Conditional sampling (one settle-and-latch)
    # ------------------------------------------------------------------ #
    def _static_pair(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cached static (variation-scaled) ``(effective, effective.T)``
        coupling pair, rebuilt after a (re)programming or invalidation."""
        if self._eff_cache is None:
            # The variation product is drawn/scaled in float64 and
            # quantized into the substrate tier once per (re)programming;
            # in the ideal corner static_effective aliases self.weights,
            # already in tier.
            static = np.asarray(
                self.noise_model.static_effective(self.weights), dtype=self.dtype
            )
            self._eff_cache = (static, static.T)
        return self._eff_cache

    def hidden_field(self, visible: np.ndarray) -> np.ndarray:
        """Summed column currents seen by the hidden nodes (plus node noise).

        The static (variation-scaled) coupling is the cached pair; fresh
        dynamic coupling noise, when configured, is drawn per call, before
        the node noise — the settle kernel's draw order.
        """
        if is_sparse(visible):
            visible = as_sparse_rows(visible, dtype=self.dtype)
        else:
            # Tier dtype, not float: a float32 substrate computes (and
            # returns) float32 fields — same fix family as clamp_visible.
            visible = np.atleast_2d(np.asarray(visible, dtype=self.dtype))
        noise_model = self._circuits.noise_model
        effective = self._static_pair()[0]
        if noise_model is not None:
            effective = np.asarray(noise_model.apply_dynamic(effective), dtype=self.dtype)
        return _field_kernel(visible, effective, self.hidden_bias, noise_model)

    def _kernel(self) -> _SettleInputs:
        """Snapshot the settle kernel's static inputs (built per call —
        reprogramming swaps the bias arrays out from under a cached one)."""
        return _SettleInputs(
            hidden_bias=self.hidden_bias,
            visible_bias=self.visible_bias,
            hidden_gains=self.hidden_sigmoid._unit_gains,
            visible_gains=self.visible_sigmoid._unit_gains,
            dtype=self.dtype,
            fused_sampling=self._fused_sampling,
        )

    def sample_hidden_given_visible(self, visible: np.ndarray) -> np.ndarray:
        """Clamp the visible nodes and latch one hidden sample.

        ``visible`` may be a scipy-sparse CSR batch: the clamp and the field
        matmul stay sparse, and the first dense array materialized is the
        ``(batch, n_hidden)`` field — every downstream draw (node noise,
        comparator uniforms) has the same shape as the dense call, so the
        seeded draw streams are identical either way.
        """
        if is_sparse(visible):
            clamped = self.clamp_visible(visible)
        else:
            clamped = self.clamp_visible(
                np.atleast_2d(np.asarray(visible, dtype=float))
            )
        return _settle_eval_kernel(
            clamped, self._static_pair(), self._circuits, self._kernel(),
            hidden_side=True,
        )

    # ------------------------------------------------------------------ #
    # Chains (the hardware "random walk")
    # ------------------------------------------------------------------ #
    def settle_batch(
        self,
        hidden_init: np.ndarray,
        n_steps: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evolve ``p`` independent chains in parallel for ``n_steps`` settles.

        The chain-parallel kernel: ``hidden_init`` holds one chain per row,
        and every alternating settle evaluates *all* chains as a single
        batched matmul against the coupling array — the software analogue of
        the hardware's per-node parallelism (each chain occupies its own
        replica of the node array, and all replicas settle simultaneously).
        Validation of ``hidden_init`` happens once, up front; in-chain states
        come from the substrate's own latches and are trusted, and their
        binary visibles skip the DTC (the identity on {0, 1}).

        Stream-order note: per step the samplers draw one ``(p, n)`` noise
        block covering all chains (chain-major within the step).  That is a
        *different* — though statistically equivalent — draw order than
        advancing the same ``p`` chains one at a time through ``p`` separate
        calls, so multi-chain results are pinned by the distribution-level
        tests in ``tests/property/test_chain_statistics.py`` rather than by
        seed.  With a single row the two orders coincide bit-for-bit.

        Returns the final ``(visible, hidden)`` samples, shaped
        ``(p, n_visible)`` and ``(p, n_hidden)``, in the substrate's
        precision tier (``self.dtype``) — a float32 substrate returns
        float32 chain states with no silent float64 upcast mid-chain, and
        the dtype never depends on the caller's input dtype (binary values
        round-trip exactly through the validation cast).
        """
        if n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
        hidden = check_binary(
            np.atleast_2d(np.asarray(hidden_init, dtype=float)), name="hidden_init"
        ).astype(self.dtype, copy=False)
        return _settle_loop_kernel(
            hidden, n_steps, self._static_pair(), self._circuits, self._kernel()
        )

    def gibbs_chain(
        self,
        hidden_init: np.ndarray,
        n_steps: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run ``n_steps`` alternating settles starting from a hidden state.

        Mirrors the negative phase of Algorithm 1 / the annealing trajectory
        of the BGF's negative sample: hidden -> visible -> hidden, repeated.
        Delegates to :meth:`settle_batch` (a chain is the single- or
        multi-row case of the chain-parallel kernel) and returns the final
        ``(visible, hidden)`` samples.
        """
        return self.settle_batch(hidden_init, n_steps)
