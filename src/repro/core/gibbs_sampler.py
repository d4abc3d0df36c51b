"""The Gibbs sampler (GS) accelerator architecture (Sec. 3.2).

The GS design keeps the conventional CD-k training loop (Algorithm 1) but
offloads its inner sampling steps to the augmented Ising substrate:

1. the host programs the current weights/biases into the coupling array,
2. a training sample is clamped to the visible nodes; the hidden nodes
   settle through the analog sigmoid + comparator path (positive phase),
3. the substrate evolves for k steps to produce the negative-phase sample,
4. the host reads the samples back, accumulates ``<v+h+> - <v-h->`` over a
   minibatch, computes the update, and reprograms the array.

Every negative phase — classic CD, fresh multi-chain or persistent (PCD) —
runs the substrate's one chain-parallel settle loop
(:meth:`~repro.ising.bipartite.BipartiteIsingSubstrate.settle_batch`).

``GibbsSamplerMachine`` wraps the substrate operations; ``GibbsSamplerTrainer``
exposes the same ``train(rbm, data, epochs=...)`` interface as the software
``CDTrainer`` so it can be dropped into every downstream pipeline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config.specs import ComputeSpec, SubstrateSpec, TrainerSpec, check_spec
from repro.core.host import HostStatistics
from repro.ising.bipartite import BipartiteIsingSubstrate
from repro.rbm.rbm import (
    BernoulliRBM,
    TrainingHistory,
    check_training_rows,
    run_epochs,
)
from repro.utils.batching import minibatches
from repro.utils.numerics import is_sparse, safe_sparse_dot, sparse_mean
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError, check_array


class GibbsSamplerMachine:
    """Ising substrate operated as a clamped conditional (Gibbs) sampler.

    Parameters
    ----------
    spec:
        Typed substrate configuration (:class:`~repro.config.SubstrateSpec`):
        dimensions, analog noise operating point, sigmoid gain, DTC
        resolution and the substrate precision tier.  Host-side statistics
        stay float64 whatever the tier.
    rng:
        Master seed of the substrate's sampling streams.
    """

    def __init__(self, spec: SubstrateSpec, *, rng: SeedLike = None):
        self.substrate = BipartiteIsingSubstrate(spec=spec, rng=rng)
        self.spec = spec
        self.host = HostStatistics()

    @property
    def n_visible(self) -> int:
        return self.substrate.n_visible

    @property
    def n_hidden(self) -> int:
        return self.substrate.n_hidden

    # ------------------------------------------------------------------ #
    def program_trusted(self, rbm: BernoulliRBM) -> None:
        """Host programs the RBM's current parameters into the array.

        Zero-copy: the RBM's parameter arrays are adopted by reference
        instead of being re-validated and deep-copied on every minibatch;
        the trainer reprograms before each batch, so the substrate never
        samples from stale couplings.
        """
        if (rbm.n_visible, rbm.n_hidden) != (self.n_visible, self.n_hidden):
            raise ValidationError(
                f"RBM shape {(rbm.n_visible, rbm.n_hidden)} does not match the "
                f"machine's {(self.n_visible, self.n_hidden)} array"
            )
        self.substrate.program_trusted(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        self.host.record_programming()

    def positive_phase(self, v_pos: np.ndarray) -> np.ndarray:
        """Clamp a batch of training samples and latch the hidden samples."""
        shape = np.shape(v_pos)
        self.host.record_sample_streamed(shape[0] if len(shape) > 1 else 1)
        h_pos = self.substrate.sample_hidden_given_visible(v_pos)
        self.host.record_sample_read()
        return h_pos

    def negative_phase(
        self,
        h_init: np.ndarray,
        cd_k: int,
        *,
        workers: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Let the substrate evolve for ``cd_k`` steps from the hidden state.

        ``workers`` forwards to the substrate's sharded settle layer (the
        hidden rows are independent chains, so a minibatch-seeded negative
        phase shards exactly like a PCD pool).
        """
        v_neg, h_neg = self.substrate.gibbs_chain(h_init, cd_k, workers=workers)
        self.host.record_sample_read(2)
        return v_neg, h_neg

    def negative_phase_chains(
        self,
        chains_h: np.ndarray,
        cd_k: int,
        *,
        workers: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``p`` independent negative chains by ``cd_k`` steps each.

        All chains evolve together through the substrate's chain-parallel
        :meth:`~repro.ising.bipartite.BipartiteIsingSubstrate.settle_batch`
        kernel — every settle is one batched matmul across the whole chain
        block.  ``workers`` forwards to the substrate's sharded settle layer
        (:mod:`repro.utils.parallel`).
        """
        v_neg, h_neg = self.substrate.settle_batch(chains_h, cd_k, workers=workers)
        self.host.record_sample_read(2)
        return v_neg, h_neg


class GibbsSamplerTrainer:
    """CD-k training with the sampling offloaded to a :class:`GibbsSamplerMachine`.

    Parameters
    ----------
    spec:
        Typed configuration (:class:`~repro.config.TrainerSpec` with
        ``kind="gs"``; see :meth:`~repro.config.TrainerSpec.gs`).
        ``learning_rate``, ``cd_k`` and ``batch_size`` act as in the
        software :class:`~repro.rbm.rbm.CDTrainer`.
        ``sampler.chains`` is the number ``p`` of negative-phase chains: the
        default of 1 (not persistent) keeps conventional CD, where the
        minibatch's own positive samples seed the negative chain; ``p > 1``
        evolves ``p`` chains through the substrate's chain-parallel
        ``settle_batch`` kernel.  ``sampler.persistent`` carries the chains
        across minibatches (PCD; Tieleman 2008) and across ``partial_fit``
        calls; it changes the sampling statistics, so it is pinned
        distributionally (``tests/property/test_chain_statistics.py``).
        ``compute.workers`` shards the negative phase across threads with
        per-shard RNG substreams (1, the default, is the serial
        bit-identical kernel; ``k > 1`` is reproducible for fixed seed and
        ``k``, statistical across ``k``).  ``compute.dtype`` is the
        lazily-created machine's precision tier: ``"float32"`` samples in
        single precision while gradients and the RBM's parameters stay
        float64 (``tests/property/test_precision_tiers.py``).  ``noise`` is
        the lazily-created machine's operating point.
    rng:
        Trainer generator (see the stream order below).
    callback:
        Optional ``callback(epoch, rbm)`` hook invoked after every epoch.

    The machine is created lazily at ``train`` (or the first
    ``partial_fit``) time, matching the RBM's shape.

    RNG stream order
    ----------------
    The trainer's generator ``rng`` is consumed in a documented, fixed
    order so seeded runs are reproducible and component draws cannot alias:
    (1) when persistent chains are (re)initialized at ``train`` entry, one
    ``(chains, n_hidden)`` uniform block; (2) one shuffle permutation per
    epoch.  All sampling noise inside the substrate comes from the machine's
    own spawned streams — nothing here touches NumPy's global RNG, and no
    draw order depends on ``chains`` except the single documented init
    block.
    """

    def __init__(
        self,
        spec: TrainerSpec,
        *,
        rng: SeedLike = None,
        callback=None,
    ):
        check_spec(spec, TrainerSpec, "GibbsSamplerTrainer", kind="gs")
        self.spec = spec
        self.learning_rate = spec.learning_rate
        self.cd_k = spec.cd_k
        self.batch_size = spec.batch_size
        self.chains = spec.sampler.chains
        self.persistent = spec.sampler.persistent
        self.workers = spec.compute.workers
        self.machine: Optional[GibbsSamplerMachine] = None
        self._rng = as_rng(rng)
        self.callback = callback
        self._chains_h: Optional[np.ndarray] = None
        # Set once the entry finiteness scan has run for this trainer;
        # partial_fit validates the model arrays on the first call only (a
        # per-batch O(mn) scan would erase the trusted programming's win).
        self._entry_validated = False

    @property
    def chain_states(self) -> Optional[np.ndarray]:
        """Current hidden states of the persistent chains (copies), or None."""
        return None if self._chains_h is None else self._chains_h.copy()

    def _ensure_machine(self, rbm: BernoulliRBM) -> GibbsSamplerMachine:
        if self.machine is None or (
            self.machine.n_visible,
            self.machine.n_hidden,
        ) != (rbm.n_visible, rbm.n_hidden):
            self.machine = GibbsSamplerMachine(
                spec=SubstrateSpec(
                    n_visible=rbm.n_visible,
                    n_hidden=rbm.n_hidden,
                    noise=self.spec.noise,
                    compute=ComputeSpec(dtype=self.spec.compute.dtype),
                ),
                rng=self._rng,
            )
        return self.machine

    def _start(self, rbm: BernoulliRBM) -> GibbsSamplerMachine:
        """Entry work of ``train`` and ``partial_fit``: the machine and the
        persistent chains, drawn when absent or shaped for another RBM.

        Documented RNG order: the (chains x n_hidden) init block is the
        first draw from the trainer stream in a ``train()`` call — and
        likewise in the first ``partial_fit`` of a streamed run, which is
        why the two entry points consume the stream identically.
        """
        machine = self._ensure_machine(rbm)
        if self.persistent and (
            self._chains_h is None
            or self._chains_h.shape != (self.chains, rbm.n_hidden)
        ):
            self._chains_h = (
                self._rng.random((self.chains, rbm.n_hidden)) < 0.5
            ).astype(np.float64)
        return machine

    def _validate_entry_state(self, rbm: BernoulliRBM) -> None:
        """The once-per-entry finiteness scan of the model arrays."""
        check_array(rbm.weights, name="weights", shape=(rbm.n_visible, rbm.n_hidden))
        check_array(rbm.visible_bias, name="visible_bias", shape=(rbm.n_visible,))
        check_array(rbm.hidden_bias, name="hidden_bias", shape=(rbm.n_hidden,))
        self._entry_validated = True

    def _update_from_batch(self, rbm: BernoulliRBM, machine, batch) -> None:
        """One minibatch update: program, both phases, gradient, in-place step.

        The single update body behind ``train`` and ``partial_fit`` — one
        source, so streamed and one-shot training cannot drift apart.
        ``batch`` may be dense or scipy-sparse CSR; the sparse case runs
        ``safe_sparse_dot`` data-term kernels and is float-tolerance (not
        bit-identical) against the dense expansion, while dense batches go
        through the exact dense expressions.
        """
        # Step 2 of the operation sequence: program the current model.
        machine.program_trusted(rbm)
        # Steps 3-6: positive and negative phases on the substrate.
        chain_engine = self.persistent or self.chains > 1
        h_pos = machine.positive_phase(batch)
        if not chain_engine:
            v_neg, h_neg = machine.negative_phase(h_pos, self.cd_k, workers=self.workers)
        elif self.persistent:
            v_neg, h_neg = machine.negative_phase_chains(
                self._chains_h, self.cd_k, workers=self.workers
            )
            self._chains_h = h_neg
        else:
            # Fresh chains each minibatch, seeded from the positive
            # samples (rows cycled when p exceeds the batch) — CD
            # statistics with a decoupled chain count.
            seed_rows = np.resize(np.arange(batch.shape[0]), self.chains)
            v_neg, h_neg = machine.negative_phase_chains(
                h_pos[seed_rows], self.cd_k, workers=self.workers
            )

        # Step 8: host computes the gradient from the read-out samples.  The
        # data term is the only place the (possibly sparse) batch enters:
        # v_pos^T . h_pos as sparse-dense and the batch mean over stored
        # entries; everything negative-phase stays dense.  ``grad_w`` is a
        # fresh product, so it is divided, subtracted and scaled in place,
        # with no full-size temporaries.  Its dtype already covers the
        # negative term's (the batch joins the data term only), so no
        # in-place step narrows a result.
        n = batch.shape[0]
        grad_w = safe_sparse_dot(batch.T, h_pos)
        if chain_engine:
            grad_w /= n
            model_term = v_neg.T @ h_neg
            model_term /= v_neg.shape[0]
            grad_w -= model_term
            grad_bv = sparse_mean(batch) - np.mean(v_neg, axis=0)
            grad_bh = np.mean(h_pos, axis=0) - np.mean(h_neg, axis=0)
        else:
            grad_w -= v_neg.T @ h_neg
            grad_w /= n
            if is_sparse(batch):
                grad_bv = sparse_mean(batch) - np.mean(v_neg, axis=0)
            else:
                grad_bv = np.mean(batch - v_neg, axis=0)
            grad_bh = np.mean(h_pos - h_neg, axis=0)
        grad_w *= self.learning_rate
        rbm.weights += grad_w
        rbm.visible_bias += self.learning_rate * grad_bv
        rbm.hidden_bias += self.learning_rate * grad_bh
        machine.host.record_host_update()

    def partial_fit(self, rbm: BernoulliRBM, batch):
        """Apply one minibatch update to ``rbm`` — the streaming entry point.

        Persistent chains (and fresh-chain/classic CD state) carry across
        calls exactly as they carry across minibatches inside ``train``:
        feeding the batches of ``minibatches(data, batch_size,
        shuffle=False)`` through ``partial_fit`` one at a time is
        bit-identical to ``train(rbm, data, epochs=1, shuffle=False)`` under
        the same seed, because both consume the trainer RNG stream in the
        same documented order (chain init on the first call, nothing else).

        ``batch`` may be dense or scipy-sparse CSR, with at least one row
        (an empty batch raises, leaving the RBM untouched).  Between calls the
        substrate stays programmed with the parameters adopted at this
        call's entry (its effective-weight cache is invalidated on exit, so
        a float64 substrate — whose arrays alias the RBM's —
        resamples current values); the next ``partial_fit`` or ``train``
        reprograms before sampling.  Returns ``self``.
        """
        batch = check_training_rows(batch, rbm.n_visible, name="batch")
        machine = self._start(rbm)
        if not self._entry_validated:
            self._validate_entry_state(rbm)
        self._update_from_batch(rbm, machine, batch)
        machine.substrate.invalidate_effective_weights()
        return self

    def train(
        self,
        rbm: BernoulliRBM,
        data: np.ndarray,
        *,
        epochs: int = 10,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Train ``rbm`` in place, using the Ising substrate for sampling.

        Each call draws fresh persistent chains; only ``partial_fit``
        carries them from one call to the next.

        ``data`` may be a dense array or a scipy-sparse CSR matrix.  Data
        that does not fit in memory streams through :meth:`partial_fit`,
        one minibatch per call.
        """

        def setup() -> None:
            # The trainer owns both the RBM and the machine, so reprogramming
            # on every minibatch adopts the RBM's arrays by reference instead
            # of re-validating and copying the m x n matrix each time.  The
            # finiteness scan runs once per train(): training arithmetic on
            # finite inputs stays finite, so only the entry state needs it.
            self._chains_h = None
            self._start(rbm)
            self._validate_entry_state(rbm)

        def one_pass(data) -> None:
            for batch in minibatches(
                data, self.batch_size, shuffle=shuffle, rng=self._rng
            ):
                self._update_from_batch(rbm, self.machine, batch)

        history = run_epochs(
            rbm, data, epochs, one_pass, setup=setup, callback=self.callback
        )
        # Restore the no-aliasing invariant before handing the machine back:
        # the final in-place RBM update landed after the last reprogram, so
        # detach the substrate from the RBM's live arrays (leaving it
        # programmed with the final parameters).  Done at the substrate level
        # so host programming counts stay one write per minibatch.
        self.machine.substrate.program_trusted(
            rbm.weights.copy(), rbm.visible_bias.copy(), rbm.hidden_bias.copy()
        )
        return history
