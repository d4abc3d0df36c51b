"""Equivalence tests: the kernels against the seed-semantics oracle.

The kernels (see docs/performance.md) cache effective couplings and skip
redundant allocation and validation in the sampling hot loops, but must not
change a single drawn bit against the straightforward formulation kept in
``tests/helpers/reference.py``.  These tests pin that contract:

* ideal-noise corner — GS and BGF training runs produce bit-for-bit
  identical weights to the same runs on the oracle substrate (the BGF leg
  through the oracle's per-sample ``learn_sample`` loop) under the same
  seed, and
  the CD trainer matches a run through the masked reference sigmoid;
* the BGF's flat streaming kernel equals the oracle's validated per-sample
  loop in every tier x noise x column-type corner, with weights spread
  across the pump's roll-off region;
* noisy corner — the kernels preserve the per-stream RNG draw order, so
  even the (0.1, 0.1) operating point reproduces exactly, across a
  stateful sequence of settle calls as well as within one;
* the settle kernel equals the oracle's settle and clamped hidden latch in
  every float64 noise corner, over chain-block heights, chain lengths,
  DTC widths and layer shapes down to one unit;
* a settle always sees the couplings and biases programmed last, through
  ``program`` and through in-place edits plus
  ``invalidate_effective_weights``, in every tier;
* the fused numeric kernels (sigmoid / softplus) match their masked
  reference implementations bit-for-bit.
"""

import numpy as np
import pytest

from helpers.reference import (
    ReferenceSubstrate,
    apply_pumps,
    learn_sample,
    log1pexp_reference,
    sigmoid_reference,
    use_reference,
)
from repro.config import ComputeSpec, NoiseSpec, SubstrateSpec, TrainerSpec
from repro.analog.charge_pump import SATURATION_MARGIN
from repro.core import BGFTrainer, BoltzmannGradientFollower, GibbsSamplerTrainer
from repro.core.gradient_follower import CHUNK_SIZE
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import BernoulliRBM, CDTrainer
from repro.utils.numerics import log1pexp, sigmoid


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    prototypes = (rng.random((5, 49)) < 0.3).astype(float)
    samples = prototypes[rng.integers(0, 5, 120)]
    flips = rng.random(samples.shape) < 0.05
    return np.where(flips, 1.0 - samples, samples)


def _train(trainer_factory, data, epochs=2, *, reference=False):
    """Train a fresh 49x32 RBM; ``reference`` swaps the oracle into the
    trainer's machine first (same seeds, same streams)."""
    rbm = BernoulliRBM(49, 32, rng=0)
    trainer = trainer_factory()
    if reference:
        use_reference(trainer._ensure_machine(rbm))
    trainer.train(rbm, data, epochs=epochs)
    return rbm


def _assert_same_model(a: BernoulliRBM, b: BernoulliRBM) -> None:
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.visible_bias, b.visible_bias)
    np.testing.assert_array_equal(a.hidden_bias, b.hidden_bias)


class TestTrainerEquivalenceIdealCorner:
    def test_cd_trainer_matches_reference_sigmoid(self, data, monkeypatch):
        def factory():
            return CDTrainer(spec=TrainerSpec.cd(0.1, cd_k=1, batch_size=10), rng=1)

        fast = _train(factory, data)
        monkeypatch.setattr(
            "repro.rbm.rbm.sigmoid_kernel", lambda x, out=None: sigmoid_reference(x)
        )
        _assert_same_model(fast, _train(factory, data))

    def test_gibbs_sampler_trainer_bit_identical(self, data):
        def factory():
            return GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.1, cd_k=2, batch_size=10), rng=1
            )

        _assert_same_model(_train(factory, data), _train(factory, data, reference=True))

    def test_bgf_trainer_bit_identical(self, data):
        def factory():
            return BGFTrainer(spec=TrainerSpec.bgf(0.1, reference_batch_size=10), rng=1)

        _assert_same_model(_train(factory, data), _train(factory, data, reference=True))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bgf_chunk_size_does_not_change_the_stream(self, data, dtype, monkeypatch):
        """Chunking is bookkeeping only: any chunk size yields the same run,
        on every tier (the per-chunk block draw of the gating bits equals
        the per-sample draws)."""
        results = []
        for chunk_size in (1, 7, CHUNK_SIZE):
            monkeypatch.setattr("repro.core.gradient_follower.CHUNK_SIZE", chunk_size)
            rbm = BernoulliRBM(49, 32, rng=0)
            trainer = BGFTrainer(
                spec=TrainerSpec.bgf(
                    0.1, reference_batch_size=10, compute=ComputeSpec(dtype=dtype)
                ),
                rng=1,
            )
            machine = trainer._ensure_machine(rbm)
            machine.initialize(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
            machine.run(data)
            results.append(machine.substrate.read_parameters())
        for weights, bv, bh in results[1:]:
            np.testing.assert_array_equal(weights, results[0][0])
            np.testing.assert_array_equal(bv, results[0][1])
            np.testing.assert_array_equal(bh, results[0][2])


class TestBGFStreamMatchesPerSampleLoop:
    """The flat streaming kernel behind ``run`` against the oracle's
    validated per-sample path (``learn_sample``: public substrate sampling
    plus the validated ``apply``/``apply_bias`` pumps), bit for bit, in
    every corner ``run`` serves."""

    @staticmethod
    def _machine(dtype, noise):
        machine = BoltzmannGradientFollower(
            TrainerSpec.bgf(
                0.02,
                reference_batch_size=1,
                particles=4,
                noise=noise,
                compute=ComputeSpec(dtype=dtype),
            ),
            49,
            32,
            rng=3,
        )
        assert machine.step_size == 0.02
        # Weights spread across the whole +-4 range, so some units start in
        # the pump's roll-off region next to either rail.
        weights = np.random.default_rng(0).uniform(-4.0, 4.0, (49, 32))
        machine.initialize(weights, np.zeros(49), np.zeros(32))
        return machine

    def test_weights_start_within_the_roll_off_margin(self):
        machine = self._machine("float64", NoiseSpec())
        pump = machine.weight_pump
        lo, hi = pump.weight_range
        margin = SATURATION_MARGIN * (hi - lo)
        weights = machine.substrate.weights
        assert (weights > hi - margin).any() and (weights < lo + margin).any()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.1, 0.1)], ids=["ideal", "noisy"])
    @pytest.mark.parametrize("columns", ["binary", "grayscale"])
    def test_run_equals_learn_sample_loop(self, data, dtype, noise, columns):
        if columns == "grayscale":
            data = data.copy()
            data[:, ::3] *= np.linspace(0.2, 0.9, data.shape[0])[:, None]
        streamed = self._machine(dtype, noise)
        # More rows than one CHUNK_SIZE chunk, so the per-chunk gating
        # draw is checked across a chunk boundary.
        assert CHUNK_SIZE < 100 <= data.shape[0]
        streamed.run(data[:100], shuffle=False)
        looped = self._machine(dtype, noise)
        for sample in data[:100]:
            learn_sample(looped, sample)
        for a, b in zip(streamed.substrate.read_parameters(), looped.substrate.read_parameters()):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(streamed.particles, looped.particles)
        assert streamed.particles.dtype == looped.particles.dtype
        assert streamed.host == looped.host


class TestBufferPulseMatchesPerPumpLaw:
    """One pump pulse on the BGF's augmented buffer (weights, bias column,
    bias row) lands what the three separate pump updates of the oracle's
    :func:`apply_pumps` land, bit for bit, with every unit starting next
    to a rail."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec(), NoiseSpec(0.1, 0.1), NoiseSpec(0.1, 0.0), NoiseSpec(0.0, 0.1)],
        ids=["ideal", "noisy", "variation", "noise"],
    )
    def test_one_pulse_equals_three_pump_updates(self, dtype, noise):
        rng = np.random.default_rng(4)
        # Units within a step of either rail, so the roll-off and the clip
        # act on weights and biases alike.
        start = [
            rng.choice([-1.0, 1.0], shape) * rng.uniform(3.5, 4.0, shape)
            for shape in ((49, 32), 49, 32)
        ]
        phases = [
            (rng.random(49) < 0.5, rng.random(32) < 0.5, step % 2 == 0)
            for step in range(40)
        ]
        machines = []
        for pulse in (True, False):
            machine = BoltzmannGradientFollower(
                TrainerSpec.bgf(
                    0.5, reference_batch_size=1, noise=noise, compute=ComputeSpec(dtype=dtype)
                ),
                49,
                32,
                rng=3,
            )
            machine.initialize(*start)
            for v, h, positive in phases:
                v_bits, h_bits = v.astype(np.float64), h.astype(machine.substrate.dtype)
                if pulse:
                    machine._pump_sample(v_bits, h_bits, positive=positive, invalidate=True)
                else:
                    apply_pumps(machine, v_bits, h_bits, positive=positive)
            machines.append(machine)
        pulsed, looped = (m.substrate.read_parameters() for m in machines)
        for a, b in zip(pulsed, looped):
            assert a.dtype == b.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(a, b)
        # The pulses moved the weights and both bias vectors.
        for moved, first in zip(pulsed, start):
            assert not np.array_equal(moved, np.asarray(first).astype(dtype))


class TestTrainerEquivalenceNoisyCorner:
    """The fast paths preserve per-stream draw order, so even noisy runs
    reproduce exactly — a stronger property than the distribution-level
    equivalence the noise study needs."""

    NOISY = NoiseSpec(0.1, 0.1)

    def test_gibbs_sampler_trainer_noisy_bit_identical(self, data):
        def factory():
            return GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.1, cd_k=1, batch_size=10, noise=self.NOISY), rng=1
            )

        _assert_same_model(_train(factory, data), _train(factory, data, reference=True))

    def test_bgf_trainer_noisy_bit_identical(self, data):
        def factory():
            return BGFTrainer(
                spec=TrainerSpec.bgf(0.1, reference_batch_size=10, noise=self.NOISY),
                rng=1,
            )

        _assert_same_model(_train(factory, data), _train(factory, data, reference=True))


class TestSubstrateEquivalence:
    def _pair(self, **kwargs):
        subs = []
        for cls in (BipartiteIsingSubstrate, ReferenceSubstrate):
            sub = cls(spec=SubstrateSpec(49, 32, **kwargs), rng=7)
            weights = np.random.default_rng(1).normal(0, 0.1, (49, 32))
            sub.program(weights, np.zeros(49), np.zeros(32))
            subs.append(sub)
        return subs

    def test_conditional_sampling_bit_identical(self, data):
        fast, legacy = self._pair()
        np.testing.assert_array_equal(
            fast.sample_hidden_given_visible(data),
            legacy.sample_hidden_given_visible(data),
        )

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.1, 0.1)], ids=["ideal", "noisy"])
    def test_gibbs_chain_bit_identical(self, data, noise):
        fast, legacy = self._pair(noise=noise)
        h0 = (np.random.default_rng(2).random((10, 32)) < 0.5).astype(float)
        v_fast, h_fast = fast.gibbs_chain(h0, 5)
        v_legacy, h_legacy = legacy.gibbs_chain(h0, 5)
        np.testing.assert_array_equal(v_fast, v_legacy)
        np.testing.assert_array_equal(h_fast, h_legacy)

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.1, 0.1)], ids=["ideal", "noisy"])
    def test_stateful_settle_sequence_bit_identical(self, noise):
        """The circuits' streams carry across calls: a sequence of settles
        of varying length draws exactly as the oracle's does."""
        fast, legacy = self._pair(noise=noise)
        h_fast = h_legacy = (np.random.default_rng(3).random((9, 32)) < 0.5).astype(float)
        for steps in (2, 1, 3):
            v_fast, h_fast = fast.settle_batch(h_fast, steps)
            v_legacy, h_legacy = legacy.settle_batch(h_legacy, steps)
            np.testing.assert_array_equal(v_fast, v_legacy)
            np.testing.assert_array_equal(h_fast, h_legacy)

    def test_noisy_sampling_bit_identical(self, data):
        fast, legacy = self._pair(noise=NoiseSpec(0.1, 0.1))
        np.testing.assert_array_equal(
            fast.sample_hidden_given_visible(data),
            legacy.sample_hidden_given_visible(data),
        )

    def test_cache_invalidated_on_reprogram(self, data):
        sub, _ = self._pair()
        first = sub.sample_hidden_given_visible(data[:5])
        new_weights = np.random.default_rng(3).normal(0, 0.5, (49, 32))
        sub.program_trusted(new_weights, np.zeros(49), np.zeros(32))
        # A fresh oracle programmed straight to the new weights must agree
        # with the reprogrammed substrate from here on.
        ref = ReferenceSubstrate(spec=SubstrateSpec(49, 32), rng=7)
        ref.program(new_weights, np.zeros(49), np.zeros(32))
        ref.sample_hidden_given_visible(data[:5])  # advance streams like `sub`
        np.testing.assert_array_equal(
            sub.sample_hidden_given_visible(data[:5]),
            ref.sample_hidden_given_visible(data[:5]),
        )
        assert not np.array_equal(first, sub.sample_hidden_given_visible(data[:5]))


#: The noise corners the float64 oracle covers: the ideal array, the
#: (0.1, 0.1) operating point, and each half of it alone (static variation
#: only gives the sigmoid units and couplings a gain but draws nothing per
#: settle; dynamic noise only draws per settle around unit gains).
ORACLE_CORNERS = {
    "ideal": NoiseSpec(),
    "noisy": NoiseSpec(0.1, 0.1),
    "variation": NoiseSpec(0.1, 0.0),
    "noise": NoiseSpec(0.0, 0.1),
}


def _oracle_pair(noise, n_visible=12, n_hidden=7, *, input_bits=None, seed=7):
    """The kernel's substrate and the oracle on one seed, both programmed
    with the same moderately coupled parameters."""
    rng = np.random.default_rng(1)
    params = (
        rng.normal(0, 0.6, (n_visible, n_hidden)),
        rng.normal(0, 0.3, n_visible),
        rng.normal(0, 0.3, n_hidden),
    )
    subs = []
    for cls in (BipartiteIsingSubstrate, ReferenceSubstrate):
        sub = cls(
            spec=SubstrateSpec(n_visible, n_hidden, input_bits=input_bits, noise=noise),
            rng=seed,
        )
        sub.program(*params)
        subs.append(sub)
    return subs


class TestSettleBatchMatchesOracle:
    """The settle kernel against the oracle's per-step recomputation, bit
    for bit, in every float64 noise corner, for one chain, a chain block
    and a block wider than either layer, over one settle and several, and
    on layers down to a single unit."""

    @pytest.mark.parametrize("n_steps", [1, 4])
    @pytest.mark.parametrize("chains", [1, 9, 33])
    @pytest.mark.parametrize("corner", sorted(ORACLE_CORNERS))
    def test_settle_batch(self, corner, chains, n_steps):
        fast, legacy = _oracle_pair(ORACLE_CORNERS[corner])
        h0 = (np.random.default_rng(chains).random((chains, 7)) < 0.5).astype(float)
        v_fast, h_fast = fast.settle_batch(h0, n_steps)
        v_legacy, h_legacy = legacy.settle_batch(h0, n_steps)
        assert v_fast.shape == (chains, 12) and h_fast.shape == (chains, 7)
        np.testing.assert_array_equal(v_fast, v_legacy)
        np.testing.assert_array_equal(h_fast, h_legacy)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (49, 32), (100, 3)], ids=lambda s: "x".join(map(str, s))
    )
    @pytest.mark.parametrize("corner", ["ideal", "noisy"])
    def test_layer_shapes(self, corner, shape):
        """A one-unit layer makes every field a column (or a scalar) and
        its node-noise scale a one-element or one-column deviation."""
        n_visible, n_hidden = shape
        fast, legacy = _oracle_pair(ORACLE_CORNERS[corner], n_visible, n_hidden)
        h0 = (np.random.default_rng(2).random((6, n_hidden)) < 0.5).astype(float)
        for out_fast, out_legacy in zip(fast.settle_batch(h0, 3), legacy.settle_batch(h0, 3)):
            np.testing.assert_array_equal(out_fast, out_legacy)

    @pytest.mark.parametrize("input_bits", [None, 8, 3])
    @pytest.mark.parametrize("corner", sorted(ORACLE_CORNERS))
    def test_clamped_hidden_latch(self, corner, input_bits):
        """The positive phase: grayscale rows through the DTC clamp, then
        one hidden latch, in every corner and converter width."""
        fast, legacy = _oracle_pair(ORACLE_CORNERS[corner], input_bits=input_bits)
        visible = np.random.default_rng(3).random((20, 12))
        for _ in range(2):
            np.testing.assert_array_equal(
                fast.sample_hidden_given_visible(visible),
                legacy.sample_hidden_given_visible(visible),
            )


class TestSettleSeesTheLatestProgram:
    """Saturated parameters make the latched states certain, so a settle
    against a stale coupling cache or bias snapshot would flip every unit.
    A field of +-20 latches a unit whatever the tier: couplings of +-4 give
    an all-ones hidden state a visible field of +-128 with zero biases, and
    a bias of +-20 does it with zero couplings, so a stale copy of one
    cannot mask a stale copy of the other."""

    CORNERS = {
        "ideal": {},
        "noisy": {"noise": NoiseSpec(0.1, 0.1)},
        "float32": {"compute": ComputeSpec(dtype="float32")},
    }

    def _substrate(self, corner):
        return BipartiteIsingSubstrate(
            spec=SubstrateSpec(49, 32, input_bits=None, **self.CORNERS[corner]), rng=5
        )

    @staticmethod
    def _program_uniform(substrate, coupling, bias):
        substrate.program(np.full((49, 32), coupling), np.full(49, bias), np.full(32, bias))

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_reprogrammed_couplings_reach_the_settle(self, corner):
        substrate = self._substrate(corner)
        h = np.ones((9, 32))
        self._program_uniform(substrate, +4.0, 0.0)
        v_on, h_on = substrate.settle_batch(h, 1)
        self._program_uniform(substrate, -4.0, 0.0)
        v_off, _ = substrate.settle_batch(h, 1)
        np.testing.assert_array_equal(v_on, np.ones_like(v_on))
        np.testing.assert_array_equal(h_on, np.ones_like(h_on))
        np.testing.assert_array_equal(v_off, np.zeros_like(v_off))

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_reprogrammed_biases_reach_the_settle(self, corner):
        substrate = self._substrate(corner)
        h = (np.random.default_rng(3).random((9, 32)) < 0.5).astype(float)
        self._program_uniform(substrate, 0.0, +20.0)
        v_on, h_on = substrate.settle_batch(h, 2)
        self._program_uniform(substrate, 0.0, -20.0)
        v_off, h_off = substrate.settle_batch(h, 2)
        np.testing.assert_array_equal(v_on, np.ones_like(v_on))
        np.testing.assert_array_equal(h_on, np.ones_like(h_on))
        np.testing.assert_array_equal(v_off, np.zeros_like(v_off))
        np.testing.assert_array_equal(h_off, np.zeros_like(h_off))

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_in_place_edit_then_invalidate(self, corner):
        """The charge-pump route: the couplings are edited in place and the
        cache dropped explicitly.  In the noisy corner the cached pair is a
        copy (variation gain), so a missed invalidation would keep settling
        against the old couplings."""
        substrate = self._substrate(corner)
        h = np.ones((9, 32))
        self._program_uniform(substrate, +4.0, 0.0)
        v_on, _ = substrate.settle_batch(h, 1)
        substrate.weights[...] = -4.0
        substrate.invalidate_effective_weights()
        v_off, _ = substrate.settle_batch(h, 1)
        np.testing.assert_array_equal(v_on, np.ones_like(v_on))
        np.testing.assert_array_equal(v_off, np.zeros_like(v_off))


class TestNumericKernels:
    def _inputs(self):
        rng = np.random.default_rng(0)
        return [
            rng.normal(0, 3, (100, 40)),
            np.array([-745.0, -30.0, -1e-9, -0.0, 0.0, 1e-9, 30.0, 745.0]),
            np.array([np.inf, -np.inf]),
        ]

    def test_sigmoid_matches_reference(self):
        for x in self._inputs():
            np.testing.assert_array_equal(sigmoid(x), sigmoid_reference(x))

    def test_log1pexp_matches_reference(self):
        for x in self._inputs():
            np.testing.assert_array_equal(log1pexp(x), log1pexp_reference(x))

