"""Test oracle: the seed semantics of the substrate and estimator kernels.

``src/`` keeps one implementation per kernel: cached effective couplings,
trusted latches, hoisted validation, a vectorized AIS sweep.  This module
keeps the straightforward formulations those kernels replaced, so the
bit-identity suites have something independent to compare against:

* :func:`sigmoid_reference` / :func:`log1pexp_reference` — the two-pass
  masked elementwise kernels;
* :func:`unit_output` — a ``SigmoidUnit``'s transfer curve, the per-unit
  gain times the input through the masked logistic;
* :func:`sample` / :func:`sample_from_field` — the node latch against a
  uniform reference from the sampler's stream, drawn in the tier dtype,
  and its fused sigmoid→compare form; the settle kernel runs both inline;
* :func:`latch` — the node latch with its range and width checks;
* :class:`ReferenceSubstrate` — the substrate with a fresh
  ``NoiseModel.perturbed_coupling`` per settle, the masked sigmoid with an
  unconditional output clip, validated latches, and a per-step
  ``check_binary`` plus DTC re-clamp in every chain;
* :func:`apply_pumps` — one BGF phase as three separate pump updates
  (the validated ``apply`` of the weight pump on the weights, ``apply_bias``
  of each bias pump on its vector), the per-pump law the machine's single
  pulse on its augmented buffer must reproduce;
* :func:`learn_sample` / :func:`learn_sample_run` — the BGF's learning
  step as separate positive and negative phases on public substrate calls
  and :func:`apply_pumps`, and ``run`` as a loop of those steps;
* :func:`ais_sweep` — the per-beta AIS log-weight loop;
* :func:`cd_gradient` / :func:`cd_train` — CD-k (Algorithm 1) on the
  RBM's public, coercing conditionals and ``np.mean`` statistics, and
  training as a loop over ``minibatches`` of those gradient steps;
* :func:`logistic_fit` — the softmax head's minibatch SGD through
  ``minibatches``, ``softmax`` and ``np.mean``;
* :func:`perturbed_coupling` — one settle's coupling realization (static
  variation times fresh dynamic noise) drawn from scratch;
* :func:`energy`, :func:`exact_log_partition`,
  :func:`exact_joint_distribution`, :func:`exact_model_moments` and
  :func:`exact_log_likelihood` — the RBM's joint energy (Eq. 3) and exact
  quantities by enumeration, the ground truth of the AIS and chain
  statistics suites (tractable only for small models).

Suites swap the oracle in without touching ``src/``: :func:`use_reference`
replaces a machine's ``substrate`` attribute (and a BGF machine's ``run``),
and :func:`ais_sweep` has the signature of ``repro.rbm.ais._ais_sweep`` so
``monkeypatch.setattr`` can substitute it.  The oracle is float64 by
definition.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core import BoltzmannGradientFollower
from repro.eval.logistic import L2
from repro.ising import BipartiteIsingSubstrate
from repro.rbm.partition import MAX_ENUMERATION_BITS, enumerate_states
from repro.utils.batching import minibatches
from repro.utils.numerics import (
    as_float_array,
    as_sparse_rows,
    bernoulli_sample,
    fused_sigmoid_bernoulli,
    is_sparse,
    log1pexp,
    logsumexp,
    safe_sparse_dot,
    sigmoid,
    softmax,
    sparse_mean,
)
from repro.utils.validation import ValidationError, check_array, check_binary


def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """Two-pass masked logistic ``1 / (1 + exp(-x))``."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log1pexp_reference(x: np.ndarray) -> np.ndarray:
    """Two-pass masked softplus ``log(1 + exp(x))``."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x, dtype=float)
    small = x <= 0
    out[small] = np.log1p(np.exp(x[small]))
    out[~small] = x[~small] + np.log1p(np.exp(-x[~small]))
    return out


def unit_output(unit, x: np.ndarray) -> np.ndarray:
    """A ``SigmoidUnit``'s output: the unit gain (nominally 1, or its
    per-unit mismatch along the last axis) times the input through the
    masked logistic, then an unconditional clip to [0, 1]."""
    x = as_float_array(x)
    gains = 1.0
    if unit._unit_gains is not None:
        if x.shape[-1] != unit.n_units:
            raise ValidationError(
                f"input last dimension {x.shape[-1]} does not match n_units={unit.n_units}"
            )
        gains = unit._unit_gains
    return np.clip(sigmoid_reference(gains * x), 0.0, 1.0)


def _draw_dtype(values) -> np.dtype:
    """Tier rule: float32 values draw float32 references; every other
    dtype draws float64."""
    if getattr(values, "dtype", None) == np.float32:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def sample(sampler, probabilities) -> np.ndarray:
    """The node latch: 1 where ``probabilities`` exceeds a uniform
    reference drawn from ``sampler``'s stream, references and latch in the
    tier dtype (:func:`_draw_dtype`)."""
    dtype = _draw_dtype(probabilities)
    reference = sampler._rng.random(np.shape(probabilities), dtype=dtype)
    return (probabilities > reference).astype(dtype)


def sample_from_field(sampler, field) -> np.ndarray:
    """The fused latch: Bernoulli(``sigmoid(field)``) as one logit-space
    compare of ``field`` against uniforms from ``sampler``'s stream, drawn
    in the field's tier dtype."""
    uniforms = sampler._rng.random(np.shape(field), dtype=_draw_dtype(field))
    return fused_sigmoid_bernoulli(field, uniforms)


def latch(sampler, probabilities) -> np.ndarray:
    """The validated latch: ``probabilities`` checked to lie in [0, 1] and
    to end in the ``sampler``'s ``n_units``, cast to float64, then latched
    by :func:`sample` (so float32 inputs draw the float64 references too)."""
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.size and (probabilities.min() < 0.0 or probabilities.max() > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    if probabilities.shape[-1:] != (sampler.n_units,):
        raise ValidationError(
            f"probabilities of shape {probabilities.shape} do not end "
            f"in n_units={sampler.n_units}"
        )
    return sample(sampler, probabilities)


def coupling_gain(noise_model) -> np.ndarray:
    """``noise_model``'s static variation gain as an array: the drawn gain,
    or ones in the ideal-variation corner (where the model keeps none)."""
    gain = noise_model.coupling_gain
    return np.ones(noise_model.coupling_shape) if gain is None else gain


def perturbed_coupling(noise_model, weights: np.ndarray) -> np.ndarray:
    """``weights`` as one evaluation of ``noise_model``'s array realizes
    them: the static variation gain (:func:`coupling_gain`), then (in a
    noisy corner) one fresh ``coupling_noise`` draw applied
    multiplicatively."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != noise_model.coupling_shape:
        raise ValidationError(
            f"weights shape {weights.shape} does not match coupling shape "
            f"{noise_model.coupling_shape}"
        )
    effective = weights * coupling_gain(noise_model)
    if noise_model.spec.noise_rms == 0.0:
        return effective
    return effective * (1.0 + noise_model.coupling_noise())


class ReferenceSubstrate(BipartiteIsingSubstrate):
    """The substrate with every settle recomputed from scratch.

    Construct it like the substrate (``spec=``, ``rng=``), or wrap an
    existing one with :meth:`adopt`.  Programming, clamping and the
    circuits' streams are the substrate's own; the conditional samplers
    of both layers, the field/probability methods and ``settle_batch``
    are the oracle's.
    """

    @classmethod
    def adopt(cls, substrate: BipartiteIsingSubstrate) -> "ReferenceSubstrate":
        """An oracle sharing ``substrate``'s programmed state and circuits
        (so it draws from the same streams); use it in place of the
        original, not alongside it."""
        oracle = cls.__new__(cls)
        oracle.__dict__.update(substrate.__dict__)
        return oracle

    def _coupling(self) -> np.ndarray:
        """This settle's coupling realization: static variation times fresh
        dynamic noise, drawn per call."""
        return perturbed_coupling(self.noise_model, self.weights)

    def hidden_field(self, visible: np.ndarray) -> np.ndarray:
        if is_sparse(visible):
            visible = as_sparse_rows(visible, dtype=float)
        else:
            visible = np.atleast_2d(np.asarray(visible, dtype=float))
        field = safe_sparse_dot(visible, self._coupling()) + self.hidden_bias
        scale = max(float(np.std(field)), 1.0)
        return field + self.noise_model.node_noise(field.shape, scale=scale)

    def visible_field(self, hidden: np.ndarray) -> np.ndarray:
        hidden = np.atleast_2d(np.asarray(hidden, dtype=float))
        field = hidden @ self._coupling().T + self.visible_bias
        scale = max(float(np.std(field)), 1.0)
        return field + self.noise_model.node_noise(field.shape, scale=scale)

    def hidden_probability(self, visible: np.ndarray) -> np.ndarray:
        return unit_output(self.hidden_sigmoid, self.hidden_field(visible))

    def visible_probability(self, hidden: np.ndarray) -> np.ndarray:
        return unit_output(self.visible_sigmoid, self.visible_field(hidden))

    def sample_hidden_given_visible(self, visible: np.ndarray) -> np.ndarray:
        if not is_sparse(visible):
            visible = np.atleast_2d(np.asarray(visible, dtype=float))
        return latch(self.hidden_sampler, self.hidden_probability(self.clamp_visible(visible)))

    def sample_visible_given_hidden(self, hidden: np.ndarray) -> np.ndarray:
        hidden = check_binary(np.atleast_2d(np.asarray(hidden, dtype=float)), name="hidden")
        return latch(self.visible_sampler, self.visible_probability(hidden))

    def settle_batch(self, hidden_init, n_steps):
        """``n_steps`` alternating settles through the validated samplers
        (each hidden settle re-clamps its visibles through the DTC, each
        visible settle re-checks its hidden states)."""
        if n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
        hidden = check_binary(
            np.atleast_2d(np.asarray(hidden_init, dtype=float)), name="hidden_init"
        )
        visible = self.sample_visible_given_hidden(hidden)
        for _ in range(n_steps - 1):
            hidden = self.sample_hidden_given_visible(visible)
            visible = self.sample_visible_given_hidden(hidden)
        hidden = self.sample_hidden_given_visible(visible)
        return visible, hidden


def apply_pumps(machine, v_bits, h_bits, *, positive: bool) -> None:
    """One phase's validated charge-pump updates, pump by pump — the
    weights gated by ``v_i * h_j``, the visible biases by ``v_i`` and the
    hidden biases by ``h_j``, each pump drawing from its own stream — then
    an invalidation of the substrate's cached couplings."""
    sub = machine.substrate
    machine.weight_pump.apply(sub.weights, np.outer(v_bits, h_bits), positive=positive)
    machine.visible_bias_pump.apply_bias(sub.visible_bias, v_bits, positive=positive)
    machine.hidden_bias_pump.apply_bias(sub.hidden_bias, h_bits, positive=positive)
    sub.invalidate_effective_weights()


def learn_sample(machine, sample) -> None:
    """One BGF learning step (Eq. 12) on one sample of ``machine``.

    Positive phase: clamp, latch the hidden nodes, draw the visible gating
    bits from the machine's stream, increment.  Negative phase: anneal the
    next particle round-robin through ``gibbs_chain``, persist it,
    decrement.  The positive update lands before the negative settle."""
    if machine._particles is None:
        raise ValidationError("initialize must be called before learn_sample")
    sample = check_array(sample, name="sample").reshape(-1)
    if sample.shape[0] != machine.n_visible:
        raise ValidationError(
            f"sample has {sample.shape[0]} features; machine has "
            f"{machine.n_visible} visible nodes"
        )
    machine.host.record_sample_streamed()
    sub = machine.substrate
    visible = sub.clamp_visible(np.atleast_2d(sample))
    hidden = sub.sample_hidden_given_visible(visible)
    v_bits = bernoulli_sample(np.clip(visible, 0.0, 1.0), machine._rng)[0]
    apply_pumps(machine, v_bits, hidden[0], positive=True)

    index = machine._particle_cursor % machine.spec.sampler.chains
    machine._particle_cursor += 1
    visible, hidden = sub.gibbs_chain(
        machine._particles[index : index + 1], machine.spec.cd_k
    )
    machine._particles[index] = hidden[0]
    apply_pumps(machine, visible[0], hidden[0], positive=False)


def learn_sample_run(machine, data, *, epochs: int = 1, shuffle: bool = True):
    """``BoltzmannGradientFollower.run`` as a loop of :func:`learn_sample`,
    drawing the same per-epoch permutation."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    for _ in range(epochs):
        order = machine._rng.permutation(n) if shuffle else np.arange(n)
        for idx in order:
            learn_sample(machine, data[idx])


def use_reference(machine):
    """Swap the oracle into ``machine`` (a GS or BGF machine) in place.

    The machine's substrate becomes a :class:`ReferenceSubstrate` on the
    same streams; a BGF machine also runs :func:`learn_sample_run`
    instead of its chunked kernel.  Returns ``machine``.
    """
    machine.substrate = ReferenceSubstrate.adopt(machine.substrate)
    if isinstance(machine, BoltzmannGradientFollower):
        machine.run = functools.partial(learn_sample_run, machine)
    return machine


def ais_sweep(
    weights, visible_bias, hidden_bias, base_bias, betas, n_chains, rng, *, dtype=np.float64
):
    """The per-beta AIS loop: the log-weight increment is the difference of
    two full unnormalized log-probabilities, and each transition recomputes
    its own hidden input.  Float64 only; ``dtype`` is accepted for
    signature compatibility with ``repro.rbm.ais._ais_sweep``."""
    if np.dtype(dtype) != np.float64:
        raise ValueError(f"the reference AIS loop is float64 only, got {dtype}")

    def log_unnormalized(v, beta):
        hidden_input = beta * (v @ weights + hidden_bias)
        return (
            (1.0 - beta) * (v @ base_bias)
            + beta * (v @ visible_bias)
            + np.sum(log1pexp(hidden_input), axis=1)
        )

    v = bernoulli_sample(np.tile(sigmoid(base_bias), (n_chains, 1)), rng)
    log_w = np.zeros(n_chains, dtype=np.float64)
    for prev_beta, beta in zip(betas[:-1], betas[1:]):
        log_w += log_unnormalized(v, beta)
        log_w -= log_unnormalized(v, prev_beta)
        h = bernoulli_sample(sigmoid(beta * (v @ weights + hidden_bias)), rng)
        v_field = beta * (h @ weights.T + visible_bias) + (1.0 - beta) * base_bias
        v = bernoulli_sample(sigmoid(v_field), rng)
    return log_w


def cd_gradient(rbm, v_pos, cd_k: int, rng: np.random.Generator):
    """One CD-k gradient estimate ``(grad_w, grad_bv, grad_bh, v_neg)``:
    the positive phase samples the hidden units once from the data, the
    negative phase runs ``cd_k`` Gibbs steps through the RBM's public
    conditionals, and the statistics are ``np.mean`` over the batch."""
    h_pos_prob = rbm.hidden_activation_probability(v_pos)
    h_neg = bernoulli_sample(h_pos_prob, rng)
    v_neg = v_pos
    for _ in range(cd_k):
        v_neg = bernoulli_sample(rbm.visible_activation_probability(h_neg), rng)
        h_neg_prob = rbm.hidden_activation_probability(v_neg)
        h_neg = bernoulli_sample(h_neg_prob, rng)
    batch = v_pos.shape[0]
    grad_w = (safe_sparse_dot(v_pos.T, h_pos_prob) - v_neg.T @ h_neg_prob) / batch
    if is_sparse(v_pos):
        grad_bv = sparse_mean(v_pos) - np.mean(v_neg, axis=0)
    else:
        grad_bv = np.mean(v_pos - v_neg, axis=0)
    grad_bh = np.mean(h_pos_prob - h_neg_prob, axis=0)
    return grad_w, grad_bv, grad_bh, v_neg


def cd_train(rbm, data, *, epochs, learning_rate, cd_k, batch_size, rng, shuffle=True):
    """Train ``rbm`` in place by CD-k: each epoch one pass of
    :func:`cd_gradient` steps over ``minibatches`` of ``data`` (dense or
    CSR), all draws from ``rng``.  Returns ``rbm``."""
    for _ in range(epochs):
        for batch in minibatches(data, batch_size, shuffle=shuffle, rng=rng):
            grad_w, grad_bv, grad_bh, _ = cd_gradient(rbm, batch, cd_k, rng)
            rbm.weights += learning_rate * grad_w
            rbm.visible_bias += learning_rate * grad_bv
            rbm.hidden_bias += learning_rate * grad_bh
    return rbm


def logistic_fit(clf, features, labels, *, epochs, learning_rate, batch_size):
    """Fit the softmax head ``clf`` in place: each epoch ``minibatches``
    shuffles the row indices with ``clf``'s generator, and each batch takes
    one step on the L2-penalized cross-entropy gradient, written with
    ``softmax`` and ``np.mean``.  Returns ``clf``."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    one_hot = np.zeros((labels.shape[0], clf.n_classes))
    one_hot[np.arange(labels.shape[0]), labels] = 1.0
    for _ in range(epochs):
        for idx in minibatches(
            np.arange(features.shape[0]), batch_size, shuffle=True, rng=clf._rng
        ):
            batch_x, batch_y = features[idx], one_hot[idx]
            probs = softmax(batch_x @ clf.weights + clf.bias, axis=1)
            err = probs - batch_y
            grad_w = batch_x.T @ err / batch_x.shape[0] + L2 * clf.weights
            grad_b = np.mean(err, axis=0)
            clf.weights -= learning_rate * grad_w
            clf.bias -= learning_rate * grad_b
    return clf


def energy(rbm, v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Joint energy ``E(v, h) = -v'Wh - b_v.v - b_h.h`` (Eq. 3), batched."""
    v = np.atleast_2d(np.asarray(v, dtype=float))
    h = np.atleast_2d(np.asarray(h, dtype=float))
    interaction = np.einsum("bi,ij,bj->b", v, rbm.weights, h)
    return -(interaction + v @ rbm.visible_bias + h @ rbm.hidden_bias)


def _hidden_free_energy(rbm, h: np.ndarray) -> np.ndarray:
    """Free energy of hidden configurations: -log sum_v exp(-E(v, h))."""
    h = np.atleast_2d(h)
    visible_input = h @ rbm.weights.T + rbm.visible_bias
    return -(h @ rbm.hidden_bias) - np.sum(log1pexp(visible_input), axis=1)


def exact_log_partition(rbm) -> float:
    """Exact ``log Z``, enumerating the smaller layer (the other layer's sum
    is analytic)."""
    if min(rbm.n_visible, rbm.n_hidden) > MAX_ENUMERATION_BITS:
        raise ValidationError(
            "exact_log_partition requires one layer with at most "
            f"{MAX_ENUMERATION_BITS} units; RBM is {rbm.n_visible}x{rbm.n_hidden}"
        )
    if rbm.n_visible <= rbm.n_hidden:
        states = enumerate_states(rbm.n_visible)
        return float(logsumexp(-rbm.free_energy(states)))
    states = enumerate_states(rbm.n_hidden)
    return float(logsumexp(-_hidden_free_energy(rbm, states)))


def exact_joint_distribution(rbm) -> np.ndarray:
    """Exact joint ``P(v, h)``, shaped ``(2**n_visible, 2**n_hidden)``."""
    if rbm.n_visible + rbm.n_hidden > MAX_ENUMERATION_BITS:
        raise ValidationError(
            "joint enumeration needs n_visible + n_hidden <= "
            f"{MAX_ENUMERATION_BITS}; RBM is {rbm.n_visible}x{rbm.n_hidden}"
        )
    v_states = enumerate_states(rbm.n_visible)
    h_states = enumerate_states(rbm.n_hidden)
    log_unnorm = (
        v_states @ rbm.weights @ h_states.T
        + (v_states @ rbm.visible_bias)[:, None]
        + (h_states @ rbm.hidden_bias)[None, :]
    )
    return np.exp(log_unnorm - logsumexp(log_unnorm.reshape(-1)))


def exact_model_moments(rbm):
    """Exact first moments ``(E[v], E[h], E[v h^T])`` under the model: what
    a correct sampler's long-run chain averages converge to, whatever the
    chain layout."""
    joint = exact_joint_distribution(rbm)
    v_states = enumerate_states(rbm.n_visible)
    h_states = enumerate_states(rbm.n_hidden)
    mean_v = joint.sum(axis=1) @ v_states
    mean_h = joint.sum(axis=0) @ h_states
    corr_vh = v_states.T @ joint @ h_states
    return mean_v, mean_h, corr_vh


def exact_log_likelihood(rbm, data: np.ndarray) -> float:
    """Exact average log likelihood of ``data`` rows under ``rbm``."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != rbm.n_visible:
        raise ValidationError(
            f"data has {data.shape[1]} features; RBM has {rbm.n_visible} visible units"
        )
    return float(np.mean(-rbm.free_energy(data) - exact_log_partition(rbm)))
