"""Stacked-vs-per-task parity of the three stacked programs.

``fused_local_adapt``, ``stacked_loss_backward`` and ``stacked_predict``
run K independent few-shot tasks as one block-diagonal autograd
program.  Their contract is **bit identity** with training, scoring and
backpropagating each task alone on its own :class:`UISClassifier`.
This suite asserts that contract directly over the axes that change the
stacked program (optimizer, class balancing, conversion handling, step
count, stack height), then pins that repeated and concurrent calls
share no hidden state.
"""

import threading

import numpy as np
import pytest

from repro.core.meta_learner import UISClassifier
from repro.nn import (SGD, Adam, BatchedUISClassifier, Parameter,
                      fused_local_adapt, grad_stacks, stacked_loss_backward,
                      stacked_predict)
from repro.nn.functional import (balanced_pos_weight, batched_pos_weight,
                                 binary_cross_entropy_with_logits)

KU, WIDTH, EMBED, HIDDEN = 6, 5, 4, 3


def make_models(k, use_conversion=False, seed=0):
    return [UISClassifier(ku=KU, input_width=WIDTH, embed_size=EMBED,
                          hidden_size=HIDDEN, use_conversion=use_conversion,
                          seed=seed * 97 + i) for i in range(k)]


def make_task_data(k, n, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(k, KU))
    xs = rng.normal(size=(k, n, WIDTH))
    ys = (rng.random(size=(k, n)) < 0.4).astype(np.float64)
    ys[:, 0] = 1.0  # both classes present in every task
    ys[:, 1] = 0.0
    return features, xs, ys


def make_conversions(k, seed=0):
    rng = np.random.default_rng(seed + 1000)
    return [rng.normal(size=(EMBED, 3 * EMBED)) * 0.3 for _ in range(k)]


def grads_of(named_params):
    return {name: None if p.grad is None else np.array(p.grad)
            for name, p in named_params}


def adapt_stacked(*, k=4, n=6, steps=2, optimizer="adam", balance=True,
                  use_conversion=False, seed=0, lr=0.05):
    """Run fused_local_adapt + stacked_predict and capture every
    observable output, sliced per task."""
    models = make_models(k, use_conversion=use_conversion, seed=seed)
    features, xs, ys = make_task_data(k, n, seed=seed)
    conversions = make_conversions(k, seed=seed) if use_conversion else None
    batched, conversion = fused_local_adapt(
        models, features, xs, ys, conversions=conversions, steps=steps,
        lr=lr, optimizer_kind=optimizer, balance_classes=balance)
    grads = grad_stacks(batched)
    preds = stacked_predict(batched, features, xs, conversion=conversion)
    batched.unstack_into(models)
    return [{
        "params": models[i].flat_parameters(),
        "grads": {name: None if g is None else g[i]
                  for name, g in grads.items()},
        "conv": None if conversion is None else conversion.data[i],
        "conv_grad": None if conversion is None else conversion.grad[i],
        "preds": preds[i],
    } for i in range(k)]


def adapt_alone(*, k=4, n=6, steps=2, optimizer="adam", balance=True,
                use_conversion=False, seed=0, lr=0.05):
    """The same K tasks, each adapted and scored on its own model."""
    models = make_models(k, use_conversion=use_conversion, seed=seed)
    features, xs, ys = make_task_data(k, n, seed=seed)
    conversions = make_conversions(k, seed=seed) if use_conversion else None
    tasks = []
    for i, model in enumerate(models):
        conv = Parameter(conversions[i]) if use_conversion else None
        trainable = list(model.parameters()) + \
            ([conv] if conv is not None else [])
        opt = Adam(trainable, lr=lr) if optimizer == "adam" \
            else SGD(trainable, lr=lr)
        pos_weight = balanced_pos_weight(ys[i]) if balance else None
        for _ in range(steps):
            opt.zero_grad()
            logits = model.forward(features[i], xs[i], conversion=conv)
            binary_cross_entropy_with_logits(
                logits, ys[i], pos_weight=pos_weight).backward()
            opt.step()
        tasks.append({
            "params": model.flat_parameters(),
            "grads": grads_of(model.named_parameters()),
            "conv": None if conv is None else conv.data,
            "conv_grad": None if conv is None else conv.grad,
            "preds": model.predict(features[i], xs[i], conversion=conv),
        })
    return tasks


def assert_same_array(a, b, what):
    assert (a is None) == (b is None), what
    if a is not None:
        # Stacked slices may carry singleton axes (a (K, 1, out) bias).
        assert np.array_equal(a, np.reshape(b, np.shape(a))), what


def assert_bit_identical(expected, actual):
    assert len(expected) == len(actual)
    for task, (ref, got) in enumerate(zip(expected, actual)):
        assert np.array_equal(ref["params"], got["params"]), task
        assert set(ref["grads"]) == set(got["grads"])
        for name in ref["grads"]:
            assert_same_array(ref["grads"][name], got["grads"][name],
                              (task, name))
        for key in ("conv", "conv_grad", "preds"):
            assert_same_array(ref[key], got[key], (task, key))


# -- parity matrix: adapt + predict ------------------------------------

ADAPT_CASES = [
    # (optimizer, balance, use_conversion, steps, k, n)
    ("adam", True, False, 1, 4, 6),
    ("adam", True, False, 3, 4, 6),
    ("adam", False, False, 2, 3, 5),
    ("adam", True, True, 2, 4, 6),
    ("adam", False, True, 3, 2, 7),
    ("sgd", True, False, 2, 4, 6),
    ("sgd", False, True, 2, 3, 5),
    ("adam", True, False, 2, 1, 4),   # single-task stack
]


@pytest.mark.parametrize("optimizer,balance,use_conversion,steps,k,n",
                         ADAPT_CASES)
def test_adapt_and_predict_parity(optimizer, balance, use_conversion,
                                  steps, k, n):
    kwargs = dict(optimizer=optimizer, balance=balance,
                  use_conversion=use_conversion, steps=steps, k=k, n=n,
                  seed=steps + k)
    assert_bit_identical(adapt_alone(**kwargs), adapt_stacked(**kwargs))


def test_repeated_adapt_stays_bit_identical():
    """Every call builds a fresh optimizer and graph: repeats of the
    same program cannot drift through leftover state."""
    ref = adapt_alone(seed=7)
    for _ in range(3):
        assert_bit_identical(ref, adapt_stacked(seed=7))


# -- parity: stacked_loss_backward (meta global phase / pretraining) ---

@pytest.mark.parametrize("conversion_mode", ["none", "array", "parameter"])
@pytest.mark.parametrize("balance", [True, False])
def test_loss_backward_parity(conversion_mode, balance):
    k, n, seed = 4, 6, 3
    use_conversion = conversion_mode != "none"
    features, xs, ys = make_task_data(k, n, seed=seed)
    conversions = make_conversions(k, seed=seed) if use_conversion else None

    batched = BatchedUISClassifier(make_models(k, use_conversion, seed))
    conversion = None
    if conversion_mode == "array":
        conversion = np.stack(conversions)
    elif conversion_mode == "parameter":
        conversion = Parameter(np.stack(conversions))
    pos_weight = batched_pos_weight(ys) if balance else None
    losses = stacked_loss_backward(batched, conversion, features, xs, ys,
                                   pos_weight)
    stacked_grads = grads_of(batched.named_parameters())

    assert losses.shape == (k,)
    for i, model in enumerate(make_models(k, use_conversion, seed)):
        conv = None
        if conversion_mode == "array":
            conv = conversions[i]
        elif conversion_mode == "parameter":
            conv = Parameter(conversions[i])
        loss = binary_cross_entropy_with_logits(
            model.forward(features[i], xs[i], conversion=conv), ys[i],
            pos_weight=balanced_pos_weight(ys[i]) if balance else None)
        loss.backward()
        assert losses[i] == loss.item()
        for name, param in model.named_parameters():
            stacked = stacked_grads[name]
            assert_same_array(param.grad,
                              None if stacked is None else stacked[i], name)
        if conversion_mode == "parameter":
            assert np.array_equal(conversion.grad[i], conv.grad)


# -- no shared state across threads ------------------------------------

class TestThreadSafety:
    def test_concurrent_same_bucket_adapts_stay_bit_exact(self):
        """Shard workers and in-process sessions adapt the same shape
        bucket concurrently; no call may see another's buffers."""
        seeds = list(range(6))
        ref = {seed: adapt_alone(seed=seed) for seed in seeds}
        results, errors = {}, []

        def worker(seed):
            try:
                results[seed] = adapt_stacked(seed=seed)
            except Exception as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for seed in seeds:
            assert_bit_identical(ref[seed], results[seed])
