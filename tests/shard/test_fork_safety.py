"""Forking a shard worker while the parent process adapts in-process.

``ShardGateway`` forks its workers from whatever process builds it.  A
parent that is serving or training on another thread at that moment
hands the child a snapshot of every lock that thread held; any lock the
child later needs must therefore not be one an in-flight adaptation
holds.  The test below parks a thread inside ``fused_local_adapt``,
forks a worker, lets the thread loop on, and requires the worker's
first flush to answer well inside the RPC timeout.
"""

import threading

import numpy as np
import pytest
from _helpers import feed_session

from repro.core.meta_learner import UISClassifier
from repro.nn import BatchedUISClassifier, fused_local_adapt
from repro.shard import ShardGateway

pytestmark = pytest.mark.shard


class _ParkingClassifier(BatchedUISClassifier):
    """Stacked classifier whose first forward pauses the adapting thread
    until ``release`` is set, after announcing itself on ``inside``."""

    def __init__(self, models, park=None):
        super().__init__(models)
        self.park = park

    def forward(self, *args, **kwargs):
        if self.park is not None:
            inside, release = self.park
            self.park = None
            inside.set()
            release.wait(timeout=30.0)
        return super().forward(*args, **kwargs)


def _adapt_forever(stop, park):
    k, n, width = 2, 4, 5
    models = [UISClassifier(ku=6, input_width=width, embed_size=4,
                            hidden_size=3, seed=i) for i in range(k)]
    rng = np.random.default_rng(0)
    features = rng.normal(size=(k, 6))
    xs = rng.normal(size=(k, n, width))
    ys = (rng.random(size=(k, n)) < 0.5).astype(np.float64)
    while not stop.is_set():
        fused_local_adapt(models, features, xs, ys, steps=2, lr=0.05,
                          batched=_ParkingClassifier(models, park))
        park = None


def test_worker_forked_mid_adaptation_answers(shard_lte, shard_subspaces,
                                              make_oracle):
    stop, inside, release = (threading.Event(), threading.Event(),
                             threading.Event())
    thread = threading.Thread(target=_adapt_forever,
                              args=(stop, (inside, release)), daemon=True)
    thread.start()
    try:
        # Fork while the thread is mid-program, then let it loop on
        # beside the worker's own adaptation.
        assert inside.wait(timeout=30.0)
        with ShardGateway(shard_lte, n_workers=1,
                          rpc_timeout=20.0) as gateway:
            release.set()
            # Two sessions on the same subspaces share shape buckets, so
            # the worker's flush runs the stacked adapt program too.
            oracle = make_oracle(3)
            sids = [gateway.open_session(subspaces=shard_subspaces, seed=s)
                    for s in range(2)]
            for sid in sids:
                feed_session(gateway, oracle, sid)
            assert gateway.flush_all() > 0
            for sid in sids:
                result = gateway.poll(sid)
                assert result["errors"] == []
                assert len(result["ready"]) == len(shard_subspaces)
    finally:
        release.set()
        stop.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
