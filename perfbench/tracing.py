"""The benchmark's own span recorder and the wrappers that feed it.

Spans are kept in memory and written out once, when the run ends.  Each
span records its name, start, end, parent span and the request id the
benchmark loop had set when it opened (one id per simulated user,
arrival batch, append or fit).  Timing comes from wrapping the public
functions and methods of each layer from here; the library itself is not
modified, and nothing here goes through ``repro.obs``, so a later change
to the library's own observability cannot change how this benchmark
measures.

The wrappers are installed only for a traced pass (:func:`instrument`)
and removed afterwards, so untraced passes run the library unmodified.
"""

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: Array reads and writes of the 14 element-wise operations in one
#: ``Adam.step`` over one parameter, counted per element the way the
#: STREAM add kernel counts its traffic (each input read and each output
#: written once).  Bytes moved per step = 8 * elements * ADAM_PASSES.
ADAM_PASSES = 32


class Recorder:
    """In-memory span tree plus per-name self time, calls and counts.

    Single-threaded by design: the benchmark drives the library from one
    thread, so spans nest strictly and a plain stack tracks the parent.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent, request]
        self._stack = []         # [span index, seconds covered by children]
        self._open_names = defaultdict(int)
        self.request = None
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.submitted = []      # perf_counter of labels not yet flushed
        self.managers = {}       # id -> every SessionManager that served

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request])
        self._stack.append([index, 0.0])
        self._open_names[name] += 1
        return index

    def close(self, index):
        end = time.perf_counter()
        top, child_seconds = self._stack.pop()
        if top != index:
            raise RuntimeError("span {} closed out of order".format(
                self.spans[index][0]))
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.self_seconds[span[0]] += duration - child_seconds
        self.calls[span[0]] += 1
        self._open_names[span[0]] -= 1
        if self._stack:
            self._stack[-1][1] += duration

    def inside(self, name):
        return self._open_names[name] > 0

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, key, value):
        self.counts[key] += value

    def root_seconds(self, since=0.0):
        """Summed duration of closed root spans that started at or after
        ``since`` (perf_counter seconds)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None and end is not None and start >= since)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")


def _wrap(function, name, recorder, after=None, skip_inside=(),
          before=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if any(recorder.inside(owner) for owner in skip_inside):
            return function(*args, **kwargs)
        if before is not None:
            before(recorder, args)
        index = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result
    return wrapper


def _count_encode_rows(recorder, args, kwargs, result):
    recorder.add("train.encode.rows", sum(
        len(task.support_x) + len(task.query_x) for task in args[0]))


def _count_adam(recorder, args, kwargs, result):
    elements = sum(p.data.size for p in args[0].params if p.grad is not None)
    recorder.add("nn.adam_step.bytes", 8.0 * elements * ADAM_PASSES)


def _count_rows(key, position):
    def count(recorder, args, kwargs, result):
        recorder.add(key, len(args[position]))
    return count


def _count_batch_rows(recorder, args, kwargs, result):
    # predict_adapted_batch(adapted_classifiers, tuple_vectors)
    recorder.add("core.classify.rows", len(args[0]) * len(args[1]))


def _count_refine_rows(recorder, args, kwargs, result):
    # refine_batch(optimizers, points, predictions_list)
    recorder.add("core.refine.rows", len(args[0]) * len(args[1]))


def _note_submit(recorder, args, kwargs, result):
    recorder.submitted.append(time.perf_counter())


def _queue_wait(recorder, args):
    now = time.perf_counter()
    recorder.add("serve.queue_wait.s",
                 sum(now - t for t in recorder.submitted))
    recorder.submitted.clear()


def _note_manager(recorder, args, kwargs, result):
    recorder.managers[id(args[0])] = args[0]


def _count_flush(recorder, args, kwargs, result):
    if result:
        recorder.add("serve.flush.busy_calls", 1)
        recorder.add("serve.flush.adaptations", result)


def _count_scan(recorder, args, kwargs, result):
    _note_manager(recorder, args, kwargs, result)
    scan = args[0].last_store_scan
    recorder.add("store.chunk_evals", scan["chunk_evals"])
    recorder.add("store.chunks_pruned", scan["pruned_skipped"])
    recorder.add("store.chunks_watermarked", scan["watermark_skipped"])


def _count_append(recorder, args, kwargs, result):
    recorder.add("store.append.rows", result)


def _targets():
    """(owner, attribute, span name, after-hook, skip-inside[, before-hook])
    per layer boundary.  Module-level functions are patched in the module that
    *calls* them, because callers bind them by name at import."""
    import repro.serve.manager as serve_manager
    import repro.train.engine as train_engine
    import repro.train.offline as train_offline
    from repro.core.framework import LTE
    from repro.core.meta_task import MetaTaskGenerator
    from repro.core.meta_training import AdaptedClassifier, MetaTrainer
    from repro.core.optimizer import FewShotOptimizer
    from repro.core.preprocessing import TabularPreprocessor
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.serve import SessionManager
    from repro.store import ChunkStore

    # The offline fit encodes meta-tasks through the same preprocessor
    # the online path uses; inside the fit that time belongs to the
    # training layers, not to online encoding.
    offline = ("core.prepare",)
    return [
        (LTE, "fit_offline", "core.prepare", None, ()),
        (train_offline, "run_offline_training", "train.offline", None, ()),
        (MetaTaskGenerator, "generate", "core.taskgen", None, ()),
        (train_offline, "encode_task_sets", "train.encode",
         _count_encode_rows, ()),
        (train_offline.OfflineRun, "step_epoch", "train.step_epoch", None,
         ()),
        (train_offline, "run_pretrain_epoch_pooled", "train.pretrain_epoch",
         None, ()),
        (train_offline, "run_pretrain_epoch_sequential",
         "train.pretrain_epoch", None, ()),
        (train_offline, "_run_meta_epoch", "train.meta_epoch", None, ()),
        (train_engine, "build_meta_batch_inputs", "train.meta.build", None,
         ()),
        (train_engine, "compute_meta_batch", "train.meta.compute", None, ()),
        (train_engine, "apply_meta_batch", "train.meta.apply", None, ()),
        (Adam, "step", "nn.adam_step", _count_adam, ()),
        (Tensor, "backward", "nn.backward", None, ()),
        (MetaTrainer, "adapt", "core.adapt", None, ()),
        (TabularPreprocessor, "transform", "core.encode",
         _count_rows("core.encode.rows", 1), offline),
        (AdaptedClassifier, "predict_proba", "core.classify",
         _count_rows("core.classify.rows", 1), offline),
        (serve_manager, "predict_adapted_batch", "core.classify",
         _count_batch_rows, ()),
        (FewShotOptimizer, "refine_batch", "core.refine",
         _count_refine_rows, ()),
        (FewShotOptimizer, "fit", "core.optimizer_fit", None, ()),
        (SessionManager, "submit_labels", "serve.submit", _note_submit, ()),
        (SessionManager, "flush", "serve.flush", _count_flush, (),
         _queue_wait),
        (serve_manager, "run_adapt_requests", "serve.adapt_requests", None,
         ()),
        (SessionManager, "predict_many", "serve.predict_many",
         _note_manager, ()),
        (SessionManager, "predict_many_store", "store.scan", _count_scan,
         ()),
        (ChunkStore, "append_blocks", "store.append", _count_append, ()),
    ]


@contextmanager
def instrument(recorder):
    """Wrap every layer boundary for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name, after, skip, *before in _targets():
            raw = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            saved.append((owner, attribute, raw))
            if isinstance(raw, staticmethod):
                patched = staticmethod(_wrap(raw.__func__, name, recorder,
                                             after, skip, *before))
            else:
                patched = _wrap(raw, name, recorder, after, skip, *before)
            setattr(owner, attribute, patched)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)
