"""The three workloads: set-up, the measured loop and the correctness gates.

Every workload drives the library only through its public API, from one
thread.  Inputs are drawn from the run seed; the library sees only the
generated tables, labels and row blocks.
"""

import hashlib
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np

from repro.bench.workloads import convex_oracles
from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.data import make_sdss
from repro.explore import f1_score, run_lte_exploration
from repro.persist import model_fingerprint
from repro.serve import SessionManager
from repro.store import ChunkStore

clock = time.perf_counter

#: The quickstart table and configuration, at the paper-default model
#: shapes (ku=100, kq=200, embed 100, hidden 64): 4 subspaces, 80
#: meta-tasks each, 4 pretrain epochs + 1 meta epoch of 8 local steps.
TABLE_ROWS = 20_000
SETUP_REPEATS = 3
#: offline_fit times whole fits, at least MIN_FITS of them per run.
MIN_FITS = 2
EVAL_ROWS = 5_000

#: explore_closed: active-learning rounds per user and labels per round
#: and subspace, drawn as the most uncertain of a random candidate pool.
ROUNDS = 3
ROUND_LABELS = 5
CANDIDATES = 300

#: serve_ingest: fixed open-loop arrival rates (per second), run back to
#: back, and the share of the run each one gets.  Latencies are reported
#: at REPORTED_RATE, where the arrivals and the appends take about half of
#: one core, so a machine running slower for a while still answers
#: without a backlog and the figure measures the system, not a queue; the
#: short windows at the higher rates probe for max_rate_per_s.  An arrival
#: is answered within the SLO or counts as missed.  The first
#: LIVE_SESSIONS arrivals stay open for the whole run and re-answer over
#: the store after every append; every later arrival is answered over the
#: evaluation sample and closed.  Appends fall APPEND_PHASE_S after a whole
#: second, between two arrivals at REPORTED_RATE.
RATES = (2.0, 3.0, 4.0)
RATE_SHARES = (0.8, 0.1, 0.1)
REPORTED_RATE = 2.0
SLO_MS = 1000.0
LIVE_SESSIONS = 4
CHUNK_ROWS = 1024
APPEND_EVERY_S = 1.0
APPEND_PHASE_S = 0.25
APPEND_ROWS = 1024
PARITY_SAMPLES = 3

#: Quality floors: a run below them is wrong, not slow.
F1_FLOOR = 0.5


def quickstart_config():
    return LTEConfig(budget=30, n_tasks=80,
                     meta=MetaHyperParams(epochs=1, local_steps=8))


def tail(values):
    """(label, value): the highest percentile with at least ten samples
    beyond it; below eleven samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return "max", ordered[-1]
    return "p{}".format(int(100 * (n - 10) / n)), ordered[n - 11]


def latency_summary(seconds):
    """p50, tail and sample count of a list of durations, in ms."""
    label, worst = tail(seconds)
    return {"p50_ms": 1e3 * statistics.median(seconds),
            "tail_ms": 1e3 * worst, "tail": label, "n": len(seconds)}


def answer_digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class Run:
    """Counters, gates and the optional recorder of one benchmark run."""

    def __init__(self, seed, recorder=None):
        self.seed = seed
        self.recorder = recorder
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.gates = {}
        self.report = {}

    def call(self, function, *args, **kwargs):
        """One library operation, counted as attempted and, if it raises,
        as failed (the exception propagates to the unit's handler)."""
        self.attempted += 1
        try:
            return function(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def unit(self, name, request):
        """A root span for one unit of work, when tracing."""
        if not self.tracing:
            return nullcontext()
        self.recorder.request = request
        return self.recorder.span(name)

    def gate(self, name, passed):
        self.gates[name] = self.gates.get(name, True) and bool(passed)


def guarded(run, function, *args):
    """Run one unit of work.  A library operation that fails is logged
    and the loop goes on; any other exception is a fault of the benchmark
    itself and ends the run."""
    failed = run.failed
    try:
        return function(*args)
    except Exception:
        if run.failed == failed:
            raise
        traceback.print_exc(file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Context:
    """What set-up leaves for the measured loop."""

    table = None
    lte = None
    subspaces = None
    eval_rows = None
    setup_s = None


def warm_up(run, seed):
    """The whole pipeline once at toy size: offline fit, a direct session
    with one active-learning round, a managed session, a chunk store with
    an append.  Lazy imports and first-call costs land here instead of in
    the measured loop, and every layer is known to run before any number
    is taken."""
    with run.unit("bench.warmup", "setup"):
        table = make_sdss(n_rows=2_000, seed=seed + 1)
        lte = LTE(LTEConfig(
            budget=20, ku=20, kq=25, n_tasks=6,
            meta=MetaHyperParams(epochs=1, local_steps=2,
                                 pretrain_epochs=1),
            basic_steps=10, online_steps=3))
        run.call(lte.fit_offline, table)
        subspaces = list(lte.states)[:2]
        oracle, = convex_oracles(lte, subspaces, 1, psi_choices=(8,),
                                 seed=seed)
        session = run.call(lte.start_session, "meta_star", subspaces,
                           seed=seed)
        for subspace, tuples in session.initial_tuples().items():
            run.call(session.submit_labels, subspace,
                     oracle.label_subspace(subspace, tuples))
        subspace = subspaces[0]
        pool = subspace.project(table.data[:100])
        picked = run.call(session.most_uncertain, subspace, pool, k=3)
        run.call(session.add_labels, subspace, pool[picked],
                 oracle.label_subspace(subspace, pool[picked]))
        run.call(session.retrieve)
        manager = SessionManager(lte)
        sid = run.call(manager.open_session, "meta_star", subspaces,
                       seed=seed)
        for subspace, tuples in manager.initial_tuples(sid).items():
            run.call(manager.submit_labels, sid, subspace,
                     oracle.label_subspace(subspace, tuples))
        run.call(manager.predict_many, [sid], table.data[:500])
        store = ChunkStore.from_table(table, chunk_rows=256)
        run.call(store.append_blocks,
                 [make_sdss(n_rows=256, seed=seed + 2).data])
        run.call(manager.predict_many_store, [sid], store)


def fit(run, table):
    lte = LTE(quickstart_config())
    with run.unit("bench.fit", "fit"):
        start = clock()
        run.call(lte.fit_offline, table)
        seconds = clock() - start
    return lte, seconds


def setup(run, seed, with_fit):
    """Build the table and warm up SETUP_REPEATS times (the median is
    reported), then, for the online workloads, fit the quickstart model
    once."""
    ctx = Context()
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        with run.unit("data.table", "setup"):
            ctx.table = run.call(make_sdss, n_rows=TABLE_ROWS, seed=seed)
        warm_up(run, seed)
        times.append(clock() - start)
    ctx.setup_s = statistics.median(times)
    if with_fit:
        ctx.lte, offline_s = fit(run, ctx.table)
        ctx.setup_s += offline_s
        run.report["offline_s"] = offline_s
        ctx.subspaces = list(ctx.lte.states)[:2]
    ctx.eval_rows = ctx.table.sample_rows(EVAL_ROWS, seed=seed + 3)
    return ctx


# ----------------------------------------------------------------------
# offline_fit
# ----------------------------------------------------------------------
class OfflineFit:
    name = "offline_fit"
    fits_in_setup = False

    def plan(self, seconds, trace):
        return {"fits": 1} if trace else {"seconds": seconds}

    def measure(self, ctx, run, plan):
        times, prints, lag, lte = [], [], [], None
        start = previous = clock()
        tries = 0
        while True:
            if "fits" in plan and tries >= plan["fits"]:
                break
            if "seconds" in plan and tries >= MIN_FITS and \
                    clock() - start >= plan["seconds"]:
                break
            tries += 1
            lag.append(clock() - previous)
            fitted = guarded(run, fit, run, ctx.table)
            previous = clock()
            if fitted is None:
                continue
            lte, seconds = fitted
            times.append(seconds)
            prints.append(model_fingerprint(lte))
        run.gate("fits_deterministic", len(set(prints)) == 1)
        return {"busy_s": sum(times), "times": times, "lte": lte, "lag": lag,
                "outputs": prints[:1], "plan": {"fits": len(times)}}

    def quality(self, ctx, run, lte, seed, n=20):
        """F1 of meta_star explorations over the fitted model (the
        quickstart's check), after the timed fits."""
        subspaces = list(lte.states)[:2]
        f1s = []
        for oracle in convex_oracles(lte, subspaces, n, seed=seed):
            result = guarded(run, run.call, run_lte_exploration, lte,
                             oracle, ctx.eval_rows, "meta_star", subspaces)
            if result is not None:
                f1s.append(result.f1)
        return float(np.mean(f1s)) if f1s else 0.0

    def metrics(self, ctx, run, result, seed):
        times = result["times"]
        lat = latency_summary(times)
        f1 = self.quality(ctx, run, result["lte"], seed)
        run.gate("f1_floor", f1 >= F1_FLOOR)
        run.report.update({"offline_s": statistics.median(times),
                           "fits": len(times), "fit_f1": f1})
        return {"request_p50_ms": lat["p50_ms"],
                "request_tail_ms": lat["tail_ms"], "f1": f1,
                "samples": lat["n"], "tail": lat["tail"]}


# ----------------------------------------------------------------------
# explore_closed
# ----------------------------------------------------------------------
class User:
    def __init__(self, ctx, index, seed):
        rng = np.random.default_rng([seed, index])
        self.index = index
        self.seed = int(rng.integers(2 ** 31))
        self.oracle, = convex_oracles(ctx.lte, ctx.subspaces, 1,
                                      seed=int(rng.integers(2 ** 31)))
        self.pools = [rng.choice(len(ctx.table.data), CANDIDATES,
                                 replace=False) for _ in range(ROUNDS)]


class ExploreClosed:
    name = "explore_closed"
    fits_in_setup = True

    def plan(self, seconds, trace):
        return {"seconds": seconds / 2 if trace else seconds}

    def user(self, ctx, run, user, out):
        session = run.call(ctx.lte.start_session, "meta_star",
                           ctx.subspaces, seed=user.seed)
        oracle = user.oracle
        for subspace, tuples in session.initial_tuples().items():
            labels = oracle.label_subspace(subspace, tuples)
            start = clock()
            run.call(session.submit_labels, subspace, labels)
            out["adapt"].append(clock() - start)
        for pool in user.pools:
            rows = ctx.table.data[pool]
            busy = 0.0
            for subspace in ctx.subspaces:
                candidates = subspace.project(rows)
                start = clock()
                picked = run.call(session.most_uncertain, subspace,
                                  candidates, k=ROUND_LABELS)
                busy += clock() - start
                labels = oracle.label_subspace(subspace, candidates[picked])
                start = clock()
                run.call(session.add_labels, subspace, candidates[picked],
                         labels)
                busy += clock() - start
            out["round"].append(busy)
        start = clock()
        found = run.call(session.retrieve)
        out["retrieve"].append(clock() - start)
        truth = oracle.ground_truth(ctx.table.data)
        hits = int(oracle.ground_truth(found).sum()) if len(found) else 0
        denominator = len(found) + int(truth.sum())
        out["f1"].append(2.0 * hits / denominator if denominator else 0.0)
        out["outputs"].append((len(found), hits))

    def measure(self, ctx, run, plan):
        out = {"adapt": [], "round": [], "retrieve": [], "f1": [],
               "outputs": []}
        busy, index, lag = 0.0, 0, []
        start = previous = clock()
        while True:
            if "users" in plan and index >= plan["users"]:
                break
            if "seconds" in plan and index and clock() - start >= \
                    plan["seconds"]:
                break
            with run.unit("bench.user", index):
                user = User(ctx, index, run.seed)
                t0 = clock()
                lag.append(t0 - previous)
                guarded(run, self.user, ctx, run, user, out)
                previous = clock()
                busy += previous - t0
            index += 1
        out.update(busy_s=busy, lag=lag, plan={"users": index})
        return out

    def metrics(self, ctx, run, result, seed):
        adapt = latency_summary(result["adapt"])
        rounds = latency_summary(result["round"])
        retrieve = latency_summary(result["retrieve"])
        f1 = float(np.mean(result["f1"]))
        run.gate("f1_floor", f1 >= F1_FLOOR)
        run.report.update({
            "adapt_p50_ms": adapt["p50_ms"], "adapt_tail_ms": adapt["tail_ms"],
            "adapt_tail": "{} of {}".format(adapt["tail"], adapt["n"]),
            "round_p50_ms": rounds["p50_ms"],
            "round_tail_ms": rounds["tail_ms"],
            "round_tail": "{} of {}".format(rounds["tail"], rounds["n"]),
            "retrieve_p50_ms": retrieve["p50_ms"],
            "retrieve_n": retrieve["n"], "explore_f1": f1,
            "users": result["plan"]["users"]})
        return {"request_p50_ms": adapt["p50_ms"],
                "request_tail_ms": adapt["tail_ms"], "f1": f1,
                "samples": adapt["n"], "tail": adapt["tail"]}


# ----------------------------------------------------------------------
# serve_ingest
# ----------------------------------------------------------------------
class Arrival:
    """One user arriving with labels already given for the initial
    tuples; the direct session that produced those tuples is kept for the
    parity gate."""

    def __init__(self, ctx, index, seed, due, rate):
        rng = np.random.default_rng([seed, 1_000_000 + index])
        self.index = index
        self.due = due
        self.rate = rate
        self.seed = int(rng.integers(2 ** 31))
        self.oracle, = convex_oracles(ctx.lte, ctx.subspaces, 1,
                                      seed=int(rng.integers(2 ** 31)))
        self.direct = ctx.lte.start_session("meta_star", ctx.subspaces,
                                            seed=self.seed)
        self.labels = {
            subspace: self.oracle.label_subspace(subspace, tuples)
            for subspace, tuples in self.direct.initial_tuples().items()}
        self.truth = self.oracle.ground_truth(ctx.eval_rows)
        self.answer = None
        self.done = None


def schedule(ctx, seed, seconds, start):
    """Arrivals at each fixed rate for its share of the run, back to back,
    evenly spaced; appends every APPEND_EVERY_S over the whole span."""
    arrivals, offset = [], 0.0
    for rate, share in zip(RATES, RATE_SHARES):
        window = share * seconds
        for k in range(int(round(window * rate))):
            arrivals.append(Arrival(ctx, len(arrivals), seed,
                                    start + offset + k / rate, rate))
        offset += window
    rng = np.random.default_rng([seed, 2])
    appends = [(start + APPEND_EVERY_S * (j + 1) + APPEND_PHASE_S,
                make_sdss(n_rows=APPEND_ROWS,
                          seed=int(rng.integers(2 ** 31))).data)
               for j in range(int((offset - APPEND_PHASE_S) / APPEND_EVERY_S))]
    return arrivals, appends


def clustered_store(ctx):
    """The table as 1024-row chunks clustered on the first attribute of
    the first explored subspace, so zone maps prune and watermarks skip."""
    column = ctx.subspaces[0].columns[0]
    return ChunkStore.from_table(ctx.table, chunk_rows=CHUNK_ROWS) \
        .cluster_by(column)


class ServeIngest:
    name = "serve_ingest"
    fits_in_setup = True

    def plan(self, seconds, trace):
        return {"seconds": seconds / 2 if trace else seconds}

    def answer(self, ctx, run, state, batch):
        sids = []
        for arrival in batch:
            sid = run.call(state["manager"].open_session, "meta_star",
                           ctx.subspaces, seed=arrival.seed)
            run.call(state["manager"].submit_all_labels, sid,
                     arrival.labels)
            sids.append(sid)
        answers = run.call(state["manager"].predict_many, sids,
                           ctx.eval_rows)
        done = clock()
        for arrival, sid in zip(batch, sids):
            errors = state["manager"].poll(sid, advance=False)["errors"]
            if errors:
                run.failed += 1
                continue
            arrival.answer = answers[sid]
            arrival.done = done
            if len(state["live"]) < LIVE_SESSIONS:
                state["live"].append(sid)
            else:
                run.call(state["manager"].close_session, sid)

    def ingest(self, ctx, run, state, block):
        start = clock()
        run.call(state["store"].append_blocks, [block])
        live = list(state["live"])
        answers = run.call(state["manager"].predict_many_store, live,
                           state["store"])
        state["fresh"].append(clock() - start)
        state["last_store"] = answers

    def measure(self, ctx, run, plan):
        seconds = plan["seconds"]
        with run.unit("bench.inputs", None):
            store = clustered_store(ctx)
            arrivals, appends = schedule(ctx, run.seed, seconds, 0.0)
        state = {"manager": SessionManager(ctx.lte), "store": store,
                 "live": [], "fresh": [], "last_store": None}
        begin = clock() + 0.05
        for arrival in arrivals:
            arrival.due += begin
        appends = [(due + begin, block) for due, block in appends]
        lag, busy = [], 0.0
        i = j = 0
        while i < len(arrivals) or j < len(appends):
            now = clock()
            due = min(arrivals[i].due if i < len(arrivals) else np.inf,
                      appends[j][0] if j < len(appends) else np.inf)
            if due > now:
                with run.unit("bench.idle", None):
                    time.sleep(due - now)
                lag.append(clock() - due)
                continue
            batch = []
            while i < len(arrivals) and arrivals[i].due <= now:
                batch.append(arrivals[i])
                i += 1
            if batch:
                with run.unit("bench.arrivals", batch[0].index):
                    t0 = clock()
                    guarded(run, self.answer, ctx, run, state, batch)
                    busy += clock() - t0
            if j < len(appends) and appends[j][0] <= clock():
                with run.unit("bench.append", "append-{}".format(j)):
                    t0 = clock()
                    guarded(run, self.ingest, ctx, run, state, appends[j][1])
                    busy += clock() - t0
                j += 1
        self.gates(ctx, run, state, arrivals)
        return {"busy_s": busy, "arrivals": arrivals,
                "fresh": state["fresh"], "lag": lag, "plan": plan,
                "outputs": [answer_digest(a.answer) for a in arrivals
                            if a.answer is not None]}

    def gates(self, ctx, run, state, arrivals):
        """Managed answers equal a direct session's for a sample, and the
        last incremental store answers equal a full rescan."""
        sampled = [a for a in arrivals if a.answer is not None]
        step = max(1, len(sampled) // PARITY_SAMPLES)
        for arrival in sampled[::step][:PARITY_SAMPLES]:
            direct = arrival.direct
            for subspace, labels in arrival.labels.items():
                direct.submit_labels(subspace, labels)
            run.gate("manager_equals_direct", np.array_equal(
                direct.predict(ctx.eval_rows), arrival.answer))
        last = state["last_store"] or {}
        checked = 0
        for sid, answer in last.items():
            if sid in state["live"]:
                session = state["manager"].session(sid)
                run.gate("incremental_equals_rescan", np.array_equal(
                    session.predict_store(state["store"]), answer))
                checked += 1
        run.gate("incremental_equals_rescan", checked > 0)

    def metrics(self, ctx, run, result, seed):
        arrivals = result["arrivals"]
        by_rate, max_rate, held = {}, 0.0, True
        for rate in RATES:
            mine = [a for a in arrivals if a.rate == rate]
            seconds = [a.done - a.due if a.answer is not None else np.inf
                       for a in mine]
            summary = latency_summary(seconds)
            by_rate[rate] = summary
            # A rate counts only when every lower rate held too.
            held = held and summary["tail_ms"] <= SLO_MS \
                and seconds[-1] * 1e3 <= SLO_MS
            if held:
                max_rate = rate
        top = by_rate[REPORTED_RATE]
        answered = [a for a in arrivals if a.answer is not None]
        f1 = float(np.mean([f1_score(a.truth, a.answer) for a in answered]))
        run.gate("f1_floor", f1 >= F1_FLOOR)
        fresh = latency_summary(result["fresh"])
        run.report.update({
            "answer_p50_ms": top["p50_ms"], "answer_tail_ms": top["tail_ms"],
            "answer_tail": "{} of {} at {}/s".format(top["tail"], top["n"],
                                                     REPORTED_RATE),
            "max_rate_per_s": max_rate,
            "fresh_p50_ms": fresh["p50_ms"], "fresh_n": fresh["n"],
            "serve_f1": f1,
            "answer_p50_ms_by_rate": {r: s["p50_ms"]
                                      for r, s in by_rate.items()},
            "answer_tail_ms_by_rate": {r: s["tail_ms"]
                                       for r, s in by_rate.items()}})
        return {"request_p50_ms": top["p50_ms"],
                "request_tail_ms": top["tail_ms"], "f1": f1,
                "samples": top["n"], "tail": top["tail"]}


WORKLOADS = {w.name: w for w in (OfflineFit(), ExploreClosed(),
                                 ServeIngest())}
