"""``rps_serve``: RPS inference as deployed (Alg. 1, lines 14-19) through the
in-process ``RPSServer``, driven by a closed loop.

``CALLERS`` asyncio callers share one event loop; each awaits
``RPSServer.submit`` before sending its next request.  Inputs cycle through
a seeded pool of ``POOL`` distinct images in a seeded order.  The server
runs its default ``ServingConfig`` apart from ``input_shape``, so every
request draws its precision from the server's default seed.  An operation
is one request, timed around ``submit``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .workload import Clock, Phase, steal_seconds

PRECISIONS = (3, 4, 6)
MODEL = "resnet50"
SCALE = 8
IMAGE = 16
CALLERS = 32
POOL = 512
#: Closed-loop requests served during set-up (workspace fill, first windows).
WARMUP_REQUESTS = 256
#: Training-mode forwards per precision that give the served model batch-norm
#: statistics; an untrained model's eval-mode logits reach ~1e4 at 3 bits.
CALIBRATION_BATCHES = 2
#: Equal time slices of a measured phase, and how many of the least stolen
#: ones the figures come from (see ``measure``).
WINDOWS = 8
QUIET_SLICES = 4
#: Seconds between two reads of the machine's stolen CPU time.
STEAL_PERIOD = 0.1
#: Every CHECK_EVERY-th executed batch is replayed through a fresh session
#: and re-run on the live module path; every request's routing is checked.
CHECK_EVERY = 3
#: Least share of sampled requests, per precision, whose served label must
#: equal the live module path's (see README: BN folding at 3-6 bits).
LIVE_MIN_AGREEMENT = 0.85


class RPSServe:
    name = "rps_serve"
    #: Requests of one executed batch finish together and share most of
    #: their latency, so the tail's samples are batches: a 2.5 s slice holds
    #: ~130 of them, and p90 is the highest percentile with ten beyond.
    tail_percentile = 90.0
    setup_reps = 3
    #: The executor's batch call; see ``trace.unclaimed_share``.
    op_span = "inference.predict"

    def __init__(self, seed: int, scratch=None, callers: int = CALLERS,
                 warmup: int = WARMUP_REQUESTS) -> None:
        self.seed = int(seed)
        self.callers = int(callers)
        self.warmup = int(warmup)
        rng = np.random.default_rng(self.seed)
        pool = rng.random((POOL, 3, IMAGE, IMAGE), dtype=np.float32)
        # The first pixel identifies an image inside an executed batch.
        pool[:, 0, 0, 0] = (rng.permutation(POOL) + 0.5) / POOL
        self.pool = pool
        self.key_index = {float(v): i for i, v in enumerate(pool[:, 0, 0, 0])}
        self.order = rng.permutation(POOL)
        self.calibration = rng.random((CALIBRATION_BATCHES * 64, 3, IMAGE,
                                       IMAGE), dtype=np.float32)
        self.loop = asyncio.new_event_loop()

    # ------------------------------------------------------------------
    def _model(self):
        from repro.models import build_model
        from repro.nn import workspace as nn_workspace
        from repro.nn.tensor import Tensor, no_grad
        from repro.quantization import PrecisionSet, set_model_precision

        precisions = PrecisionSet(list(PRECISIONS))
        model = build_model(MODEL, num_classes=10, precisions=precisions,
                            scale=SCALE, seed=self.seed)
        model.train()
        with no_grad():
            for precision in precisions:
                set_model_precision(model, precision)
                for start in range(0, len(self.calibration), 64):
                    model(Tensor(self.calibration[start:start + 64]))
                    nn_workspace.end_step()
        model.eval()
        return model, precisions

    def setup(self) -> Dict[str, object]:
        """Model build and BN calibration, session with warm plans, server
        start, and a closed-loop warm-up burst."""
        from repro.inference import InferenceSession
        from repro.serving import RPSServer, ServingConfig

        model, precisions = self._model()
        session = InferenceSession(model)
        session.warm(list(precisions), (1, 3, IMAGE, IMAGE))
        server = RPSServer(model, precisions,
                           ServingConfig(input_shape=(3, IMAGE, IMAGE)),
                           session=session)
        self.loop.run_until_complete(server.start())
        submissions: List[int] = []
        self.loop.run_until_complete(self._closed_loop(
            server, submissions, [], [], limit=self.warmup))
        return {"model": model, "precisions": precisions, "session": session,
                "server": server, "warmup_submissions": len(submissions)}

    def close(self, rig) -> None:
        self.loop.run_until_complete(rig["server"].stop())

    def shutdown(self) -> None:
        self.loop.close()

    # ------------------------------------------------------------------
    async def _closed_loop(self, server, submissions: List[int],
                           results: List[tuple], failures: List[str],
                           limit: Optional[int] = None,
                           deadline: Optional[float] = None) -> None:
        """Each caller awaits its reply before sending again; a caller stops
        once ``limit`` requests were sent or ``deadline`` passed."""

        async def caller() -> None:
            while True:
                if limit is not None and len(submissions) >= limit:
                    return
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                index = len(submissions)
                image = int(self.order[index % POOL])
                # The precision is drawn inside submit before its first
                # await, so this list is the draw order.
                submissions.append(image)
                start = time.perf_counter()
                try:
                    label = await server.submit(self.pool[image])
                except Exception as error:  # counted as a failed request
                    failures.append(repr(error))
                    continue
                done = time.perf_counter()
                results.append((index, label, done - start, done))

        await asyncio.gather(*(caller() for _ in range(self.callers)))

    def _record_batches(self, session, batches: List[tuple],
                        ends: List[float]) -> None:
        """Keep, per executed batch, its precision, the pool indices of its
        rows, the labels and the call's duration; and when it ended."""
        cls = type(session)
        key_index = self.key_index

        def predict(x, precision=None, batch_size=None):
            start = time.perf_counter()
            labels = cls.predict(session, x, precision, batch_size=batch_size)
            spent = time.perf_counter() - start
            rows = [key_index[v] for v in x[:, 0, 0, 0].tolist()]
            batches.append((precision, rows, labels.copy(), spent))
            ends.append(start + spent)
            return labels

        session.predict = predict

    def measure(self, rig, seconds: float, tracer=None) -> Phase:
        server, session = rig["server"], rig["session"]
        submissions: List[int] = []
        results: List[tuple] = []
        failures: List[str] = []
        batches: List[tuple] = []
        ends: List[float] = []
        self._record_batches(session, batches, ends)
        steal: List[Tuple[float, float]] = []
        clock = Clock()
        deadline = clock.wall0 + seconds
        try:
            self.loop.run_until_complete(_with_steal_samples(
                self._closed_loop(server, submissions, results, failures,
                                  deadline=deadline), steal))
        finally:
            del session.predict
        phase = clock.finish(Phase(wall_s=clock.elapsed()))
        phase.latencies_s = [latency for _, _, latency, _ in results]
        phase.work = len(results)

        # Equal time slices by completion time.  The figures come from the
        # QUIET_SLICES slices in which the hypervisor stole least CPU time:
        # four threads share two vCPUs here, so a stolen vCPU stalls the
        # BLAS threads' barrier and the executor together and a few percent
        # of steal costs tens of percent of throughput.
        width = phase.wall_s / WINDOWS
        edges = [clock.wall0 + width * i for i in range(WINDOWS + 1)]
        times, stolen = zip(*steal)
        slice_steal = np.diff(np.interp(edges, times, stolen))

        def slot(when: float) -> int:
            return min(max(int((when - clock.wall0) / width), 0), WINDOWS - 1)

        slices: List[List[float]] = [[] for _ in range(WINDOWS)]
        for _, _, latency, done in results:
            slices[slot(done)].append(latency)
        per_slice = [0] * WINDOWS
        for end in ends:
            per_slice[slot(end)] += 1
        quiet = sorted(np.argsort(slice_steal, kind="stable")[:QUIET_SLICES])
        phase.windows = [(len(slices[i]), width) for i in quiet]
        phase.latency_windows = [slices[i] for i in quiet]
        phase.state["tail_samples"] = min(per_slice[i] for i in quiet)
        phase.state["slice_steal_s"] = [round(float(v), 3)
                                        for v in slice_steal]
        phase.attempted = len(submissions)
        phase.failed = len(failures)
        phase.state.update(rig, submissions=submissions, results=results,
                           batches=batches, errors=failures[:5])
        return phase

    # ------------------------------------------------------------------
    def check(self, phase: Phase) -> Dict[str, Optional[str]]:
        """Draw replay and label routing for every request; exact replay
        through a fresh session and agreement with the live module path on
        a third of the batches.  ``None`` is a pass."""
        state = phase.state
        precisions = state["precisions"]
        submissions, batches = state["submissions"], state["batches"]
        results: Dict[str, Optional[str]] = {}

        # Replay the seeded per-request draws in submission order.
        rng = np.random.default_rng(state["server"].config.seed)
        for _ in range(state["warmup_submissions"]):
            precisions.sample(rng)
        drawn = [precisions.sample(rng).key for _ in submissions]
        expected: Dict[object, List[int]] = {p.key: [] for p in precisions}
        slot: Dict[int, tuple] = {}
        for index, key in enumerate(drawn):
            slot[index] = (key, len(expected[key]))
            expected[key].append(submissions[index])
        executed: Dict[object, List[int]] = {p.key: [] for p in precisions}
        served: Dict[object, List[int]] = {p.key: [] for p in precisions}
        for precision, rows, labels, _ in batches:
            executed[precision.key] += rows
            served[precision.key] += labels.tolist()
        bad = [key for key in expected if expected[key] != executed[key]]
        results["draws"] = None if not bad else (
            f"precision {bad[0]}: executed inputs differ from the seeded "
            f"draws replayed in submission order")

        if results["draws"] is not None:
            results["routing"] = "not checked: the draw replay failed"
        else:
            wrong = 0
            for index, label, _, _ in state["results"]:
                key, position = slot[index]
                wrong += served[key][position] != label
            results["routing"] = None if not wrong else \
                f"{wrong} requests got another label than their batch row"

        results["replay"], results["live_agreement"], agreement = \
            self._recompute(state["model"], batches)
        state["live_agreement"] = agreement
        return results

    def _recompute(self, model, batches):
        """Exact replay through a freshly built session, and the live module
        path, on every CHECK_EVERY-th executed batch."""
        from repro.inference import InferenceSession
        from repro.nn import workspace as nn_workspace
        from repro.nn.tensor import Tensor, no_grad
        from repro.quantization import set_model_precision

        session = InferenceSession(model)
        mismatched = 0
        agree: Dict[object, List[int]] = {}
        for precision, rows, labels, _ in batches[::CHECK_EVERY]:
            x = self.pool[rows]
            mismatched += int(np.sum(session.predict(x, precision) != labels))
            set_model_precision(model, precision)
            model.eval()
            with no_grad():
                live = model(Tensor(x)).data.argmax(axis=1)
            nn_workspace.end_step()
            counts = agree.setdefault(precision.key, [0, 0])
            counts[0] += int(np.sum(live == labels))
            counts[1] += len(rows)
        replay = None if not mismatched else \
            f"{mismatched} served labels differ from a fresh session's replay"
        shares = {str(key): a / n for key, (a, n) in agree.items() if n}
        low = {key: share for key, share in shares.items()
               if share < LIVE_MIN_AGREEMENT}
        live = None if shares and not low else (
            f"live-path agreement below {LIVE_MIN_AGREEMENT}: {low}")
        return replay, live, shares


async def _with_steal_samples(work, samples: List[Tuple[float, float]]):
    """Await ``work`` while reading the machine's stolen CPU time every
    STEAL_PERIOD, from just before it starts to just after it ends."""

    async def sample() -> None:
        while True:
            samples.append((time.perf_counter(), steal_seconds()))
            await asyncio.sleep(STEAL_PERIOD)

    sampler = asyncio.ensure_future(sample())
    try:
        await work
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        samples.append((time.perf_counter(), steal_seconds()))
