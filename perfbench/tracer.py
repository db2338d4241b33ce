"""In-memory span tracer installed from the benchmark's side.

Every trace point wraps one public function or method of the program at the
name its callers resolve (``input_gradient`` is bound into
``repro.defense.adversarial`` at import time, so that binding is the one
wrapped).  A span is ``[id, name, start, end, parent id, phase]``; parents
come from a per-thread stack, so spans opened in the serving executor thread
nest there.  Spans and counts stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, span name, optional amount(args, result)).
#: ``amount`` feeds the counter ``<span name>:amount``.
TRACE_POINTS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("repro.core.rps", "RPSTrainer.train_batch", "defense.train_batch", None),
    ("repro.defense.adversarial", "input_gradient",
     "attacks.input_gradient", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward", None),
    ("repro.nn.functional", "conv2d", "nn.conv2d", None),
    ("repro.nn.functional", "batch_norm", "nn.batch_norm", None),
    ("repro.nn.functional", "relu", "nn.relu", None),
    ("repro.nn.functional", "linear", "nn.linear", None),
    ("repro.quantization.quantized_modules", "fake_quantize",
     "quant.fake_quantize", None),
    ("repro.core.rps", "set_model_precision", "quant.set_precision", None),
    ("repro.nn.optim", "SGD.step", "optim.step", None),
    ("repro.checkpoint", "CheckpointManager.save", "ckpt.save",
     lambda args, result: result.stat().st_size),
    ("repro.inference.session", "InferenceSession.predict",
     "inference.predict", lambda args, result: len(args[1])),
    ("repro.inference.session", "CompiledPrecisionPlan",
     "inference.plan_build", None),
    ("repro.nn.functional", "conv2d_infer", "nn.conv2d_infer", None),
    ("repro.nn.functional", "channel_affine_infer",
     "nn.channel_affine_infer", None),
    ("repro.accelerator.optimizer.evolutionary",
     "EvolutionaryDataflowOptimizer.optimize_layer",
     "accel.optimize_layer", None),
    ("repro.accelerator.optimizer.evolutionary", "batched_summary_metrics",
     "accel.batched_metrics", lambda args, result: len(args[3])),
)


class Tracer:
    """Spans and counters of one traced run, split by phase."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, args, kwargs,
             amount: Optional[Callable] = None):
        stack = self._stack()
        record = [next(self._ids), name, time.perf_counter(), None,
                  stack[-1] if stack else 0, self.phase]
        stack.append(record[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            self.spans.append(record)
        if amount is not None:
            self.add(name + ":amount", amount(args, result))
        return result

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self._counts[(self.phase, counter)] += value

    def count(self, counter: str, phase: str = "measure") -> float:
        return self._counts.get((phase, counter), 0.0)

    # -- installation ----------------------------------------------------
    def _wrap(self, owner: object, attr: str, name: str,
              amount: Optional[Callable]) -> None:
        # Methods are taken from the class's own namespace, so uninstall
        # restores exactly what was there.
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, original, args, kwargs, amount)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, points=TRACE_POINTS) -> None:
        for module_name, path, name, amount in points:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self._wrap(owner, attr, name, amount)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def summary(self, phase: str = "measure") -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``time_s`` and ``self_s`` (time
        not covered by a direct child span)."""
        children: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                children[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, _, span_phase in self.spans:
            if span_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["time_s"] += end - start
            entry["self_s"] += end - start - children.get(span_id, 0.0)
        return dict(out)

    def dump(self, path) -> None:
        """Write every span and counter out as JSON."""
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "phase"],
            "spans": self.spans,
            "counts": [[phase, name, value]
                       for (phase, name), value in sorted(self._counts.items())],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
