"""``rps_train``: RPS PGD adversarial training (Alg. 1, lines 1-12) through
``RPSTrainer.fit`` with epoch-boundary checkpoints.

One round is one ``fit`` call on a freshly built model with the same seed:
``TRAIN_SIZE / BATCH`` steps per epoch for ``EPOCHS`` epochs, each epoch
ending in a checkpoint save.  Every round does identical work, so a run is
a whole number of identical rounds.  An operation is one training step,
timed from the start of its ``train_batch`` to the start of the next (the
last to the end of ``fit``), so a step that ends an epoch carries its
checkpoint save.
"""

from __future__ import annotations

import copy
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .workload import Clock, Phase, traced

PRECISIONS = (3, 4, 6)
MODEL = "preact_resnet18"
SCALE = 8
BATCH = 64
TRAIN_SIZE = 128          # 2 steps per epoch
EPOCHS = 4                # 4 checkpoint saves per round
#: Float32 slack allowed on the PGD ball / box bounds.
BALL_TOL = 1e-6
#: Floors of the reference-backend replay (see ``check_reference``): over 74
#: sampled mid-run states the two updates had cosine 0.865-1.0 (median 1.0)
#: and norm ratio 0.99-1.03.
REFERENCE_MIN_COSINE = 0.7
REFERENCE_NORM_RATIO = (0.9, 1.1)


class RPSTrain:
    name = "rps_train"
    tail_percentile = 75.0
    setup_reps = 3
    #: Benchmark-level span around each round; see ``trace.unclaimed_share``.
    op_span = "bench.round"

    def __init__(self, seed: int, scratch: Path, train_size: int = TRAIN_SIZE,
                 epochs: int = EPOCHS) -> None:
        self.seed = int(seed)
        self.scratch = Path(scratch)
        self.train_size = int(train_size)
        self.epochs = int(epochs)
        self.steps_per_round = self.epochs * -(-self.train_size // BATCH)
        self._dirs: List[str] = []

    # ------------------------------------------------------------------
    def _trainer(self):
        from repro.core import RPSConfig, RPSTrainer
        from repro.experiments.common import DEFAULT_EPSILON, ExperimentBudget
        from repro.models import build_model
        from repro.quantization import PrecisionSet

        precisions = PrecisionSet(list(PRECISIONS))
        model = build_model(MODEL, num_classes=10, precisions=precisions,
                            scale=SCALE, seed=self.seed)
        config = RPSConfig(epochs=self.epochs, batch_size=BATCH, lr=0.05,
                           method="pgd", epsilon=DEFAULT_EPSILON,
                           attack_steps=ExperimentBudget.quick().attack_steps,
                           precision_set=precisions, seed=self.seed)
        return RPSTrainer(model, config)

    def _fresh_dir(self) -> str:
        self.scratch.mkdir(parents=True, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="ckpt-", dir=self.scratch)
        self._dirs.append(directory)
        return directory

    def setup(self) -> Dict[str, object]:
        """Dataset, model and trainer, plus one warm-up step (workspace fill)
        on a throwaway trainer."""
        from repro.data import make_dataset

        data = make_dataset("cifar10", train_size=self.train_size,
                            test_size=BATCH, seed=self.seed)
        warm = self._trainer()
        warm.train_batch(data.x_train[:BATCH], data.y_train[:BATCH])
        return {"data": data}

    def close(self, rig) -> None:
        pass

    def shutdown(self) -> None:
        """Remove every checkpoint directory the run made."""
        while self._dirs:
            shutil.rmtree(self._dirs.pop(), ignore_errors=True)

    # ------------------------------------------------------------------
    def _instrument(self, trainer, starts: List[float], ball: Dict) -> None:
        """Per-step start times and the PGD ball bound of every adversarial
        batch, recorded on this trainer instance only."""
        cls = type(trainer)
        generate = trainer.generate_adversarial
        epsilon = trainer.config.epsilon

        def train_batch(x, y):
            starts.append(time.perf_counter())
            return cls.train_batch(trainer, x, y)

        def generate_adversarial(x, y):
            x_adv = generate(x, y)
            excess = max(float(np.max(np.abs(x_adv - x))) - epsilon,
                         -float(x_adv.min()), float(x_adv.max()) - 1.0)
            ball["batches"] += 1
            ball["excess"] = max(ball["excess"], excess)
            return x_adv

        trainer.train_batch = train_batch
        trainer.generate_adversarial = generate_adversarial

    def measure(self, rig, seconds: float, tracer=None) -> Phase:
        from repro.checkpoint import CheckpointManager

        data = rig["data"]
        phase = Phase()
        ball = {"batches": 0, "excess": -np.inf}
        first_state: Optional[Dict[str, np.ndarray]] = None
        rounds_equal = True
        clock = Clock()
        while True:
            trainer = self._trainer()
            manager = CheckpointManager(self._fresh_dir())
            starts: List[float] = []
            self._instrument(trainer, starts, ball)
            phase.attempted += self.steps_per_round
            begin = time.perf_counter()
            try:
                traced(tracer, self.op_span, trainer.fit, data.x_train,
                       data.y_train, checkpoint=manager)
            except Exception as error:  # counted, reported, run continues
                phase.failed += self.steps_per_round
                phase.state.setdefault("errors", []).append(repr(error))
            else:
                end = time.perf_counter()
                samples = len(data.x_train) * self.epochs
                phase.wall_s += end - begin
                phase.work += samples
                phase.windows.append((samples, end - begin))
                marks = starts + [end]
                phase.latencies_s += [b - a for a, b in zip(marks, marks[1:])]
                state = trainer.model.state_dict()
                if first_state is None:
                    first_state = state
                else:
                    rounds_equal &= _states_equal(first_state, state)
                phase.state.update(trainer=trainer, manager=manager)
            # The recorders close a reference cycle through the trainer;
            # dropping them lets each round's model be freed at once, so
            # peak memory does not depend on how many rounds a run fits.
            del trainer.train_batch, trainer.generate_adversarial
            if clock.elapsed() >= seconds:
                break
        clock.finish(phase)
        phase.state.update(ball=ball, rounds_equal=rounds_equal,
                           data=data, steps_per_round=self.steps_per_round)
        return phase

    # ------------------------------------------------------------------
    def check(self, phase: Phase) -> Dict[str, Optional[str]]:
        """Correctness checks on the measured phase; ``None`` is a pass."""
        state = phase.state
        if "trainer" not in state:
            return {"completed_round": "no round completed"}
        results: Dict[str, Optional[str]] = {}
        ball = state["ball"]
        steps = phase.attempted - phase.failed
        results["pgd_ball"] = None if (
            ball["batches"] == steps and ball["excess"] <= BALL_TOL) else (
            f"{ball['batches']} adversarial batches for {steps} steps, worst "
            f"excess over the eps-ball/[0,1] box {ball['excess']:.3g}")
        results["checkpoint"] = check_checkpoint(
            state["manager"], state["trainer"], state["steps_per_round"])
        results["rounds_identical"] = None if state["rounds_equal"] else \
            "rounds with the same seed ended in different weights"
        results["reference_backend"] = self.check_reference(state)
        return results

    def check_reference(self, state: Dict) -> Optional[str]:
        """Replay one step from the oldest checkpoint still in the ring (a
        mid-run state) on the default and on the ``reference`` backend.

        Both replays get the same adversarial batch, made once on the
        default backend: PGD's sign step turns last-bit differences into
        whole-alpha pixel moves, so fresh attacks per backend would compare
        two different batches.  At 3-6 bits even one weight update is not
        elementwise reproducible across backends (one flipped rounding
        moves an activation by a whole quantisation step), so the check
        compares the update's direction and size.
        """
        from repro.checkpoint import CheckpointManager, restore_training_state
        from repro.nn import functional as F
        from repro.quantization import set_model_precision

        manager, data = state["manager"], state["data"]
        step = manager.steps()[0]
        replay_dir = Path(self._fresh_dir())
        shutil.copy(manager.path_for(step), replay_dir)
        payload = CheckpointManager(replay_dir).load_latest()
        if payload is None:
            return f"checkpoint of step {step} does not reload"
        x, y = data.x_train[:BATCH], data.y_train[:BATCH]

        def restored():
            trainer = self._trainer()
            restore_training_state(trainer, copy.deepcopy(payload))
            return trainer

        maker = restored()
        set_model_precision(maker.model, maker.sample_training_precision())
        maker.model.train()
        x_adv = maker.generate_adversarial(x, y)

        deltas = []
        for backend in (F.get_backend(), "reference"):
            trainer = restored()
            trainer.generate_adversarial = lambda *_: x_adv
            with F.use_backend(backend):
                trainer.train_batch(x, y)
            after = dict(trainer.model.named_parameters())
            deltas.append(np.concatenate([
                (after[name].data - payload["model"][name]).ravel()
                for name in sorted(after)]))
        default, reference = deltas
        norms = np.linalg.norm(default), np.linalg.norm(reference)
        cosine = float(default @ reference / (norms[0] * norms[1]))
        ratio = float(norms[1] / norms[0])
        state["reference_update"] = {"cosine": cosine, "norm_ratio": ratio}
        low, high = REFERENCE_NORM_RATIO
        if cosine >= REFERENCE_MIN_COSINE and low <= ratio <= high:
            return None
        return (f"reference-backend update disagrees: cosine {cosine:.4f} "
                f"(floor {REFERENCE_MIN_COSINE}), norm ratio {ratio:.4f}")


def _states_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a)


def check_checkpoint(manager, trainer, steps: int) -> Optional[str]:
    """The newest checkpoint reloads through its checksum and holds the
    final weights bit for bit."""
    payload = manager.load_latest()
    if payload is None:
        return "no readable checkpoint"
    if payload.get("step") != steps:
        return f"newest checkpoint is step {payload.get('step')}, not {steps}"
    if not _states_equal(payload["model"], trainer.model.state_dict()):
        return "newest checkpoint differs from the final weights"
    return None
