"""Reduced-size runs of every workload, failure counting, and each
correctness check failing on a deliberately perturbed output."""

import copy

import numpy as np
import pytest

from perfbench import run as runner
from perfbench.dse import AccelDSE, reference_digest
from perfbench.layers import PER_LAYER
from perfbench.serve import RPSServe
from perfbench.train import RPSTrain, check_checkpoint

SMALL_NET = [("alexnet", "imagenet")]


def small_train(tmp_path):
    # 64 samples at batch 64: one step per epoch, two checkpointed epochs.
    return RPSTrain(seed=3, scratch=tmp_path, train_size=64, epochs=2)


# ---------------------------------------------------------------------------
# Smoke runs through the runner
# ---------------------------------------------------------------------------

def test_train_smoke_traced(tmp_path):
    metrics, record, attempted, failed, correct = runner.run(
        small_train(tmp_path), seconds=0, trace=True)
    assert correct, record["checks"]
    assert (attempted, failed) == (4, 0)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["attacks.input_gradient_calls"] == 3.0
    assert metrics["ckpt.saves"] == 1.0
    assert metrics["defense.train_batch_ms"] > 0
    assert not list(tmp_path.iterdir())          # checkpoint rings removed


def test_serve_smoke(tmp_path):
    metrics, record, attempted, failed, correct = runner.run(
        RPSServe(seed=3, callers=4, warmup=16), seconds=0.5, trace=False)
    assert correct, record["checks"]
    assert attempted > 0 and failed == 0
    assert set(metrics) == {name for name, _ in runner.END_TO_END}
    assert all(value > 0 for value in metrics.values())


def test_dse_smoke_traced():
    workload = AccelDSE(seed=3, networks=SMALL_NET, min_passes=1)
    metrics, record, attempted, failed, correct = runner.run(
        workload, seconds=0, trace=True)
    assert correct, record["checks"]
    assert (attempted, failed) == (6, 0)     # two passes of three designs
    assert metrics["accel.cache_hits"] == 0  # every grid starts cold
    assert metrics["accel.cells_computed"] > 0
    assert record["digest"] == reference_digest(SMALL_NET)


# ---------------------------------------------------------------------------
# Failure counting
# ---------------------------------------------------------------------------

def test_dse_counts_failed_operations(monkeypatch):
    from perfbench import dse

    def broken():
        raise RuntimeError("injected")

    real = dse.designs
    monkeypatch.setattr(dse, "designs", lambda: {**real(), "broken": broken})
    workload = AccelDSE(seed=1, networks=SMALL_NET, min_passes=2)
    phase = workload.measure(workload.setup(), seconds=0)
    assert (phase.attempted, phase.failed) == (8, 2)
    assert len(phase.latencies_s) == 6


def test_train_counts_a_failed_round(tmp_path, monkeypatch):
    from repro.core import RPSTrainer

    workload = small_train(tmp_path)
    rig = workload.setup()

    def fit(self, *args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(RPSTrainer, "fit", fit)
    phase = workload.measure(rig, seconds=0)
    workload.shutdown()
    assert (phase.attempted, phase.failed) == (2, 2)
    assert workload.check(phase) == {"completed_round": "no round completed"}


def test_serve_counts_failed_requests():
    from repro.inference import InferenceSession

    workload = RPSServe(seed=2, callers=4, warmup=8)
    rig = workload.setup()
    predict = InferenceSession.predict

    def flaky(self, x, precision=None, batch_size=None):
        if precision.key == 4:
            raise RuntimeError("injected")
        return predict(self, x, precision, batch_size=batch_size)

    InferenceSession.predict = flaky
    try:
        phase = workload.measure(rig, seconds=0.3)
    finally:
        InferenceSession.predict = predict
        workload.close(rig)
        workload.shutdown()
    assert 0 < phase.failed < phase.attempted
    assert phase.attempted == len(phase.latencies_s) + phase.failed


# ---------------------------------------------------------------------------
# Perturbed outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def served():
    workload = RPSServe(seed=4, callers=4, warmup=16)
    rig = workload.setup()
    phase = workload.measure(rig, seconds=0.5)
    yield workload, phase
    workload.close(rig)
    workload.shutdown()


def test_serve_checks_pass_unperturbed(served):
    workload, phase = served
    assert all(v is None for v in workload.check(phase).values())


def test_serve_flipped_request_label_fails_routing(served):
    workload, phase = served
    bad = copy.copy(phase)
    bad.state = dict(phase.state)
    index, label, latency, done = phase.state["results"][0]
    bad.state["results"] = [(index, (label + 1) % 10, latency, done)] \
        + phase.state["results"][1:]
    assert workload.check(bad)["routing"] is not None


@pytest.mark.parametrize("batch, check", [(0, "replay"), (1, "routing")])
def test_serve_flipped_batch_label_fails(served, batch, check):
    """Batch 0 is replayed (every third one is); batch 1 is not, but its
    requests then disagree with the recorded row."""
    workload, phase = served
    bad = copy.copy(phase)
    bad.state = dict(phase.state)
    precision, rows, labels, spent = phase.state["batches"][batch]
    labels = labels.copy()
    labels[0] = (labels[0] + 1) % 10
    bad.state["batches"] = list(phase.state["batches"])
    bad.state["batches"][batch] = (precision, rows, labels, spent)
    assert workload.check(bad)[check] is not None


def test_dse_scaled_cell_fails_reference():
    workload = AccelDSE(seed=1, networks=SMALL_NET, min_passes=1)
    phase = workload.measure(workload.setup(), seconds=0)
    key = (SMALL_NET[0], "2-in-1")
    stats = phase.state["stats"][key]
    stats[2, 1, 0] *= 1.01
    assert workload.check(phase)["scalar_reference"] is not None


def test_dse_ordering_check_catches_a_swapped_design():
    workload = AccelDSE(seed=1, networks=SMALL_NET, min_passes=1)
    phase = workload.measure(workload.setup(), seconds=0)
    kept = phase.state["kept"]
    ours, theirs = (SMALL_NET[0], "2-in-1"), (SMALL_NET[0], "BitFusion")
    kept[ours], kept[theirs] = kept[theirs], kept[ours]
    assert workload.check(phase)["paper_ordering"] is not None


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    workload = small_train(tmp_path_factory.mktemp("ckpt"))
    phase = workload.measure(workload.setup(), seconds=0)
    yield workload, phase
    workload.shutdown()


def test_train_checks_pass_unperturbed(trained):
    workload, phase = trained
    assert all(v is None for v in workload.check(phase).values())


def test_train_reversed_reference_update_fails(trained, monkeypatch):
    from repro.nn import functional as F
    from repro.nn.optim import SGD

    workload, phase = trained
    step = SGD.step

    def reversed_on_reference(self):
        if F.get_backend() == "reference":
            for param in self.params:
                if param.grad is not None:
                    param.grad = -param.grad
        return step(self)

    monkeypatch.setattr(SGD, "step", reversed_on_reference)
    assert workload.check_reference(dict(phase.state)) is not None


def test_train_weight_bit_flip_fails_checkpoint(trained):
    workload, phase = trained
    trainer, manager = phase.state["trainer"], phase.state["manager"]
    param = trainer.model.parameters()[0]
    saved = param.data.copy()
    try:
        param.data.view(np.uint32).flat[0] ^= 1
        assert check_checkpoint(manager, trainer, 2) is not None
    finally:
        param.data[...] = saved
    assert check_checkpoint(manager, trainer, 2) is None


def test_train_corrupt_checkpoint_file_fails(trained, recwarn):
    workload, phase = trained
    trainer, manager = phase.state["trainer"], phase.state["manager"]
    path = manager.path_for(2)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1
    original = path.read_bytes()
    path.write_bytes(bytes(blob))
    try:
        assert check_checkpoint(manager, trainer, 2) is not None
    finally:
        path.write_bytes(original)


def test_train_escaped_adversarial_batch_fails_pgd_ball(tmp_path,
                                                       monkeypatch):
    from repro.defense.adversarial import AdversarialTrainer

    monkeypatch.setattr(
        AdversarialTrainer, "generate_adversarial",
        lambda self, x, y: np.clip(x + 2 * self.config.epsilon, 0.0, 1.0))
    workload = small_train(tmp_path)
    phase = workload.measure(workload.setup(), seconds=0)
    try:
        assert workload.check(phase)["pgd_ball"] is not None
    finally:
        workload.shutdown()
