"""``accel_dse``: cold evaluation of every (network, design) grid of Figs. 7-9
through the evaluation engine, with the evolutionary dataflow search (Alg. 2)
inside it.

One operation rebuilds one design after ``EvaluationEngine.
reset_shared_stores()`` and evaluates one network over ``PRECISIONS`` with
``persist=False``, so every operation searches from cold.  A pass runs all
``len(available_workloads()) * len(DESIGNS)`` operations in a seeded order;
a run is a whole number of passes, at least ``MIN_PASSES``.

``PYTHONPATH=src python3 -m perfbench.dse`` prints the digest of all
simulated statistics computed on the scalar reference path alone, for
comparison with the ``digest`` a run reports.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .workload import Clock, Phase, traced

PRECISIONS = (2, 4, 8, 16)
#: Seed of every design's evolutionary search (fixed: the run seed only
#: orders the operations).
SEARCH_SEED = 0
MIN_PASSES = 3
MEMORY = ("DRAM", "GlobalBuffer")
ENERGY = ("MAC", "DRAM", "GlobalBuffer", "RegisterFile")


def designs() -> Dict[str, Callable]:
    """The Fig. 7-9 line-up, as ``repro.experiments.accelerator_figures``
    builds it."""
    from repro.accelerator import (BitFusionAccelerator, StripesAccelerator,
                                   TwoInOneAccelerator)
    from repro.accelerator.optimizer import OptimizerConfig

    config = OptimizerConfig(population_size=12, total_cycles=3,
                             seed=SEARCH_SEED)
    return {
        "BitFusion": BitFusionAccelerator,
        "Stripes": lambda: StripesAccelerator(optimizer_config=config),
        "2-in-1": lambda: TwoInOneAccelerator(optimizer_config=config),
    }


def grid_stats(grid) -> np.ndarray:
    """Every simulated statistic of a grid as a (layers, precisions, 8)
    array: compute cycles, memory cycles per boundary, energy per component,
    spatial utilisation and mapping efficiency."""
    return np.stack([grid.compute_cycles]
                    + [grid.memory_cycles[b] for b in MEMORY]
                    + [grid.energy[c] for c in ENERGY]
                    + [grid.spatial_utilization, grid.mapping_efficiency],
                    axis=-1).astype(np.float64)


def reference_stats(accelerator, layers, precisions=PRECISIONS) -> np.ndarray:
    """The same array from ``Accelerator.evaluate_layer_reference``."""
    rows = []
    for layer in list(layers) + accelerator.extra_layers(layers):
        row = []
        for precision in precisions:
            perf = accelerator.evaluate_layer_reference(layer, precision)
            row.append([perf.compute_cycles]
                       + [perf.memory_cycles[b] for b in MEMORY]
                       + [perf.energy_breakdown[c] for c in ENERGY]
                       + [perf.spatial_utilization, perf.mapping_efficiency])
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def digest(stats: Dict[Tuple[Tuple[str, str], str], np.ndarray]) -> str:
    """sha256 over all statistics in (network, design) order."""
    hasher = hashlib.sha256()
    for key in sorted(stats):
        hasher.update(repr(key).encode())
        hasher.update(np.ascontiguousarray(stats[key]).tobytes())
    return hasher.hexdigest()[:16]


class AccelDSE:
    name = "accel_dse"
    tail_percentile = 75.0
    setup_reps = 5
    #: Benchmark-level span around each grid; see ``trace.unclaimed_share``.
    op_span = "bench.grid"

    def __init__(self, seed: int, scratch=None,
                 networks: Optional[Sequence[Tuple[str, str]]] = None,
                 min_passes: int = MIN_PASSES) -> None:
        self.seed = int(seed)
        self.networks = networks
        self.min_passes = int(min_passes)

    def setup(self) -> Dict[str, object]:
        """Layer lists and design constructors, plus one cold warm-up grid."""
        from repro.accelerator import (EvaluationEngine, available_workloads,
                                       network_layers)

        networks = list(self.networks or available_workloads())
        layers = {net: network_layers(*net) for net in networks}
        factories = designs()
        EvaluationEngine.reset_shared_stores()
        factories["BitFusion"]().evaluate_grid(layers[networks[0]],
                                               PRECISIONS, persist=False)
        EvaluationEngine.reset_shared_stores()
        ops = [(net, name) for net in networks for name in factories]
        return {"layers": layers, "designs": factories, "ops": ops}

    def close(self, rig) -> None:
        from repro.accelerator import EvaluationEngine

        EvaluationEngine.reset_shared_stores()

    def shutdown(self) -> None:
        pass

    # ------------------------------------------------------------------
    @staticmethod
    def _grid(factory, layers):
        from repro.accelerator import EvaluationEngine

        EvaluationEngine.reset_shared_stores()
        accelerator = factory()
        return accelerator, accelerator.evaluate_grid(layers, PRECISIONS,
                                                      persist=False)

    def measure(self, rig, seconds: float, tracer=None) -> Phase:
        layers, factories, ops = rig["layers"], rig["designs"], rig["ops"]
        rng = np.random.default_rng(self.seed)
        phase = Phase()
        digests: List[str] = []
        cache = {"misses": 0, "hits": 0}
        clock = Clock()
        passes = 0
        while passes < self.min_passes or clock.elapsed() < seconds:
            stats: Dict = {}
            kept: Dict = {}
            window = [0.0, 0.0]
            for k in rng.permutation(len(ops)):
                net, name = ops[k]
                phase.attempted += 1
                start = time.perf_counter()
                try:
                    accelerator, grid = traced(tracer, self.op_span, self._grid,
                                               factories[name], layers[net])
                except Exception as error:  # counted, reported, run continues
                    phase.failed += 1
                    phase.state.setdefault("errors", []).append(repr(error))
                    continue
                spent = time.perf_counter() - start
                phase.latencies_s.append(spent)
                phase.wall_s += spent
                phase.work += grid.total_cycles.size
                window[0] += grid.total_cycles.size
                window[1] += spent
                info = accelerator.engine.cache_info()
                cache["misses"] += info["misses"]
                cache["hits"] += info["hits"]
                stats[(net, name)] = grid_stats(grid)
                kept[(net, name)] = (accelerator, grid)
            digests.append(digest(stats))
            phase.windows.append(tuple(window))
            passes += 1
        clock.finish(phase)
        phase.state.update(layers=layers, kept=kept, stats=stats,
                           digests=digests, cache=cache, passes=passes)
        return phase

    # ------------------------------------------------------------------
    def check(self, phase: Phase) -> Dict[str, Optional[str]]:
        """Scalar reference, paper ordering and digest stability; ``None``
        is a pass."""
        state = phase.state
        results: Dict[str, Optional[str]] = {}
        layers, kept, stats = state["layers"], state["kept"], state["stats"]

        differing = [key for key, (accelerator, _) in kept.items()
                     if not np.array_equal(
                         reference_stats(accelerator, layers[key[0]]),
                         stats[key])]
        results["scalar_reference"] = None if kept and not differing else (
            f"grid cells differ from evaluate_layer_reference on "
            f"{differing[:3]}" if differing else "no grid evaluated")

        wrong = []
        for net in layers:
            if (net, "2-in-1") not in kept or (net, "BitFusion") not in kept:
                wrong.append((net, "missing"))
                continue
            ours, theirs = kept[(net, "2-in-1")][1], kept[(net, "BitFusion")][1]
            for j, bits in enumerate(PRECISIONS):
                if not (ours.throughput_fps()[j] > theirs.throughput_fps()[j]
                        and ours.network_energy()[j]
                        < theirs.network_energy()[j]):
                    wrong.append((net, bits))
        results["paper_ordering"] = None if not wrong else \
            f"2-in-1 does not beat Bit Fusion on throughput and energy at {wrong[:3]}"

        distinct = sorted(set(state["digests"]))
        results["digest_stable"] = None if len(distinct) == 1 else \
            f"passes gave different statistics: {distinct}"
        state["digest"] = state["digests"][-1]
        state["ratios"] = paper_ratios(kept)
        return results


def paper_ratios(kept) -> Dict[str, float]:
    """Modelled 2-in-1 / Bit Fusion throughput and Bit Fusion / 2-in-1
    energy, geometric means over networks, per precision."""
    out: Dict[str, float] = {}
    nets = sorted({net for net, _ in kept})
    for j, bits in enumerate(PRECISIONS):
        fps, energy = [], []
        for net in nets:
            if (net, "2-in-1") in kept and (net, "BitFusion") in kept:
                ours, theirs = kept[(net, "2-in-1")][1], kept[(net, "BitFusion")][1]
                fps.append(ours.throughput_fps()[j] / theirs.throughput_fps()[j])
                energy.append(theirs.network_energy()[j]
                              / ours.network_energy()[j])
        if fps:
            out[f"throughput_x_{bits}b"] = float(np.exp(np.mean(np.log(fps))))
            out[f"energy_eff_x_{bits}b"] = float(np.exp(np.mean(np.log(energy))))
    return out


def reference_digest(networks=None) -> str:
    """Digest of every (network, design) grid computed only through
    ``evaluate_layer_reference`` on fresh accelerators."""
    from repro.accelerator import (EvaluationEngine, available_workloads,
                                   network_layers)

    stats = {}
    for net in networks or available_workloads():
        layers = network_layers(*net)
        for name, factory in designs().items():
            EvaluationEngine.reset_shared_stores()
            stats[(net, name)] = reference_stats(factory(), layers)
    return digest(stats)


if __name__ == "__main__":
    print(reference_digest())
