"""E19 -- Fig 6.7 + §6.3.1: power stacks and absolute power accuracy.

Paper shape: power predictions are tighter than performance (3.4% average
on the reference core) because static power and structure sizes dominate;
both sides feed the same McPAT-style backend, differing only in predicted
vs measured activity factors.
"""

from conftest import get_profile, get_simulation, write_table

from repro.core import AnalyticalModel, nehalem
from repro.core.power import power_batch
from repro.workloads import workload_names


def run_experiment():
    model = AnalyticalModel()
    config = nehalem()
    rows = {}
    for name in workload_names():
        sim = get_simulation(name)
        (sim_power,), _, _, _ = power_batch([config], [sim.activity])
        predicted = model.predict(get_profile(name), config)
        rows[name] = (sim_power, predicted.power)
    return rows


def test_fig6_7_power_stacks(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = ["E19 / Fig 6.7 -- power stacks, model vs simulator-fed "
             "backend",
             f"{'benchmark':<14s} {'simW':>7s} {'modW':>7s} {'err':>7s} "
             f"{'static%':>8s}"]
    errors = []
    for name, (sim_power, model_power) in sorted(rows.items()):
        error = (model_power.total - sim_power.total) / sim_power.total
        errors.append(abs(error))
        lines.append(
            f"{name:<14s} {sim_power.total:7.2f} {model_power.total:7.2f} "
            f"{error:+7.1%} {model_power.static_total / model_power.total:8.1%}"
        )
    mean_error = sum(errors) / len(errors)
    lines.append(f"mean |power error|: {mean_error:.1%}  "
                 f"(paper reference-core figure: 3.4%)")
    write_table("E19_fig6_7", lines)

    # Shape: power error clearly tighter than the performance error band.
    assert mean_error < 0.12
    for name, (sim_power, model_power) in rows.items():
        assert model_power.total > 0 and sim_power.total > 0
