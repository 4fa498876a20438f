"""E20 -- Fig 6.9/6.10: power accuracy across the design space.

Paper shape: 4.3% average power error over the 243-core space, with high
predicted-vs-simulated correlation.
"""

from conftest import get_space_data, simulated_watts, write_table

import numpy as np


def run_experiment():
    data = get_space_data()
    results = {}
    for name, rows in data.items():
        results[name] = [
            (sim_watts, model_result.power_watts)
            for sim_watts, (_, _, model_result) in zip(
                simulated_watts(rows), rows)
        ]
    return results


def test_fig6_9_design_space_power(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = ["E20 / Fig 6.9+6.10 -- design space power accuracy "
             "(27 cores x 3 workloads)"]
    all_errors = []
    for name, points in results.items():
        sims = np.array([s for s, _ in points])
        models = np.array([m for _, m in points])
        errors = np.abs(models - sims) / sims
        correlation = float(np.corrcoef(sims, models)[0, 1])
        all_errors.extend(errors.tolist())
        lines.append(
            f"{name:<12s} mean err {errors.mean():6.1%}  "
            f"max err {errors.max():6.1%}  corr {correlation:5.2f}"
        )
        assert correlation > 0.9, name
    mean_error = float(np.mean(all_errors))
    lines.append(f"OVERALL mean |power error|: {mean_error:.1%}  "
                 f"(paper design-space figure: 4.3%)")
    write_table("E20_fig6_9", lines)

    # Shape: power error across the space stays well under the
    # performance error (the paper's 4.3% vs 9.3% relationship).
    assert mean_error < 0.15
