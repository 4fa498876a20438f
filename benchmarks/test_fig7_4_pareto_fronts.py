"""E27 -- Fig 7.4/7.5: Pareto frontiers, model vs simulator.

Paper shape: the model's delay/power frontier overlays the simulated one
closely enough that picking from the predicted frontier is safe.
"""

from conftest import get_space_data, simulated_watts, write_table

from repro.explore.pareto import pareto_front


def run_experiment():
    data = get_space_data()
    rows = {}
    for workload, points in data.items():
        true_points = []
        predicted_points = []
        names = []
        for (config, sim, result), sim_watts in zip(
                points, simulated_watts(points)):
            true_points.append((sim.seconds, sim_watts))
            predicted_points.append((result.seconds, result.power_watts))
            names.append(config.name)
        rows[workload] = (names, true_points, predicted_points)
    return rows


def test_fig7_4_pareto_fronts(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = ["E27 / Fig 7.4 -- Pareto frontiers (delay vs power)"]
    for workload, (names, true_points, predicted_points) in rows.items():
        true_front = set(pareto_front(true_points))
        predicted_front = set(pareto_front(predicted_points))
        overlap = len(true_front & predicted_front)
        lines.append(f"-- {workload}: true front {len(true_front)} "
                     f"designs, predicted {len(predicted_front)}, "
                     f"overlap {overlap}")
        for index in sorted(predicted_front):
            marker = "*" if index in true_front else " "
            lines.append(
                f"   {marker} {names[index]:<28s} "
                f"model ({predicted_points[index][0]:.3e}s, "
                f"{predicted_points[index][1]:.2f}W)  "
                f"sim ({true_points[index][0]:.3e}s, "
                f"{true_points[index][1]:.2f}W)"
            )
        # Shape: the predicted front shares designs with the true front.
        assert overlap >= 1, workload
        assert len(predicted_front) <= len(true_points) * 0.6
    write_table("E27_fig7_4", lines)
