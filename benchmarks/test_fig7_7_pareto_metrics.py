"""E28 -- Fig 7.7/7.9: sensitivity / specificity / accuracy / HVR of
Pareto filtering.

Paper shape (averages over the full space): sensitivity 46.2%,
specificity 87.9%, accuracy 76.8%, HVR 97.0% -- i.e. specificity and HVR
high, sensitivity modest (missing clustered optima is acceptable).
"""

from conftest import get_space_data, simulated_watts, write_table

from repro.explore.pareto import pareto_metrics


def run_experiment():
    data = get_space_data()
    rows = {}
    for workload, points in data.items():
        true_points = []
        predicted_points = []
        for (_, sim, result), sim_watts in zip(
                points, simulated_watts(points)):
            true_points.append((sim.seconds, sim_watts))
            predicted_points.append((result.seconds, result.power_watts))
        rows[workload] = pareto_metrics(true_points, predicted_points)
    return rows


def test_fig7_7_pareto_metrics(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = ["E28 / Fig 7.7+7.9 -- Pareto filtering quality",
             f"{'workload':<12s} {'sens':>6s} {'spec':>6s} {'acc':>6s} "
             f"{'HVR':>6s} {'front':>6s}"]
    sums = [0.0, 0.0, 0.0, 0.0]
    for workload, metrics in rows.items():
        lines.append(
            f"{workload:<12s} {metrics.sensitivity:6.2f} "
            f"{metrics.specificity:6.2f} {metrics.accuracy:6.2f} "
            f"{metrics.hvr:6.2f} {metrics.true_front_size:6d}"
        )
        sums[0] += metrics.sensitivity
        sums[1] += metrics.specificity
        sums[2] += metrics.accuracy
        sums[3] += metrics.hvr
    n = len(rows)
    lines.append(
        f"{'MEAN':<12s} {sums[0] / n:6.2f} {sums[1] / n:6.2f} "
        f"{sums[2] / n:6.2f} {sums[3] / n:6.2f}"
    )
    lines.append("paper averages: sens 0.46 / spec 0.88 / acc 0.77 / "
                 "HVR 0.97")
    write_table("E28_fig7_7", lines)

    # Shape: specificity and HVR high; sensitivity allowed to be modest;
    # HVR is the headline metric (design-space coverage).
    assert sums[1] / n > 0.7      # specificity
    assert sums[3] / n > 0.75     # HVR
    assert sums[2] / n > 0.6      # accuracy
