"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

One traced two-round run of the ``dse`` workload with every activity
shrunk; then: every declared metric appears with its declared unit in
both modes, host-time metrics are scaled by the host factor and nothing
else is, a corrupted reply or round result trips the output check
and fails the run, a run cut short by the round cap fails, and a
checkout without program sources exits non-zero without printing a
result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import campaign as campaign_module
from perfbench import run
from perfbench.campaign import (HOST_RATES, HOST_TIMES, Campaign, DseSize,
                                ServiceSize, Sizes, ValidateSize)
from perfbench.harness import OutputCheck, stable_payload, tail

TINY = Sizes(
    dse=DseSize(instructions=1000, budget=4),
    validate=ValidateSize(instructions=500, corners=2),
    service=ServiceSize(clients=2, reads=3, writes=1, instructions=500),
    round_s=50.0,
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("perfbench"))
    tiny = Campaign("dse", seed=7, seconds=100.0, traced=True,
                    root=run.ROOT, workdir=workdir, sizes=TINY)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign_module, "SETUP_REPEATS", 1)
        try:
            tiny.run()
        finally:
            tiny.close()
    return tiny


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[section]]


@pytest.mark.parametrize("traced,section",
                         [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_with_its_unit(campaign, traced, section):
    result = run.result_line(campaign, traced)
    assert result["correct"], campaign.check.reasons
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == declared(section)
    assert json.loads(json.dumps(result)) == result


def test_host_time_metrics_scale_by_the_host_factor(campaign):
    factor = campaign.host_factor()
    scaled, unscaled = campaign.end_to_end(), campaign.unscaled()
    assert factor > 0 and len(campaign.units) >= 3
    for name in HOST_RATES:
        assert scaled[name] == pytest.approx(unscaled[name] * factor)
    for name in HOST_TIMES:
        assert scaled[name] == pytest.approx(unscaled[name] / factor)
    untouched = set(scaled) - set(HOST_RATES) - set(HOST_TIMES)
    assert untouched == {"peak_rss_mb", "cpi_error_pct", "power_error_pct"}
    assert all(scaled[name] == unscaled[name] for name in untouched)


def test_corrupted_reply_fails_the_run(campaign):
    client = campaign.clients[0]
    replies, check = client.replies, campaign.check
    key, body_hash = replies[0]
    body = json.loads(client.body(body_hash))
    body["result"]["data"]["corrupted"] = True
    client.replies = [(key, body_hash),
                      (key, client.keep(json.dumps(body).encode()))]
    campaign.check = OutputCheck()
    try:
        campaign.check_replies()
        assert campaign.check.failed == 1
        assert not run.result_line(campaign, traced=False)["correct"]
    finally:
        client.replies, campaign.check = replies, check


def test_run_cut_short_fails(tmp_path):
    short = Campaign("dse", seed=7, seconds=1e-3, traced=False,
                     root=run.ROOT, workdir=str(tmp_path), sizes=TINY)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign_module, "SETUP_REPEATS", 1)
        try:
            short.run()
        finally:
            short.close()
    assert short.rounds_run == 1 < short.rounds
    assert not run.result_line(short, traced=False)["correct"]


def test_round_results_compare_byte_for_byte():
    data = {"trajectory": {"wall_seconds": 1.0, "evaluations": [
        {"index": 0, "fitness": 0.25}]}}
    check = OutputCheck()
    assert check.same_as_first("search", stable_payload("search", data))
    data["trajectory"]["wall_seconds"] = 2.0
    assert check.same_as_first("search", stable_payload("search", data))
    data["trajectory"]["evaluations"][0]["fitness"] = 0.25000000000000006
    assert not check.same_as_first("search", stable_payload("search", data))
    assert check.failed == 1


def test_tail_has_ten_samples_beyond_it():
    assert tail(list(range(300))) == (95.0, 284)
    assert tail(list(range(100))) == (90.0, 89)
    assert tail(list(range(12))) == (100.0, 11)


def test_no_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
