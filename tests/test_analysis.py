"""Static-analysis tests: every rule fires on its fixture, stays quiet
on compliant code, and the front doors (engine, baseline, CLI) behave.

The fixture packages live in ``tests/fixtures/lint/``: ``badpkg`` is
deliberately broken (one module per rule) and ``cleanpkg`` honors every
contract -- the shared negative control.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineError,
    DOCSTRING_TARGETS,
    LintError,
    RULES,
    run_lint,
)
from repro.analysis.baseline import parse_toml
from repro.analysis.report import Finding
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

#: Rules that need no option overrides to fire on their badpkg module.
ALL_RULES = sorted(RULES)


def lint_bad(rule, paths=("badpkg",), **kwargs):
    """Run one rule over badpkg (or explicit fixture paths)."""
    return run_lint(list(paths), root=FIXTURES, rules=[rule], **kwargs)


class TestDeterminismTaint:
    def test_cross_module_source_reaches_sink(self):
        report = lint_bad("determinism-taint")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "determinism-taint"
        assert finding.path == "badpkg/stamp.py"
        assert finding.symbol == "canonical_fingerprint<-time.time"
        # The message spells out the full source -> sink path.
        assert "badpkg.taint.canonical_fingerprint" in finding.message
        assert ("wall_stamp -> _payload -> canonical_fingerprint"
                in finding.message)

    def test_quiet_on_clean_package(self):
        report = run_lint(["cleanpkg"], root=FIXTURES,
                          rules=["determinism-taint"])
        assert report.findings == []

    def test_sorted_listing_is_not_a_source(self):
        # cleanpkg's fingerprint eats sorted(os.listdir(...)): the
        # sorted() wrapper is exactly what makes it deterministic.
        report = run_lint(["cleanpkg/clean.py"], root=FIXTURES,
                          rules=["determinism-taint"])
        assert report.findings == []

    def test_sink_patterns_are_configurable(self):
        report = lint_bad("determinism-taint",
                          options={"taint_sinks": ["*.no_such_sink"]})
        assert report.findings == []


class TestWorkerState:
    def test_mutating_function_and_lambda_flagged(self):
        report = lint_bad("worker-state", paths=("badpkg/worker.py",))
        symbols = [f.symbol for f in report.findings]
        assert "badpkg.worker._accumulate" in symbols
        assert "badpkg.worker._tally" in symbols  # via iter_grid
        assert any(s.endswith(".<lambda>") for s in symbols)
        mutation = next(f for f in report.findings
                        if f.symbol == "badpkg.worker._accumulate")
        assert "_RESULTS.append" in mutation.message

    def test_quiet_on_pure_dispatch(self):
        report = run_lint(["cleanpkg"], root=FIXTURES,
                          rules=["worker-state"])
        assert report.findings == []

    def test_pool_module_itself_is_exempt(self):
        # The real WorkerPool's dispatch shim mutates its worker-side
        # state cache on purpose (the broadcast protocol).
        repo_root = FIXTURES.parents[2]
        report = run_lint(["src/repro/api/pool.py"], root=repo_root,
                          rules=["worker-state"])
        assert report.findings == []


class TestUnseededRng:
    def test_unseeded_and_system_random_flagged(self):
        report = lint_bad("unseeded-rng", paths=("badpkg/rng.py",))
        assert len(report.findings) == 2
        messages = " ".join(f.message for f in report.findings)
        assert "without an explicit seed" in messages
        assert "SystemRandom" in messages

    def test_seeded_construction_not_flagged(self):
        report = lint_bad("unseeded-rng", paths=("badpkg/rng.py",))
        # good_rng's seeded construction sits on line 18.
        assert all(f.line != 18 for f in report.findings)

    def test_quiet_on_clean_package(self):
        report = run_lint(["cleanpkg"], root=FIXTURES,
                          rules=["unseeded-rng"])
        assert report.findings == []


class TestRawTiming:
    def test_import_and_attribute_reads_flagged(self):
        report = lint_bad("raw-timing", paths=("badpkg/timing.py",))
        symbols = {f.symbol for f in report.findings}
        assert symbols == {"time.perf_counter", "time.monotonic"}

    def test_allowed_modules_are_exempt(self):
        report = lint_bad(
            "raw-timing", paths=("badpkg/timing.py",),
            options={"timing_allowed_modules": ["badpkg.timing"]},
        )
        assert report.findings == []

    def test_obs_layer_is_exempt_in_the_real_tree(self):
        repo_root = FIXTURES.parents[2]
        report = run_lint(["src/repro/obs"], root=repo_root,
                          rules=["raw-timing"])
        assert report.findings == []

    def test_quiet_on_clean_package(self):
        report = run_lint(["cleanpkg"], root=FIXTURES,
                          rules=["raw-timing"])
        assert report.findings == []


class TestExports:
    def test_ghost_export_and_missing_export_flagged(self):
        report = lint_bad("exports", paths=("badpkg/exports.py",))
        symbols = {f.symbol for f in report.findings}
        assert symbols == {"missing_name", "unexported"}

    def test_quiet_on_clean_package(self):
        report = run_lint(["cleanpkg"], root=FIXTURES,
                          rules=["exports"])
        assert report.findings == []


class TestDocstrings:
    def test_missing_docstrings_flagged(self):
        report = lint_bad("docstrings", paths=("badpkg/docs.py",),
                          options={"docstring_targets": ["*"]})
        symbols = {f.symbol for f in report.findings}
        assert "badpkg.docs" in symbols          # module docstring
        assert "badpkg.docs.shout" in symbols
        assert "badpkg.docs.Megaphone" in symbols
        assert "badpkg.docs.Megaphone.amplify" in symbols

    def test_default_targets_skip_fixture_paths(self):
        report = lint_bad("docstrings", paths=("badpkg/docs.py",))
        assert report.findings == []

    def test_quiet_on_documented_package(self):
        report = run_lint(["cleanpkg"], root=FIXTURES,
                          rules=["docstrings"],
                          options={"docstring_targets": ["*"]})
        assert report.findings == []

    def test_faults_package_is_guaranteed(self):
        assert "src/repro/faults" in DOCSTRING_TARGETS


class TestSupervisionExceptions:
    def test_blanket_handlers_flagged(self):
        report = lint_bad(
            "supervision-exceptions",
            paths=("badpkg/supervision.py",),
            options={"supervision_modules": ["badpkg.supervision"]},
        )
        symbols = sorted(f.symbol for f in report.findings)
        assert symbols == ["bare except", "except BaseException",
                           "except Exception"]
        assert all("supervision" in f.message for f in report.findings)

    def test_named_handlers_pass(self):
        # retry_named catches (OSError, TimeoutError): not flagged even
        # with the module in scope (three findings total, none on the
        # named handler's line).
        report = lint_bad(
            "supervision-exceptions",
            paths=("badpkg/supervision.py",),
            options={"supervision_modules": ["badpkg.supervision"]},
        )
        assert len(report.findings) == 3

    def test_out_of_scope_modules_are_quiet(self):
        # Default scope is the real fault layer; fixture modules never
        # match it, so the same file is clean without the override.
        report = lint_bad("supervision-exceptions",
                          paths=("badpkg/supervision.py",))
        assert report.findings == []

    def test_real_supervision_layer_is_clean(self):
        repo_root = FIXTURES.parents[2]
        report = run_lint(
            ["src/repro/faults", "src/repro/api/pool.py"],
            root=repo_root, rules=["supervision-exceptions"],
        )
        assert report.findings == []


class TestAsyncSafety:
    def test_blocking_calls_reachable_from_coroutine_flagged(self):
        report = lint_bad(
            "async-safety",
            paths=("badpkg/asyncblock.py",),
            options={"async_modules": ["badpkg.asyncblock"]},
        )
        symbols = {f.symbol for f in report.findings}
        assert symbols == {"handle<-time.sleep", "handle<-open()",
                           "handle<-*.imap()"}
        hidden = next(f for f in report.findings
                      if f.symbol == "handle<-open()")
        # The message spells out the coroutine -> helper route.
        assert "handle -> _work -> _flush" in hidden.message
        assert "run_in_executor" in hidden.message

    def test_executor_route_is_exempt(self):
        # cleanpkg.service hands the same blocking helper to
        # loop.run_in_executor: a function argument is not a call
        # edge, so nothing is reachable and nothing fires.
        report = run_lint(
            ["cleanpkg/service.py"], root=FIXTURES,
            rules=["async-safety"],
            options={"async_modules": ["cleanpkg.*"]},
        )
        assert report.findings == []

    def test_out_of_scope_modules_are_quiet(self):
        # Default scope is repro.serve*; fixture modules never match.
        report = lint_bad("async-safety",
                          paths=("badpkg/asyncblock.py",))
        assert report.findings == []

    def test_real_serve_layer_is_clean(self):
        # Linted at full-tree scope (the CI gate's scope): method-name
        # fallback edges need the whole tree in view -- scoping to
        # one package alone would make every dict '.get' resolve to
        # whichever single analyzed class there defines 'get'.
        repo_root = FIXTURES.parents[2]
        report = run_lint(["src/repro"], root=repo_root,
                          rules=["async-safety"])
        assert report.findings == []


class TestBaseline:
    def test_suppresses_matching_findings(self):
        baseline = Baseline(["unseeded-rng:badpkg/rng.py:*"])
        report = lint_bad("unseeded-rng", paths=("badpkg/rng.py",),
                          baseline=baseline)
        assert report.findings == []
        assert len(report.suppressed) == 2
        assert report.ok

    def test_stale_entries_are_reported(self):
        baseline = Baseline(["raw-timing:nowhere.py:gone"])
        report = lint_bad("unseeded-rng", paths=("badpkg/rng.py",),
                          baseline=baseline)
        assert report.unused_baseline == ["raw-timing:nowhere.py:gone"]
        assert any("stale" in line for line in report.render_lines())

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "base.toml"
        path.write_text(
            "# reviewed exceptions\n"
            "[baseline]\n"
            "entries = [\n"
            '    "unseeded-rng:badpkg/rng.py:random.Random",  # ok\n'
            "]\n"
        )
        baseline = Baseline.load(str(path))
        assert baseline.entries == [
            "unseeded-rng:badpkg/rng.py:random.Random"
        ]

    def test_shipped_baseline_is_empty(self):
        repo_root = FIXTURES.parents[2]
        baseline = Baseline.load(
            str(repo_root / "tools" / "lint_baseline.toml"))
        assert len(baseline) == 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(BaselineError):
            parse_toml("entries no equals sign")
        with pytest.raises(BaselineError):
            parse_toml('[baseline]\nentries = [ "unterminated ]')

    def test_matches_uses_fnmatch_keys(self):
        finding = Finding("raw-timing", "src/x.py", 7, "stamp", "...")
        assert Baseline(["raw-timing:src/*.py:stamp"]).matches(finding)
        assert not Baseline(["exports:src/x.py:stamp"]).matches(finding)


class TestEngine:
    def test_unknown_rule_raises(self):
        with pytest.raises(LintError):
            run_lint(["badpkg"], root=FIXTURES, rules=["nope"])

    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            run_lint(["no/such/dir"], root=FIXTURES)

    def test_report_is_deterministic(self):
        first = run_lint(["badpkg"], root=FIXTURES, rules=ALL_RULES)
        second = run_lint(["badpkg"], root=FIXTURES, rules=ALL_RULES)
        assert first.to_json_dict() == second.to_json_dict()

    def test_real_tree_is_clean(self):
        repo_root = FIXTURES.parents[2]
        report = run_lint(["src/repro"], root=repo_root)
        assert report.findings == []


class TestLintCommand:
    def test_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "badpkg")]) == 1
        out = capsys.readouterr().out
        assert "[determinism-taint]" in out
        assert "finding(s)" in out

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "cleanpkg")]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_json_report_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["lint", str(FIXTURES / "badpkg"),
                     "--json", str(out_path)]) == 1
        data = json.loads(out_path.read_text())
        assert data["ok"] is False
        assert data["format_version"] == 1
        assert any(f["rule"] == "worker-state"
                   for f in data["findings"])
        assert all("key" in f for f in data["findings"])

    def test_rule_selection(self, capsys):
        assert main(["lint", str(FIXTURES / "badpkg"),
                     "--rules", "exports"]) == 1
        out = capsys.readouterr().out
        assert "[exports]" in out
        assert "[raw-timing]" not in out

    def test_baseline_flag(self, tmp_path, capsys):
        base = tmp_path / "base.toml"
        # CLI paths are cwd-relative, so match any prefix of badpkg/.
        base.write_text('[baseline]\nentries = ["*:*badpkg/*:*"]\n')
        assert main(["lint", str(FIXTURES / "badpkg"),
                     "--baseline", str(base)]) == 0
        out = capsys.readouterr().out
        assert "suppressed by baseline" in out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["lint", str(FIXTURES / "badpkg"),
                     "--rules", "nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err
