#!/usr/bin/env python3
"""Self-tests for tools/analyze: seeded-violation fixtures per pass.

Each test builds a throwaway mini-repo (sources + compile_commands.json
+ docs/bench fixtures as needed), runs the analyzer in-process against
it and asserts the expected rule fires — or stays silent — plus the
allowlist lifecycle (suppress, stale, invalid) and artifact
determinism. One subprocess test covers the real entry point
(`python3 tools/analyze`), exit codes and --github annotations.

Runs under plain unittest (no pytest in the image):
    python3 tests/analyze/run_tests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

from analyze import annotations  # noqa: E402
from analyze.cli import main  # noqa: E402


class MiniRepo:
    """A throwaway repository the analyzer can scan."""

    def __init__(self, root: Path):
        self.root = root
        self.build = root / "build"
        self.build.mkdir(parents=True)
        self.compiled: list[str] = []

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        if rel.startswith("src/") and rel.endswith(".cc"):
            self.compiled.append(rel)

    def finish(self) -> None:
        entries = [
            {"directory": str(self.root),
             "command": f"c++ -std=c++20 -c {rel}", "file": rel}
            for rel in self.compiled
        ]
        (self.build / "compile_commands.json").write_text(
            json.dumps(entries))

    def run(self, *extra: str) -> tuple[int, str]:
        """Invoke the analyzer in-process; returns (exit, stdout)."""
        self.finish()
        argv = ["--repo", str(self.root), "--build-dir", str(self.build),
                "--allowlist", str(self.root / "allowlist.txt"),
                *extra]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = main(argv)
        return code, out.getvalue()


class AnalyzeCase(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self._count = 0

    def repo(self) -> MiniRepo:
        self._count += 1
        root = Path(self._tmp.name) / f"repo{self._count}"
        return MiniRepo(root)

    def assertRule(self, output: str, rule: str) -> None:
        self.assertIn(f" {rule}: ", output,
                      f"expected rule {rule} in:\n{output}")


class DeterminismPass(AnalyzeCase):
    def test_seeded_violations_fire(self) -> None:
        repo = self.repo()
        repo.write("src/core/bad.cc", "\n".join([
            "#include <random>",
            "std::mt19937 gen;",
            "int f() { return rand(); }",
            "std::unordered_map<int, int> table;",
            "std::map<Foo*, int> by_ptr;",
            "std::atomic<double> acc;",
            "long t() { return time(nullptr); }",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 1)
        for rule in ("determinism.rand", "determinism.wall-clock",
                     "determinism.unordered-container",
                     "determinism.pointer-keyed-container",
                     "determinism.atomic-float"):
            self.assertRule(out, rule)

    def test_comments_and_strings_do_not_fire(self) -> None:
        repo = self.repo()
        repo.write("src/core/ok.cc", "\n".join([
            "// rand() in a comment, std::mt19937 too",
            "/* time(nullptr) */",
            'const char* doc = "calls rand() and srand()";',
            "int seeded(Rng& rng) { return rng.next(); }",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 0, out)

    def test_std_qualified_clock_fires(self) -> None:
        repo = self.repo()
        repo.write("src/core/bad.cc",
                   "long t() { return std::clock(); }\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "determinism.wall-clock")

    def test_std_qualified_time_fires(self) -> None:
        repo = self.repo()
        repo.write("src/core/bad.cc",
                   "long t() { return std::time(nullptr); }\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "determinism.wall-clock")

    def test_std_qualified_rand_fires(self) -> None:
        repo = self.repo()
        repo.write("src/core/bad.cc", "int f() { return std::rand(); }\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "determinism.rand")

    def test_same_named_declarations_are_clean(self) -> None:
        repo = self.repo()
        repo.write("src/obs/clocked.hh", "\n".join([
            "class Clocked",
            "{",
            "  public:",
            "    const ObservationClock& clock() const;",
            "    Cycle time() const;",
            "    int rand();",
            "};",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 0, out)


class FfSoundnessPass(AnalyzeCase):
    def test_tick_without_next_event_fires(self) -> None:
        repo = self.repo()
        repo.write("src/mem/ticker.hh", "\n".join([
            "class Ticker",
            "{",
            "  public:",
            "    bool tick(Cycle now);",
            "};",
            "",
        ]))
        repo.write("src/mem/ticker.cc", "int x;\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "ff-soundness.missing-next-event")

    def test_tick_with_next_event_is_clean(self) -> None:
        repo = self.repo()
        repo.write("src/mem/ticker.hh", "\n".join([
            "class Ticker",
            "{",
            "  public:",
            "    bool tick(Cycle now);",
            "    Cycle nextEventCycle(Cycle now) const;",
            "};",
            "",
        ]))
        repo.write("src/mem/ticker.cc", "int x;\n")
        # Isolated run: the contract-coverage pass legitimately flags
        # this contract-free fixture, which is not under test here.
        code, out = repo.run("--passes", "ff-soundness")
        self.assertEqual(code, 0, out)

    def test_scheduler_subclass_must_override(self) -> None:
        repo = self.repo()
        repo.write("src/cta/cta_sched.hh", "\n".join([
            "class CtaScheduler",
            "{",
            "  public:",
            "    virtual void tick(Cycle now);",
            "    virtual Cycle nextEventCycle(Cycle now) const;",
            "};",
            "",
        ]))
        # Directly and transitively derived, neither overrides.
        repo.write("src/cta/silent.hh", "\n".join([
            "class SilentSched : public CtaScheduler",
            "{",
            "  public:",
            "    void tick(Cycle now) override;",
            "};",
            "class DeeperSched : public SilentSched",
            "{",
            "  public:",
            "    void tick(Cycle now) override;",
            "};",
            "",
        ]))
        repo.write("src/cta/silent.cc", "int x;\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertEqual(out.count("ff-soundness.inherited-never"), 2,
                         out)

    def test_explicit_never_override_is_clean(self) -> None:
        repo = self.repo()
        repo.write("src/cta/cta_sched.hh", "\n".join([
            "class CtaScheduler",
            "{",
            "  public:",
            "    virtual void tick(Cycle now);",
            "    virtual Cycle nextEventCycle(Cycle now) const;",
            "};",
            "class GreedySched : public CtaScheduler",
            "{",
            "  public:",
            "    void tick(Cycle now) override;",
            "    Cycle nextEventCycle(Cycle now) const override;",
            "};",
            "",
        ]))
        repo.write("src/cta/cta_sched.cc", "int x;\n")
        code, out = repo.run("--passes", "ff-soundness")
        self.assertEqual(code, 0, out)


class ContractCoveragePass(AnalyzeCase):
    def test_mutating_module_without_contracts_fires(self) -> None:
        repo = self.repo()
        repo.write("src/mem/widget.hh", "\n".join([
            "class Widget",
            "{",
            "  public:",
            "    void setValue(int v);",
            "};",
            "",
        ]))
        repo.write("src/mem/widget.cc", "int x;\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "contract-coverage.uncovered-module")

    def test_contract_without_armed_test_fires(self) -> None:
        repo = self.repo()
        repo.write("src/mem/checked.hh", "class Checked {};\n")
        repo.write("src/mem/checked.cc",
                   'void f() { BSCHED_CHECK(true, "ok"); }\n')
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "contract-coverage.untested-contract")

    def test_armed_test_satisfies_both_rules(self) -> None:
        repo = self.repo()
        repo.write("src/mem/checked.hh", "\n".join([
            "class Checked",
            "{",
            "  public:",
            "    void setValue(int v);",
            "};",
            "",
        ]))
        repo.write("src/mem/checked.cc", "\n".join([
            "void Checked::setValue(int v)",
            "{",
            '    BSCHED_CHECK(v >= 0, "negative");',
            "}",
            "",
        ]))
        repo.write("tests/test_checked.cc", "\n".join([
            '#include "mem/checked.hh"',
            "void t() { ScopedContractThrows guard; }",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 0, out)


class ObserverGuardsPass(AnalyzeCase):
    def test_unguarded_dereference_fires(self) -> None:
        repo = self.repo()
        repo.write("src/gpu/model.cc", "\n".join([
            "void Model::emit(Cycle now)",
            "{",
            "    tracer_->record(now);",
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "observer-guards.unguarded-call")

    def test_guarded_dereference_is_clean(self) -> None:
        repo = self.repo()
        repo.write("src/gpu/model.cc", "\n".join([
            "void Model::emit(Cycle now)",
            "{",
            "    if (tracer_)",
            "        tracer_->record(now);",
            "}",
            "void Model::other(Cycle now)",
            "{",
            "    if (obs_.profiler != nullptr)",
            "        obs_.profiler->note(now);",
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 0, out)

    def test_unguarded_phase_and_sample_source_fire(self) -> None:
        repo = self.repo()
        repo.write("src/gpu/model.cc", "\n".join([
            "void Model::closeWindow(Cycle now)",
            "{",
            "    obs_.phase->closeWindow(now, snapshot());",
            "}",
            "void Model::sample(Cycle now)",
            "{",
            "    obs_.sampleSource->recordSample(sampler(), now);",
            "}",
            "void Model::guarded(Cycle now)",
            "{",
            "    if (obs_.phase != nullptr)",
            "        obs_.phase->closeWindow(now, snapshot());",
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertEqual(out.count("observer-guards.unguarded-call"), 2,
                         out)
        self.assertIn("'obs_.phase->'", out)
        self.assertIn("'obs_.sampleSource->'", out)

    def test_guard_does_not_leak_across_functions(self) -> None:
        repo = self.repo()
        repo.write("src/gpu/model.cc", "\n".join([
            "void Model::guarded(Cycle now)",
            "{",
            "    if (tracer_)",
            "        tracer_->record(now);",
            "}",
            "void Model::unguarded(Cycle now)",
            "{",
            "    tracer_->record(now);",
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertEqual(out.count("observer-guards.unguarded-call"), 1,
                         out)

    def test_due_without_next_due_fires(self) -> None:
        repo = self.repo()
        repo.write("src/core/poller.cc", "\n".join([
            "void Poller::tick(Cycle now)",
            "{",
            "    if (sampler_ && sampler_->due(now))",
            "        sample(now);",
            "}",
            "",
        ]))
        # The same poll through an observer's ObservationClock.
        repo.write("src/gpu/clocked.cc", "\n".join([
            "void Clocked::tick(Cycle now)",
            "{",
            "    if (sampler_ && sampler_->cadence().due(now))",
            "        sample(now);",
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "observer-guards.unfenced-sampler")
        self.assertEqual(out.count("observer-guards.unfenced-sampler"), 2,
                         out)

    def test_due_with_next_due_in_module_is_clean(self) -> None:
        repo = self.repo()
        repo.write("src/core/poller.hh", "\n".join([
            "class Poller",
            "{",
            "  public:",
            "    Cycle bound(Cycle now) const",
            "    {",
            "        return sampler_ ? sampler_->nextDue(now) : now;",
            "    }",
            "};",
            "",
        ]))
        repo.write("src/core/poller.cc", "\n".join([
            "void Poller::tick(Cycle now)",
            "{",
            "    if (sampler_ && sampler_->due(now))",
            "        sample(now);",
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 0, out)


class SchemaDriftPass(AnalyzeCase):
    DOC = "\n".join([
        "# Observability",
        "",
        "| series | kind |",
        "|---|---|",
        "| `core.ipc` | gauge |",
        "",
    ])

    def test_undocumented_series_fires(self) -> None:
        repo = self.repo()
        repo.write("docs/OBSERVABILITY.md", self.DOC)
        repo.write("src/core/emit.cc", "\n".join([
            "void f(IntervalSampler& s)",
            "{",
            '    s.record("core.ipc", 1);',
            '    s.record("core.mystery", 2);',
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "schema-drift.undocumented-series")
        self.assertIn("core.mystery", out)

    def test_stale_doc_entry_fires(self) -> None:
        repo = self.repo()
        repo.write("docs/OBSERVABILITY.md", self.DOC)
        repo.write("src/core/emit.cc", "int x;\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "schema-drift.stale-series-doc")
        self.assertIn("core.ipc", out)

    def test_matching_series_is_clean(self) -> None:
        repo = self.repo()
        repo.write("docs/OBSERVABILITY.md", self.DOC)
        repo.write("src/core/emit.cc",
                   'void f(S& s) { s.record("core.ipc", 1); }\n')
        code, out = repo.run()
        self.assertEqual(code, 0, out)

    def test_undocumented_serve_stat_fires(self) -> None:
        repo = self.repo()
        repo.write("docs/SERVING.md", "\n".join([
            "| stat | meaning |",
            "|---|---|",
            "| `serve.requests` | count |",
            "",
        ]))
        repo.write("src/serve/stats.cc", "\n".join([
            "void f(StatSet& s)",
            "{",
            '    s.set("serve.requests", 1);',
            '    s.set("serve.new_thing", 2);',
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "schema-drift.undocumented-stat")
        self.assertIn("serve.new_thing", out)

    def test_unbaselined_json_key_fires(self) -> None:
        repo = self.repo()
        repo.write("bench/BENCH_demo.json", json.dumps(
            {"schema": "bsched-demo-v1", "old_key": 1}))
        repo.write("src/serve/writer.cc", "\n".join([
            "void writeJson(std::ostream& os)",
            "{",
            '    os << "{\\"schema\\": \\"bsched-demo-v1\\",";',
            '    os << "\\"old_key\\": 1,";',
            '    os << "\\"fresh_key\\": 2}";',
            "}",
            "",
        ]))
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "schema-drift.unbaselined-json-key")
        self.assertIn("fresh_key", out)
        self.assertNotIn("'old_key'", out)


class AllowlistLifecycle(AnalyzeCase):
    def seeded(self) -> MiniRepo:
        repo = self.repo()
        repo.write("src/core/bad.cc", "std::mt19937 gen;\n")
        return repo

    def test_justified_entry_suppresses(self) -> None:
        repo = self.seeded()
        repo.write("allowlist.txt",
                   "src/core/bad.cc determinism.rand fixture needs a "
                   "named generator\n")
        code, out = repo.run()
        self.assertEqual(code, 0, out)
        self.assertIn("1 audited suppression", out)

    def test_stale_entry_fails_full_run(self) -> None:
        repo = self.repo()
        repo.write("src/core/fine.cc", "int x;\n")
        repo.write("allowlist.txt",
                   "src/core/fine.cc determinism.rand was fixed long "
                   "ago\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "allowlist.stale")

    def test_stale_check_skipped_on_partial_run(self) -> None:
        repo = self.repo()
        repo.write("src/core/fine.cc", "int x;\n")
        repo.write("allowlist.txt",
                   "src/core/fine.cc contract-coverage.uncovered-module "
                   "justified elsewhere\n")
        code, out = repo.run("--passes", "determinism")
        self.assertEqual(code, 0, out)

    def test_missing_justification_is_invalid(self) -> None:
        repo = self.seeded()
        repo.write("allowlist.txt", "src/core/bad.cc determinism.rand\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "allowlist.invalid")

    def test_unknown_rule_is_invalid(self) -> None:
        repo = self.seeded()
        repo.write("allowlist.txt",
                   "src/core/bad.cc determinism.nope some reason\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "allowlist.invalid")

    def test_nonexistent_file_is_invalid(self) -> None:
        repo = self.seeded()
        repo.write("allowlist.txt",
                   "src/core/gone.cc determinism.rand some reason\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertRule(out, "allowlist.invalid")


class CliBehaviour(AnalyzeCase):
    def test_artifact_is_deterministic_and_sorted(self) -> None:
        repo = self.repo()
        repo.write("src/core/bad.cc",
                   "std::mt19937 gen;\nint f() { return rand(); }\n")
        art1 = repo.root / "a1.json"
        art2 = repo.root / "a2.json"
        repo.run("--artifact", str(art1))
        repo.run("--artifact", str(art2))
        self.assertEqual(art1.read_bytes(), art2.read_bytes())
        doc = json.loads(art1.read_text())
        self.assertEqual(doc["schema"], "bsched-analysis-v1")
        self.assertEqual(doc["files_scanned"], 1)
        findings = doc["findings"]
        self.assertGreaterEqual(len(findings), 2)
        keys = [(f["file"], f["line"], f["rule"]) for f in findings]
        self.assertEqual(keys, sorted(keys))

    def test_artifact_written_on_clean_run(self) -> None:
        repo = self.repo()
        repo.write("src/core/fine.cc", "int x;\n")
        art = repo.root / "clean.json"
        code, _ = repo.run("--artifact", str(art))
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(art.read_text())["findings"], [])

    def test_unknown_pass_is_usage_error(self) -> None:
        repo = self.repo()
        repo.write("src/core/fine.cc", "int x;\n")
        code, out = repo.run("--passes", "nope")
        self.assertEqual(code, 2)
        self.assertIn("unknown pass", out)

    def test_missing_compile_commands_is_usage_error(self) -> None:
        repo = self.repo()
        (repo.root / "src").mkdir(parents=True, exist_ok=True)
        code, out = repo.run("--build-dir", str(repo.root / "nowhere"))
        self.assertEqual(code, 2)
        self.assertIn("compile_commands.json", out)

    def test_headers_scanned_without_compile_entry(self) -> None:
        repo = self.repo()
        repo.write("src/core/only_header.hh", "std::mt19937 gen;\n")
        repo.write("src/core/unit.cc", "int x;\n")
        code, out = repo.run()
        self.assertEqual(code, 1)
        self.assertIn("src/core/only_header.hh", out)


class Annotations(unittest.TestCase):
    def test_format_and_escaping(self) -> None:
        line = annotations.format_annotation(
            "error", "rule:name", "50% done\nnext",
            file="src/a.cc", line=7)
        self.assertTrue(line.startswith("::error "))
        self.assertIn("file=src/a.cc,line=7", line)
        self.assertIn("title=rule%3Aname", line)
        self.assertIn("50%25 done%0Anext", line)

    def test_rejects_unknown_severity(self) -> None:
        with self.assertRaises(ValueError):
            annotations.format_annotation("fatal", "t", "m")


class EndToEnd(AnalyzeCase):
    """The real entry point, as CI invokes it."""

    def test_subprocess_findings_and_github_output(self) -> None:
        repo = self.repo()
        repo.write("src/core/bad.cc", "std::mt19937 gen;\n")
        repo.finish()
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "analyze"),
             "--repo", str(repo.root),
             "--build-dir", str(repo.build),
             "--allowlist", str(repo.root / "allowlist.txt"),
             "--github"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("determinism.rand", proc.stdout)
        self.assertIn("::error file=src/core/bad.cc,line=1", proc.stdout)

    def test_subprocess_clean_exit(self) -> None:
        repo = self.repo()
        repo.write("src/core/fine.cc", "int x;\n")
        repo.finish()
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "analyze"),
             "--repo", str(repo.root),
             "--build-dir", str(repo.build),
             "--allowlist", str(repo.root / "allowlist.txt")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("clean", proc.stdout)

    def test_list_rules_names_every_pass(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "analyze"),
             "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        for name in ("determinism.", "ff-soundness.",
                     "contract-coverage.", "observer-guards.",
                     "schema-drift."):
            self.assertIn(name, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
