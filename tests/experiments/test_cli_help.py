"""``repro <cmd> --help`` contracts (ISSUE 6 satellite).

Every serving-era subcommand must (a) exit 0 from ``--help``, (b) list
each documented flag, and (c) point at the docs/ tree so ``--help`` and
the runbook (docs/operations.md) cannot drift apart silently.
"""

import importlib.util
import pathlib

import pytest

from repro.cli import build_parser, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Subcommand → flags its --help must document.  Keep in sync with the
#: flag tables in docs/operations.md.
DOCUMENTED_FLAGS = {
    "infer": [
        "--model", "--algorithm", "--quant", "--width", "--batch",
        "--backend", "--repeats", "--seed", "--threads", "--compare",
        "--describe",
    ],
    "compile": ["-o", "--out", "--seed", "--inspect"],
    "serve": [
        "--model", "--host", "--port", "--workers", "--worker-replicas",
        "--executor-threads", "--threads", "--max-batch-size",
        "--max-wait-ms", "--max-queue", "--deadline-ms", "--trace-rate",
        "--tenant-rate", "--tenant-burst", "--chaos", "--drain-trace-out",
        "--state-dir", "--ladder", "--autoscale", "--autoscale-min",
        "--autoscale-max", "--circuit-threshold",
    ],
    "bench": ["--quick", "--seed", "--out", "--threads"],
    "loadgen": [
        "--url", "--model", "--concurrency", "--requests", "--deadline-ms",
        "--sweep", "--quick", "--workers", "--workers-scale", "--out",
        "--dump-slowest", "--dump-out", "--open-loop", "--duration",
        "--priority", "--tenant", "--seed", "--overload",
    ],
    "profile": [
        "--batch", "--repeats", "--seed", "--threads", "--backends", "--out",
    ],
    "trace": [
        "--url", "--export", "--request-id", "--model", "--workers",
        "--requests",
    ],
}


def _help_text(capsys, command) -> str:
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([command, "--help"])
    assert info.value.code == 0, f"{command} --help must exit 0"
    return capsys.readouterr().out


class TestHelpContracts:
    @pytest.mark.parametrize("command", sorted(DOCUMENTED_FLAGS))
    def test_help_exits_zero_and_lists_every_flag(self, capsys, command):
        text = _help_text(capsys, command)
        missing = [f for f in DOCUMENTED_FLAGS[command] if f not in text]
        assert not missing, f"{command} --help missing flags: {missing}"

    @pytest.mark.parametrize("command", sorted(DOCUMENTED_FLAGS))
    def test_help_points_at_docs_tree(self, capsys, command):
        assert "docs/" in _help_text(capsys, command)

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for command in DOCUMENTED_FLAGS:
            assert command in out


class TestCompileCommand:
    def test_compile_then_inspect_roundtrip(self, capsys, tmp_path):
        out = str(tmp_path / "lenet.rpln")
        assert main(
            ["compile", "lenet-F2-fp32@reference", "-o", out]
        ) == 0
        text = capsys.readouterr().out
        assert "compiled lenet-F2-fp32@reference" in text
        assert out in text
        assert main(["compile", "--inspect", out]) == 0
        inspected = capsys.readouterr().out
        assert '"model": "lenet-F2-fp32@reference"' in inspected
        assert '"format_version": 2' in inspected

    def test_compile_without_model_errors(self, capsys):
        assert main(["compile"]) == 2
        assert "variant name" in capsys.readouterr().err

    def test_compile_bad_name_errors(self, capsys):
        assert main(["compile", "not-a-model-name!"]) == 2
        assert "error" in capsys.readouterr().err

    def test_inspect_missing_file_errors(self, capsys, tmp_path):
        assert main(["compile", "--inspect", str(tmp_path / "no.rpln")]) == 2
        assert "error" in capsys.readouterr().err


class TestBenchGateDocs:
    """Every row of the benchmark guard's rule table is named in the
    runbook, which points at the table instead of restating thresholds."""

    def test_every_rule_id_is_documented(self):
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression",
            REPO_ROOT / "benchmarks" / "check_bench_regression.py",
        )
        guard = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(guard)
        runbook = (REPO_ROOT / "docs" / "operations.md").read_text()
        missing = [r.id for r in guard.RULES if f"`{r.id}`" not in runbook]
        assert not missing, f"docs/operations.md does not name rules {missing}"
