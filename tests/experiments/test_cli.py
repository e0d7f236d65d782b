"""The `python -m repro.cli` entry point."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "figure7"])
        assert args.experiment == "figure7"
        assert args.scale == "smoke"
        assert args.seed == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "huge"])

    def test_negative_threads_rejected(self, capsys):
        for argv in (["infer"], ["serve"], ["profile", "lenet-F2-fp32"],
                     ["bench", "engine"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--threads", "-3"])
            assert "must be >= 0" in capsys.readouterr().err
            assert build_parser().parse_args(argv + ["--threads", "0"]).threads == 0

    def test_every_experiment_module_importable(self):
        import importlib

        for name in EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert callable(module.run)


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    @pytest.mark.slow
    def test_run_fast_experiment(self, capsys, tmp_path):
        out_file = tmp_path / "fig8.txt"
        assert main(["run", "figure8", "--out", str(out_file)]) == 0
        assert "figure8_layer_breakdown" in capsys.readouterr().out
        assert out_file.exists()
        assert "im2row" in out_file.read_text()

    def test_infer_compiles_and_reports(self, capsys):
        assert (
            main(
                [
                    "infer",
                    "--model",
                    "lenet",
                    "--algorithm",
                    "F2",
                    "--batch",
                    "2",
                    "--repeats",
                    "1",
                    "--compare",
                    "--describe",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine[fast]" in out
        assert "speedup" in out
        assert "winograd_conv2d" in out  # --describe lists the plan steps

    def test_infer_int8_backend_runs_native_steps(self, capsys):
        # infer calibrates before compiling (an uncalibrated quantized
        # model does not compile), so the int8 plan it times is native
        argv = ["infer", "--model", "lenet", "--algorithm", "F2", "--quant",
                "int8", "--backend", "int8", "--batch", "2", "--repeats", "1",
                "--describe"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "engine[int8]" in out
        assert "<int8>" in out
        assert "→int" in out  # handoffs join only calibrated steps
