"""CLI: argument handling and quick-mode experiment dispatch."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig10"])
        assert args.experiment == "fig10"
        assert not args.quick

    def test_quick_flag(self):
        args = build_parser().parse_args(["fig14", "--quick"])
        assert args.quick

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_all_is_accepted(self):
        assert build_parser().parse_args(["all"]).experiment == "all"

    def test_every_figure_has_a_command(self):
        expected = {
            "fig1",
            "fig9",
            "fig9sys",
            "fig10",
            "fig10tier",
            "fig11a",
            "fig11b",
            "fig12",
            "fig13",
            "fig14",
            "overheads",
            "ablations",
        }
        assert set(COMMANDS) == expected


class TestDispatch:
    @pytest.mark.parametrize("experiment", ["fig10", "overheads"])
    def test_fast_experiments_print_reports(self, experiment, capsys):
        assert main([experiment, "--quick"]) == 0
        out = capsys.readouterr().out
        assert f"==== {experiment} ====" in out
        assert len(out.splitlines()) > 3

    def test_fig9sys_rejects_adaptive_tiering_with_replication(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig9sys", "--quick", "--replication", "2", "--tiering", "adaptive"])
        assert exit_info.value.code == 2
        assert "replica chain" in capsys.readouterr().err

    def test_fig1_quick(self, capsys):
        assert main(["fig1", "--quick"]) == 0
        assert "Fig 1" in capsys.readouterr().out

    def test_ablations_quick(self, capsys):
        assert main(["ablations", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "lease propagation" in out
        assert "cuckoo" in out
