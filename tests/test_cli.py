import dataclasses
import os

import numpy as np
import pytest

from czo.cli import (ExperimentConfig, builtin_function, main,
                     parse_config_file, run_experiment)
from czo.curves import get_curve
from czo.errors import RegistryError, RejectedInputError
from czo.geometry import HyperCurve, box
from czo.kernels import KernelSpec, get_kernel
from czo.operator import grid_function, write_grid_csv


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = ExperimentConfig("apply", {"n": "64"})
        assert cfg.get_int("n") == 64
        assert cfg.get("kernel") == "two-line-hilbert"
        assert cfg.get_box().lo == (-8.0,)

    def test_config_file_parsing(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# comment\nn = 128\nkernel=hilbert\n\n")
        opts = parse_config_file(str(p))
        assert opts == {"n": "128", "kernel": "hilbert"}

    def test_unknown_key_rejected(self):
        with pytest.raises(RejectedInputError, match="valid keys"):
            ExperimentConfig("decompose", {"lamda": "5"})

    def test_bad_config_line(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("just-a-word\n")
        with pytest.raises(Exception):
            parse_config_file(str(p))


class TestRegistry:
    def test_curve_and_kernel_lookup(self):
        assert isinstance(get_curve("two-lines"), HyperCurve)
        assert isinstance(get_kernel("hilbert"), KernelSpec)

    def test_miss(self):
        with pytest.raises(RegistryError):
            get_curve("bogus")
        with pytest.raises(RegistryError):
            get_kernel("bogus")


class TestBuiltinFunctions:
    def test_indicator(self):
        f = builtin_function("indicator:-1,1", box(-8.0, 8.0), 64)
        assert f.integral() == pytest.approx(2.0)

    def test_odd_bump_is_exactly_odd(self):
        f = builtin_function("odd-bump", box(-8.0, 8.0), 128)
        assert np.array_equal(f.values, -f.values[::-1])

    def test_custom_csv(self, tmp_path):
        g = grid_function(box(0.0, 1.0), 16, lambda X: X[:, 0])
        p = tmp_path / "g.csv"
        write_grid_csv(g, str(p))
        f = builtin_function(f"custom:{p}", box(-8.0, 8.0), 64)
        assert f.cells_per_axis == 16
        assert np.array_equal(f.values, g.values)

    def test_unknown_family(self):
        with pytest.raises(RegistryError):
            builtin_function("nope", box(-8.0, 8.0), 16)


class TestExitCodes:
    def test_registry_miss_exits_2(self, tmp_path):
        code = main(["apply", "kernel=bogus", "--out", str(tmp_path)])
        assert code == 2

    def test_bad_override_exits_2(self, tmp_path):
        code = main(["apply", "oops", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_override_key_exits_2(self, tmp_path, capsys):
        code = main(["decompose", "lamda=5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'lamda'" in err and "'lambda'" in err
        assert not (tmp_path / "manifest.csv").exists()

    def test_unknown_config_file_key_exits_2(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("n=64\nkernal=hilbert\n")
        code = main(["apply", "--config", str(p), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_2(self, tmp_path, lam):
        code = main(["decompose", f"lambda={lam}", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "decompose_cubes.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["decompose", "box=3"],
        ["decompose", "root=1"],
        ["qtheta", "cube=5"],
        ["decompose", "box=-8..8..9"],
        ["apply", "n=0"],
        ["weaktype", "out_n=0"],
        ["partition", "--threads", "-1"],
        ["partition", "threads=-4"],
        ["partition", "threads=0"],
        ["hormander", "a_list="],
        ["hormander", "hormander_grid=0"],
        ["qtheta", "mc_samples=0"],
    ], ids=" ".join)
    def test_bad_value_exits_2(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("probes", ["0", "-3"])
    def test_qtheta_names_bad_probe_count(self, tmp_path, capsys, probes):
        assert main(["qtheta", f"probes={probes}", "mc_samples=100",
                     "--out", str(tmp_path)]) == 2
        assert "probe_count" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, name", [
        (["apply", "eps=nan"], "epsilon"),
        (["t0-convergence", "eps_list=0.5,nan,0.1"], "epsilons"),
        (["weaktype", "theta=nan"], "theta"),
        (["weaktype", "eps=nan"], "epsilon"),
        (["weaktype", "theta=inf"], "theta"),
        (["qtheta", "theta=inf"], "theta"),
        (["qtheta", "theta=nan"], "theta"),
        (["qtheta", "cube=2..2"], "cube"),
        (["qtheta", "cube=0..inf"], "cube"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_non_finite_or_degenerate_exits_2(self, tmp_path, capsys, argv,
                                              name):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert name in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_kernel_audit_regularity_row_sets_exit_code(self, tmp_path,
                                                        monkeypatch):
        import czo.cli as cli

        assert main(["kernel-audit", "samples=2000",
                     "--out", str(tmp_path / "ok")]) == 0
        rows = (tmp_path / "ok" / "kernel_audit.csv").read_text()
        assert rows.splitlines()[-1].endswith(",1")
        k = get_kernel("two-line-hilbert")
        small = dataclasses.replace(
            k, regularity_constant=0.5 * k.regularity_constant)
        monkeypatch.setattr(cli, "get_kernel", lambda name: small)
        assert main(["kernel-audit", "samples=2000",
                     "--out", str(tmp_path / "bad")]) == 1
        rows = (tmp_path / "bad" / "kernel_audit.csv").read_text()
        assert rows.splitlines()[-1].startswith("regularity,")
        assert rows.splitlines()[-1].endswith(",0")

    def test_custom_csv_without_n_exits_2(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("# box=0.0..1.0\n1.0\n2.0\n")
        out = tmp_path / "out"
        assert main(["decompose", f"function=custom:{p}",
                     "--out", str(out)]) == 2
        assert not any(out.iterdir())

    def test_missing_config_file_exits_2(self, tmp_path):
        code = main(["apply", "--config", str(tmp_path / "nope"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_metric_equivalence_passes(self, tmp_path):
        code = main(["metric-equivalence", "pairs=300", "--out",
                     str(tmp_path)])
        assert code == 0
        body = (tmp_path / "metric_equivalence.csv").read_text()
        assert body.splitlines()[-1].endswith(",1")
        assert (tmp_path / "manifest.csv").exists()


class TestExperiments:
    def test_decompose_outputs(self, tmp_path):
        code = main(["decompose", "function=indicator:0,1", "root=-2..2",
                     "n=256", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "decompose_cubes.csv").read_text().splitlines()
        assert lines[-1] == "0,0.0,2.0,0.5,0.5"
        assert (tmp_path / "decompose_good.csv").exists()
        assert (tmp_path / "decompose_bad.csv").exists()

    def test_recover_two_lines(self, tmp_path):
        code = main(["recover", "curve=two-lines", "b=1,sin", "n=128",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_qtheta_two_lines(self, tmp_path):
        code = main(["qtheta", "curve=two-lines", "theta=8.1",
                     "mc_samples=50000", "probes=200", "--out",
                     str(tmp_path)])
        assert code == 0

    def test_partition_reports_leftover(self, tmp_path):
        code = main(["partition", "curve=diamond", "max_depth=5",
                     "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "partition.csv").read_text()
        assert "leftover_measure=0.0625" in text

    def test_determinism_across_threads(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["metric-equivalence", "pairs=200", "seed=3",
                     "--out", str(a)]) == 0
        assert main(["metric-equivalence", "pairs=200", "seed=3",
                     "--threads", "4", "--out", str(b)]) == 0
        assert (a / "metric_equivalence.csv").read_text() == \
            (b / "metric_equivalence.csv").read_text()

    @pytest.mark.parametrize("kind,overrides", [
        ("metric-equivalence", ["pairs=200", "seed=3"]),
        ("partition", ["curve=diamond", "max_depth=5"]),
        ("kernel-audit", ["samples=500", "seed=3"]),
        ("hormander", ["hormander_grid=4096"]),
        # Large enough that the R/K build splits into two row chunks.
        ("apply", ["n=4096", "out_n=1024"]),
        ("t0-convergence", ["n=128"]),
        ("recover", ["n=64", "max_depth=5"]),
        ("decompose", ["n=128"]),
        ("weaktype", ["n=64", "out_n=32"]),
        ("qtheta", ["mc_samples=20000", "probes=200", "seed=3"]),
    ])
    def test_determinism_across_threads_all_kinds(self, tmp_path, kind,
                                                  overrides):
        # Every report body but the manifest (which records wall time and
        # the thread count) and the exit code agree at 1 and 2 threads.
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            code = main([kind, *overrides, "--threads", threads,
                         "--out", str(out)])
            bodies = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.name != "manifest.csv"}
            runs.append((code, bodies))
        assert runs[0][1]
        assert runs[0] == runs[1]

    def test_apply_emits_rows(self, tmp_path):
        code = main(["apply", "n=256", "out_n=32", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "apply.csv").read_text().splitlines()
        assert lines[1] == "x,value"
        assert len(lines) == 2 + 32

    def test_t0_convergence(self, tmp_path):
        code = main(["t0-convergence", "n=512", "function=bump",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "t0_convergence.csv").exists()
        assert (tmp_path / "t0_limit.csv").exists()

    def test_weaktype_runs(self, tmp_path):
        code = main(["weaktype", "n=128", "out_n=64", "--out",
                     str(tmp_path)])
        assert code == 0
        text = (tmp_path / "weaktype.csv").read_text()
        assert text.startswith("# max_ratio=")
