import csv
import dataclasses
import re
import warnings

import numpy as np
import pytest

import czo.kernels as kernels
import czo.metric as metric
import czo.operator as operator
from czo.cli import (ExperimentConfig, builtin_function, main,
                     parse_config_file, run_experiment)
from czo.curves import get_curve
from czo.errors import ConsistencyError, RegistryError, RejectedInputError
from czo.geometry import HyperCurve, box
from czo.kernels import KernelSpec, get_kernel
from czo.metric import EquivalenceReport
from czo.operator import grid_function, write_grid_csv
from test_console import run_in_a_process


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

    def test_one_dimensional_curve_in_two_dimensions(self):
        with pytest.raises(RegistryError, match="one-dimensional"):
            get_curve("two-lines", 2)

    def test_unknown_kind(self):
        with pytest.raises(RejectedInputError,
                           match="unknown experiment kind 'nope'"):
            run_experiment(ExperimentConfig("nope"))


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
        ["hormander", "a_list=1,1e-200"],   # below the rho floor
        ["hormander", "a_list=1,1e300"],    # beyond the tail grid
        ["qtheta", "mc_samples=0"],
        ["kernel-audit", "samples=0"],
        ["recover", "b=1"],                 # two-lines has 2 branches
        ["recover", "b=1,0,0"],
    ], ids=" ".join)
    def test_bad_value_exits_2(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())

    def test_hormander_near_the_tail_limit_exits_0(self, tmp_path):
        # diagonal's rho overflowed at 1e154, so hilbert's value_total
        # there read 1.93 for 0.739 and the spread rule exited 1.
        assert main(["hormander", "kernel=hilbert", "a_list=1,1e154",
                     "--out", str(tmp_path)]) == 0

    def test_hormander_separation_column_is_the_distance(self, tmp_path):
        # It once held z itself, so z = -1 read -1.0 for a separation of 1.
        assert main(["hormander", "a_list=-1,1", "hormander_grid=4096",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "hormander.csv").read_text().splitlines()
        assert rows[0].startswith("separation,")
        assert [r.split(",")[0] for r in rows[1:]] == ["1.0", "1.0"]

    def test_hormander_rejects_a_non_finite_point_before_computing(
            self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["hormander", "a_list=inf",
                         "--out", str(tmp_path)]) == 2
        assert [str(w.message) for w in caught] == []
        assert "y and z must be finite" in capsys.readouterr().err
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
        (["qtheta", "cube=2..3,2..3"], "cube"),
        # Probe boxes whose squared width overflows.
        (["qtheta", "theta=1e308"], "theta"),
        (["qtheta", "theta=1e306"], "theta"),
        (["qtheta", "cube=1e307..1.5e307"], "cube"),
        (["qtheta", "cube=1e300..2e300"], "cube"),
        (["decompose", "root=-8..8,-8..8"], "root"),
        (["apply", "box=1..1"], "box"),
        (["t0-convergence", "box=1..1"], "box"),
        (["recover", "box=1..1"], "box"),
        (["decompose", "box=1..1"], "box"),
        (["weaktype", "box=1..1"], "box"),
        # A MultiplierField grid was once never checked: 512 uncovered
        # nodes at tolerance 0.0, exit 0.
        (["recover", "box=0..0"], "zero volume"),
        # Unbounded boxes once computed NaN nodes before the rejection.
        (["recover", "box=-inf..inf"], "bounded box"),
        (["decompose", "box=-inf..inf"], "bounded box"),
        (["apply", "box=-inf..inf"], "bounded box"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_non_finite_or_degenerate_exits_2(self, tmp_path, capsys, argv,
                                              name):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--out", str(tmp_path)]) == 2
        assert name in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    # Cells of infinite volume: the first once ended in a bare
    # OverflowError, the second, with h = inf, in a RuntimeWarning from
    # lp_norm; both exited 1 with a traceback.
    INFINITE_CELLS = [
        ["decompose", "box=-1e200..1e200,-1e200..1e200", "n=2"],
        ["weaktype", "box=-1e308..1e308", "n=4", "out_n=4"],
    ]

    @pytest.mark.parametrize("argv", INFINITE_CELLS, ids=" ".join)
    def test_cells_of_infinite_volume_exit_2(self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "volume is not finite" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", INFINITE_CELLS, ids=" ".join)
    def test_cells_of_infinite_volume_exit_2_in_a_process(self, tmp_path,
                                                          argv):
        # As CI runs the kinds: a fresh process, RuntimeWarnings as errors.
        run = run_in_a_process(tmp_path, *argv)
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr
        assert "RuntimeWarning" not in run.stderr
        assert "volume is not finite" in run.stderr

    @pytest.mark.parametrize("argv, owner", [
        (["apply", "out_n=16"], "kernel 'two-line-hilbert'"),
        (["t0-convergence"], "kernel 'two-line-hilbert'"),
        (["weaktype", "out_n=16"], "kernel 'two-line-hilbert'"),
        (["apply", "kernel=diamond-model", "out_n=16"],
         "kernel 'diamond-model'"),
        (["t0-convergence", "kernel=diamond-model"], "kernel 'diamond-model'"),
        (["weaktype", "kernel=diamond-model", "out_n=16"],
         "kernel 'diamond-model'"),
        (["recover"], "curve 'two-lines'"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_grid_of_another_dimension_exits_2(self, tmp_path, capsys, argv,
                                               owner):
        # These once failed inside numpy, naming neither axis count.
        assert main([*argv, "box=-8..8,-8..8", "n=16",
                     "--out", str(tmp_path)]) == 2
        assert re.search(rf"has 2 axes but the {owner} has 1",
                         capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("b", ["inf,0", "0,nan"])
    def test_non_finite_multiplier_exits_2(self, tmp_path, capsys, b):
        # b=inf,0 once warned from numpy and then blamed a grid function.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["recover", f"b={b}", "n=64", "max_depth=5",
                         "--out", str(tmp_path)]) == 2
        assert not caught
        assert "multiplier b_" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("spec, name", [
        ("bump:0,0", "width"),
        ("bump:0,-1", "width"),
        ("bump:0,nan", "width"),
        ("bump:0,inf", "width"),
        ("bump:inf,1", "center"),
        ("odd-bump:0", "width"),
        ("odd-bump:-2", "width"),
        ("odd-bump:inf", "width"),
        ("indicator:2,1", "indicator"),
        ("indicator:1,1", "indicator"),
        ("indicator:nan,1", "indicator"),
        ("indicator:-inf,1", "indicator"),
        ("bump:1", "'bump:1' needs 2"),
        ("indicator:0,1,2", "'indicator:0,1,2' needs 2"),
        ("odd-bump:1,2", "'odd-bump:1,2' needs 1"),
    ])
    def test_malformed_function_spec_exits_2(self, tmp_path, capsys, spec,
                                             name):
        # Each of these once ran to exit 0 on an all-zero f, or failed
        # through a NaN or an unpacking error that named no parameter.
        assert main(["decompose", f"function={spec}",
                     "--out", str(tmp_path)]) == 2
        assert name in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_kernel_audit_regularity_row_sets_exit_code(self, tmp_path,
                                                        monkeypatch):
        assert main(["kernel-audit", "samples=2000",
                     "--out", str(tmp_path / "ok")]) == 0
        rows = (tmp_path / "ok" / "kernel_audit.csv").read_text()
        assert rows.splitlines()[-1].endswith(",1")
        k = get_kernel("two-line-hilbert")
        small = dataclasses.replace(
            k, regularity_constant=0.5 * k.regularity_constant)
        monkeypatch.setattr(kernels, "get_kernel", lambda name: small)
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

    @pytest.mark.parametrize("argv, bad", [
        (["partition", "--config", "{dir}", "--out", "{out}"], "dir"),
        (["apply", "function=custom:{dir}", "--out", "{out}"], "dir"),
        (["partition", "max_depth=4", "--out", "{file}"], "file"),
    ], ids=["config is a directory", "custom is a directory",
            "out is a file"])
    def test_bad_path_exits_2(self, tmp_path, capsys, argv, bad):
        # Each once ended in an OSError traceback (IsADirectoryError,
        # FileExistsError from os.makedirs) and exit 1.
        paths = {"dir": tmp_path / "dir", "file": tmp_path / "file",
                 "out": tmp_path / "out"}
        paths["dir"].mkdir()
        paths["file"].write_text("")
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert str(paths[bad]) in err and "Traceback" not in err

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


class TestFailureExits:
    """Exit 1 paths that no built-in curve reaches, driven by replacing
    the library call that the kind makes."""

    def test_library_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise ConsistencyError("the check could not run")

        monkeypatch.setattr(metric, "check_equivalence", fail)
        assert main(["metric-equivalence", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "czo: failure: the check could not run" in err
        assert "Traceback" not in err

    def test_metric_equivalence_writes_its_witness(self, tmp_path,
                                                   monkeypatch):
        rep = EquivalenceReport(False, 10, 9.5, 1.0, 4.0,
                                witness=((0.5,), (-0.5,), 0))
        monkeypatch.setattr(metric, "check_equivalence", lambda *a: rep)
        assert main(["metric-equivalence", "--out", str(tmp_path)]) == 1
        path = tmp_path / "metric_equivalence.csv"
        lines = path.read_text().splitlines()
        assert lines[1] == "two-lines,10,9.5,1.0,4.0,0"
        witness = lines[2]
        assert witness.startswith("witness,") and witness.endswith(",0")
        assert "((0.5,), (-0.5,), 0)" in witness
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [6, 6, 6]
        assert rows[2] == ["witness", "((0.5,), (-0.5,), 0)", "", "", "", "0"]

    def test_recover_beyond_its_tolerance_exits_1(self, tmp_path,
                                                  monkeypatch):
        # Every recovered value off by 1, against a tolerance of 2 h = 0.25.
        def off_by_one(*args):
            rec = recover(*args)
            return dataclasses.replace(rec, fields=rec.fields + 1.0)

        recover = operator.recover_multipliers
        monkeypatch.setattr(operator, "recover_multipliers", off_by_one)
        assert main(["recover", "n=128", "max_depth=5",
                     "--out", str(tmp_path)]) == 1
        rows = (tmp_path / "recover.csv").read_text().splitlines()
        assert rows[0] == "# tolerance=0.25"
        assert [r.split(",")[1] for r in rows[2:]] == ["1.0", "1.0"]


class TestExperiments:
    def test_decompose_outputs(self, tmp_path):
        code = main(["decompose", "function=indicator:0,1", "root=-2..2",
                     "n=256", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "decompose_cubes.csv").read_text().splitlines()
        assert lines[-1] == "0,0.0,2.0,0.5,0.5"
        assert (tmp_path / "decompose_good.csv").exists()
        assert (tmp_path / "decompose_bad.csv").exists()

    def test_decompose_2d_writes_every_axis(self, tmp_path):
        code = main(["decompose", "box=-8..8,-8..8", "n=64", "--out",
                     str(tmp_path)])
        assert code == 0
        lines = [line for line in
                 (tmp_path / "decompose_cubes.csv").read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "index,lo_0,hi_0,lo_1,hi_1,average,abs_average"
        boxes = [tuple(line.split(",")[1:5]) for line in lines[1:]]
        assert len(boxes) > 1
        assert len(set(boxes)) == len(boxes)

    def test_recover_two_lines(self, tmp_path):
        code = main(["recover", "curve=two-lines", "b=1,sin", "n=128",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_qtheta_two_lines(self, tmp_path):
        code = main(["qtheta", "curve=two-lines", "theta=8.1",
                     "mc_samples=50000", "probes=200", "--out",
                     str(tmp_path)])
        assert code == 0

    def test_qtheta_diamond_skips_measure_half(self, tmp_path):
        # An active flat piece has no inverse, so only the separation half
        # runs and the two measure cells stay empty.
        code = main(["qtheta", "curve=diamond", "cube=0.25..0.5", "theta=9",
                     "mc_samples=20000", "--out", str(tmp_path)])
        assert code == 0
        row = (tmp_path / "qtheta.csv").read_text().splitlines()[1]
        assert row.split(",")[:3] == ["diamond", "", ""]

    def test_qtheta_diamond_far_from_flat_checks_measure(self, tmp_path):
        # At cube=2..3 the flat piece is empty, so the measure half runs.
        code = main(["qtheta", "curve=diamond", "cube=2..3", "theta=9",
                     "mc_samples=20000", "--out", str(tmp_path)])
        assert code == 0
        row = (tmp_path / "qtheta.csv").read_text().splitlines()[1]
        assert float(row.split(",")[1]) > 0.0

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
        # Each sums on the lattice in two 4096-row chunks, so the second
        # thread runs.
        ("apply", ["n=8192", "out_n=8192"]),
        ("t0-convergence", ["n=8192"]),
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

    def test_t0_flags_eps_below_h_though_apply_warns_below_4h(self, tmp_path):
        # At the defaults h = 1/32, so the last eps, 0.0625, lies below 4h,
        # where apply_truncated warns, yet is not flagged unreliable, which
        # marks an eps below h only.  An eps below h is flagged.
        cfg = ExperimentConfig("t0-convergence")
        f = builtin_function(cfg.get("function"), cfg.get_box(),
                             cfg.get_int("n"))
        last = cfg.get_floats("eps_list")[-1]
        assert f.h <= last < 4.0 * f.h
        with pytest.warns(UserWarning, match="epsilon below 4 cell widths"):
            operator.apply_truncated(get_kernel(cfg.get("kernel")), f, last)
        below_h = f.h / 2
        code = main(["t0-convergence",
                     f"eps_list={cfg.get('eps_list')},{below_h}",
                     "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "t0_convergence.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert float(rows[-2][0]) == last
        assert [r[2] for r in rows] == ["0"] * (len(rows) - 1) + ["1"]

    def test_weaktype_runs(self, tmp_path):
        code = main(["weaktype", "n=128", "out_n=64", "--out",
                     str(tmp_path)])
        assert code == 0
        text = (tmp_path / "weaktype.csv").read_text()
        assert text.startswith("# max_ratio=")
