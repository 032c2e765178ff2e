import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sharesched
from sharesched import core, cli
from sharesched.cli import main


FIG_JOBS = '{"jobs": [{"v": 1, "r": 0.75}, {"v": 4, "r": 0.5}, {"v": 6, "r": 0.66666666666666663}]}\n'


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "three.json").write_text(FIG_JOBS)
    return tmp_path


class TestGen:
    def test_adversarial_values(self, tmp_path, capsys):
        assert main(["gen", "adversarial", "--n", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [j["v"] for j in data["jobs"]] == pytest.approx([1 / 3] * 3)
        assert [j["r"] for j in data["jobs"]] == pytest.approx([1.0, 0.5, 1 / 3])

    def test_empty_instance(self, capsys):
        assert main(["gen", "random", "--n", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == {"jobs": []}

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "random", "--n", "5", "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen", "random", "--n", "5", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_instances_parse_and_vary(self, tmp_path):
        out = tmp_path / "g.json"
        main(["gen", "random", "--n", "6", "--seed", "1", "--out", str(out)])
        jobs = core.jobs_from_json(out.read_text())
        assert len(jobs) == 6 and np.unique(jobs.volumes()).size == 6

    def test_file_kind_round_trips(self, workdir, tmp_path):
        out = tmp_path / "copy.json"
        assert main(["gen", "file", "--path", str(workdir / "three.json"),
                     "--out", str(out)]) == 0
        assert core.jobs_from_json(out.read_text()) == core.jobs_from_json(FIG_JOBS)

    def test_file_kind_requires_path(self):
        assert main(["gen", "file"]) == 2

    @pytest.mark.parametrize("flags, cause", [
        (["--n", "-1"], "n and seed must be nonnegative"),
        (["--seed", "-1"], "n and seed must be nonnegative"),
        (["--vmin", "0"], "vmin and vmax must be positive"),
        (["--vmax", "0"], "vmin and vmax must be positive"),
        (["--vmax", "inf"], "vmin and vmax must be positive"),
    ])
    def test_bad_random_parameters_exit_2(self, flags, cause, capsys):
        assert main(["gen", "random", *flags]) == 2
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err


class TestRun:
    def test_greedy_record(self, workdir, capsys):
        code = main(["run", "greedy", "--input", str(workdir / "three.json")])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["total_completion_time"] == pytest.approx(133 / 6)
        assert rec["validation"]["feasible"] is True
        assert rec["bounds"]["squashed_area"] == pytest.approx(17.0)

    def test_waterfill_failure_exits_3(self, workdir, tmp_path, capsys):
        adv = tmp_path / "adv.json"
        main(["gen", "adversarial", "--n", "60", "--out", str(adv)])
        capsys.readouterr()
        code = main(["run", "waterfill", "--input", str(adv), "--c", "1.55"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert "failure_index" in err and err["error"]

    def test_best_on_single_job(self, tmp_path, capsys):
        inst = tmp_path / "one.json"
        inst.write_text('{"jobs": [{"v": 2, "r": 0.5}]}\n')
        assert main(["run", "best", "--input", str(inst)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["total_completion_time"] == pytest.approx(4.0)

    def test_best_records_the_exact_branch_bound(self, tmp_path, capsys):
        inst = tmp_path / "r6.json"
        main(["gen", "random", "--n", "6", "--seed", "3", "--out", str(inst)])
        assert main(["run", "ls", "--input", str(inst)]) == 0
        ls_rec = json.loads(capsys.readouterr().out)
        assert main(["run", "best", "--input", str(inst)]) == 0
        rec = json.loads(capsys.readouterr().out)
        fractional = ls_rec["parameters"]["fractional_optimum"]
        assert rec["parameters"]["fractional_optimum"] == fractional
        lb3 = rec["bounds"]["fractional_plus_half_length"]
        assert lb3 == ls_rec["bounds"]["fractional_plus_half_length"]
        assert lb3 > max(rec["bounds"]["squashed_area"], rec["bounds"]["total_length"])
        ratio = rec["ratios"]["tct_over_best_bound"]
        assert ratio == rec["total_completion_time"] / lb3 and ratio <= 1.5

    def test_schedule_out_roundtrips(self, workdir, tmp_path, capsys):
        sched_path = tmp_path / "s.json"
        main(["run", "ls", "--input", str(workdir / "three.json"),
              "--schedule-out", str(sched_path)])
        capsys.readouterr()
        sched = core.schedule_from_json(sched_path.read_text())
        assert sched.completion_times() == pytest.approx([1.5, 9.75, 11.625], abs=1e-8)

    def test_lsapprox_echoes_effective_parameters(self, workdir, capsys):
        code = main(["run", "lsapprox", "--input", str(workdir / "three.json"),
                     "--eps", "1", "--delta", str(27.0 / 256.0)])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        params = rec["parameters"]
        assert params["mu"] == pytest.approx(0.05)   # 1/20, already integral
        assert params["slot_width"] == pytest.approx(27.0 / 256.0)
        assert params["guarantee_slot_width"] < params["slot_width"]
        assert rec["validation"]["feasible"] is True

    def test_lsapprox_records_lp_work(self, workdir, capsys):
        code = main(["run", "lsapprox", "--input", str(workdir / "three.json")])
        assert code == 0
        params = json.loads(capsys.readouterr().out)["parameters"]
        assert isinstance(params["lp_rounds"], int) and params["lp_rounds"] > 0
        assert isinstance(params["lp_pivots"], int) and params["lp_pivots"] > 0
        assert isinstance(params["lp_blocks"], int) and params["lp_blocks"] > 0

    @pytest.mark.parametrize("algo, flags, cause", [
        ("waterfill", ["--c", "0.5"], "competitive ratio must be at least 1"),
        ("lsapprox", ["--eps", "0"], "epsilon must be positive"),
        ("waterfill", ["--c", "inf"], "competitive ratio must be at least 1 and finite, got inf"),
        ("lsapprox", ["--delta", "-1"], "slot width must be positive"),
        ("best", ["--lp-ls", "--delta", "0"], "slot width must be positive"),
        ("ls", ["--vol-tol", "0"], "vol_tol must be positive"),
        ("ls", ["--vol-tol", "-1"], "vol_tol must be positive"),
        ("greedy", ["--tol", "-1"], "tol must be nonnegative"),
        # 0.4 does not divide the LP horizon 3 * 9 = 27
        ("lsapprox", ["--delta", "0.4"], "slot width must divide the horizon"),
        ("best", ["--lp-ls", "--delta", "0.4"], "slot width must divide the horizon"),
        ("waterfill", ["--c", "nan"], "competitive ratio must be at least 1 and finite, got nan"),
    ])
    def test_bad_parameter_values_exit_2(self, workdir, capsys, algo, flags, cause):
        # a value out of range is a usage error (2), not an algorithm failure (3)
        assert main(["run", algo, "--input", str(workdir / "three.json"), *flags]) == 2
        captured = capsys.readouterr()
        assert cause in captured.err and captured.out == ""

    def test_near_tied_volumes_fail_ls_and_best_falls_back(self, tmp_path, capsys):
        # ls once stopped at a 1.6e-9 residual here, which validation rejects
        inst = tmp_path / "near.json"
        inst.write_text('{"jobs": [{"v": 1.0, "r": 1.0}, {"v": 10.0, "r": 1.0}, '
                        '{"v": 1.000000137244776, "r": 1.0}]}\n')
        assert main(["run", "ls", "--input", str(inst)]) == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert "vol_tol" in err and "np.float64" not in err
        assert main(["run", "best", "--input", str(inst)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["validation"]["feasible"] is True
        assert rec["parameters"]["chosen"] == "greedy"

    @pytest.mark.parametrize("algo", ["greedy", "best"])
    def test_greedy_one_ulp_overlap_instance_is_feasible(self, tmp_path, capsys, algo):
        # greedy once ran job 1 at 0.99 beside jobs 2 and 3 on
        # [8.659643233600653, 8.659643233600654)
        inst = tmp_path / "ulp.json"
        inst.write_text('{"jobs": [{"v": 1, "r": 0.11547819846894582}, {"v": 10, "r": 1}, '
                        '{"v": 1, "r": 0.11547819846894582}, {"v": 0.1, "r": 0.01}, '
                        '{"v": 0.1, "r": 0.74989420933245587}]}\n')
        assert main(["run", algo, "--input", str(inst)]) == 0
        assert json.loads(capsys.readouterr().out)["validation"]["feasible"] is True


class TestVerify:
    def test_feasible_schedule(self, workdir, tmp_path, capsys):
        sched_path = tmp_path / "s.json"
        main(["run", "greedy", "--input", str(workdir / "three.json"),
              "--schedule-out", str(sched_path)])
        capsys.readouterr()
        code = main(["verify", "--instance", str(workdir / "three.json"),
                     "--schedule", str(sched_path)])
        assert code == 0

    def test_ratio_reports_extendability(self, workdir, tmp_path, capsys):
        sched_path = tmp_path / "wf.json"
        assert main(["run", "waterfill", "--input", str(workdir / "three.json"),
                     "--schedule-out", str(sched_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--instance", str(workdir / "three.json"),
                     "--schedule", str(sched_path), "--ratio", "1.582"]) == 0
        assert json.loads(capsys.readouterr().out)["extendable"] is True
        # one job flat at rate u on [0, 1) with u just above 4 (c - 1) / c^2
        c = 1.582
        u = 4.0 * (c - 1.0) / c**2 + 1e-5
        inst = tmp_path / "flat.json"
        inst.write_text(core.jobs_to_json(core.JobSet.of([(u, u)])))
        flat = tmp_path / "flat_sched.json"
        flat.write_text(core.schedule_to_json(core.Schedule([core.StepFunction.constant(u, 1.0)])))
        assert main(["verify", "--instance", str(inst), "--schedule", str(flat),
                     "--ratio", str(c)]) == 0
        assert json.loads(capsys.readouterr().out)["extendable"] is False

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_ratio_exits_2(self, workdir, tmp_path, capsys, ratio):
        # no height lies in [(ratio - 1) / ratio, 1], and nothing checked passed
        sched_path = tmp_path / "wf.json"
        assert main(["run", "waterfill", "--input", str(workdir / "three.json"),
                     "--schedule-out", str(sched_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--instance", str(workdir / "three.json"),
                     "--schedule", str(sched_path), "--ratio", ratio]) == 2
        captured = capsys.readouterr()
        assert f"ratio must exceed 1 and be finite, got {ratio}" in captured.err
        assert captured.out == ""

    def test_infeasible_schedule_exits_4(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text('{"jobs": [{"v": 1, "r": 1}]}\n')
        bad = tmp_path / "s.json"
        bad.write_text('{"breakpoints": [0, 0.5], "assignments": [[1.0]], "completion_times": [0.5]}\n')
        code = main(["verify", "--instance", str(inst), "--schedule", str(bad)])
        assert code == 4
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False
        assert report["violations"][0]["kind"] == "volume-deficit"


class TestCompare:
    def test_table_and_summary(self, workdir, tmp_path):
        for seed in range(3):
            main(["gen", "random", "--n", "4", "--seed", str(seed),
                  "--out", str(workdir / f"r{seed}.json")])
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--inputs", str(workdir / "*.json"),
                     "--algos", "greedy,ls", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        data = [ln for ln in lines[1:] if not ln.startswith("summary:")]
        summaries = [ln for ln in lines[1:] if ln.startswith("summary:")]
        assert len(data) == 4 * 2
        assert len(summaries) == 2
        # the combined candidates stay within the certified factor
        best_by_instance = {}
        for ln in data:
            cols = ln.split(",")
            best_by_instance.setdefault(cols[0], []).append(
                (float(cols[4]), float(cols[9])))
        for pairs in best_by_instance.values():
            ratios = [ratio for _, ratio in pairs]
            assert min(ratios) <= 1.5 + 1e-6

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["compare", "--inputs", str(workdir / "*.json"),
                  "--algos", "greedy", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_glob_is_usage_error(self, tmp_path):
        assert main(["compare", "--inputs", str(tmp_path / "none*.json")]) == 2

    def test_bad_parameter_value_exits_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--inputs", str(workdir / "three.json"),
                     "--algos", "lsapprox", "--eps", "0", "--out", str(out)]) == 2
        assert "epsilon must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_slot_width_that_misses_one_horizon_marks_its_rows(self, workdir, tmp_path):
        # --delta 0.4 divides two.json's horizon 2 * 2 but not three.json's 3 * 9
        (workdir / "two.json").write_text('{"jobs": [{"v": 2, "r": 1}, {"v": 1, "r": 0.5}]}\n')
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--inputs", str(workdir / "*.json"), "--algos",
                     "lsapprox,best", "--lp-ls", "--delta", "0.4", "--out", str(out)]) == 0
        rows = {tuple(ln.split(",")[:2]): ln.split(",")
                for ln in out.read_text().strip().split("\n")[1:]}
        for algo in ("lsapprox", "best"):
            assert rows[str(workdir / "three.json"), algo][9] == "error"
            assert float(rows[str(workdir / "two.json"), algo][9]) >= 1.0

    def test_failed_run_marks_row(self, tmp_path):
        inst = tmp_path / "deg.json"
        inst.write_text('{"jobs": [{"v": 1, "r": 0.5}, {"v": 1, "r": 0.8}]}\n')
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--inputs", str(inst), "--algos", "greedy,ls",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        ls_rows = [ln for ln in lines if ",ls," in ln and not ln.startswith("summary")]
        assert ls_rows and "error" in ls_rows[0]


class TestPlot:
    def test_line_schedule_svg_structure(self, workdir, tmp_path, capsys):
        sched_path = tmp_path / "s.json"
        main(["run", "ls", "--input", str(workdir / "three.json"),
              "--record", str(tmp_path / "rec.json"),
              "--schedule-out", str(sched_path)])
        rec = json.loads((tmp_path / "rec.json").read_text())
        alpha = ",".join(str(a) for a in rec["parameters"]["alpha"])
        out = tmp_path / "p.svg"
        code = main(["plot", "--schedule", str(sched_path),
                     "--instance", str(workdir / "three.json"),
                     "--alpha", alpha, "--duals", "--out", str(out)])
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 3
        assert "polyline" in svg  # capacity price overlay

    @pytest.mark.parametrize("alpha, duals, cause", [
        ("1,x,2", True, "comma-separated finite numbers"),
        ("1,x,2", False, "comma-separated finite numbers"),
        ("1,nan,2", False, "comma-separated finite numbers"),
        ("1,2", False, "2 intercepts for 3 jobs"),
        ("1,2,3,4", True, "4 intercepts for 3 jobs"),
    ])
    def test_bad_alpha_exits_2(self, workdir, tmp_path, capsys, alpha, duals, cause):
        sched_path = tmp_path / "s.json"
        main(["run", "greedy", "--input", str(workdir / "three.json"),
              "--record", str(tmp_path / "rec.json"), "--schedule-out", str(sched_path)])
        capsys.readouterr()
        out = tmp_path / "p.svg"
        code = main(["plot", "--schedule", str(sched_path),
                     "--instance", str(workdir / "three.json"), "--alpha", alpha,
                     *(["--duals"] if duals else []), "--out", str(out)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err

    def test_empty_schedule_renders_axes_only(self, tmp_path, capsys):
        sched = tmp_path / "empty.json"
        sched.write_text('{"breakpoints": [0], "assignments": [], "completion_times": []}\n')
        assert main(["plot", "--schedule", str(sched), "--out", str(tmp_path / "e.svg")]) == 0
        svg = (tmp_path / "e.svg").read_text()
        assert "<polygon" not in svg and "<line" in svg

    def test_areas_track_volumes(self, tmp_path):
        jobs_text = '{"jobs": [{"v": 1, "r": 1}, {"v": 2, "r": 0.5}]}\n'
        inst = tmp_path / "i.json"
        inst.write_text(jobs_text)
        sched_path = tmp_path / "s.json"
        main(["run", "greedy", "--input", str(inst), "--record", str(tmp_path / "r.json"),
              "--schedule-out", str(sched_path)])
        svg_path = tmp_path / "a.svg"
        main(["plot", "--schedule", str(sched_path), "--out", str(svg_path)])
        polys = re.findall(r'<polygon points="([^"]+)"', svg_path.read_text())
        areas = []
        for poly in polys:
            pts = np.array([[float(v) for v in pair.split(",")] for pair in poly.split()])
            x, y = pts[:, 0], pts[:, 1]
            areas.append(0.5 * abs(np.dot(x, np.roll(y, 1)) - np.dot(y, np.roll(x, 1))))
        assert len(areas) == 2
        assert areas[1] / areas[0] == pytest.approx(2.0, rel=0.02)

    def test_one_ulp_interval_drawn_at_its_own_rate(self):
        # the midpoint of [x, nextafter(x)) rounds onto its right edge; the
        # stacked area must still show the interval's own rate
        x = 1.0 + 2.0 ** -52
        narrow = core.StepFunction([0.0, x, np.nextafter(x, 2.0), 2.0], [0.2, 0.7, 0.3])
        wide = core.StepFunction([0.0, 0.5, 1.0, 2.0], [0.2, 0.7, 0.3])
        sched = core.Schedule([narrow])
        assert json.loads(core.schedule_to_json(sched))["assignments"] == [[0.2, 0.7, 0.3]]

        def heights(s):
            (poly,) = re.findall(r'<polygon points="([^"]+)"', cli.render_svg(core.JobSet(), s))
            return {pair.split(",")[1] for pair in poly.split()}

        assert heights(sched) == heights(core.Schedule([wide]))


class TestUsage:
    def test_main_is_reentrant(self, workdir, capsys):
        # the parser is built once; no option value may leak into a later call
        assert cli.build_parser() is cli.build_parser()
        inst = str(workdir / "three.json")
        assert main(["run", "ls", "--input", inst, "--vol-tol", "1e-7"]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["vol_tol"] == 1e-7
        assert main(["run", "ls", "--input", inst]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["vol_tol"] == 1e-9
        assert main(["run", "waterfill", "--input", inst, "--c", "0.5"]) == 2
        assert "competitive ratio" in capsys.readouterr().err
        assert main(["run", "greedy", "--input", inst]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["algorithm"] == "greedy" and rec["validation"]["feasible"] is True
        assert rec["parameters"] == {}

    def test_module_entry_point_runs_once(self):
        # ``python -m sharesched.cli`` warns, here fatally, if importing the
        # package has already run the module
        src = str(Path(sharesched.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "sharesched.cli",
             "gen", "random", "--n", "2", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["jobs"]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_input_file(self, tmp_path):
        assert main(["run", "greedy", "--input", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exits_2(self, workdir, tmp_path, capsys):
        inst = workdir / "three.json"
        bad_inst = tmp_path / "abc.json"
        bad_inst.write_text('{"jobs": [{"v": "abc", "r": 0.5}]}\n')
        bad_sched = tmp_path / "s.json"
        bad_sched.write_text('{"breakpoints": [0, 1], "assignments": [1.0]}\n')
        broken = tmp_path / "broken.json"
        broken.write_text('{"jobs": [')
        for path in (bad_inst, broken):
            assert main(["run", "greedy", "--input", str(path)]) == 2
            assert main(["verify", "--instance", str(path), "--schedule", str(bad_sched)]) == 2
        assert main(["verify", "--instance", str(inst), "--schedule", str(bad_sched)]) == 2
        assert main(["verify", "--instance", str(inst), "--schedule", str(broken)]) == 2
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--inputs", str(bad_inst), "--algos", "greedy",
                     "--out", str(out)]) == 0
        assert f"{bad_inst},greedy,,,,,,,,error,," in out.read_text().split("\n")
        assert "Traceback" not in capsys.readouterr().err
