import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sharesched
from sharesched import core, cli, linesched, lp, tct
from sharesched.cli import main

from conftest import time_limit


FIG_JOBS = '{"jobs": [{"v": 1, "r": 0.75}, {"v": 4, "r": 0.5}, {"v": 6, "r": 0.66666666666666663}]}\n'
# each processing time is finite, but their sum n * p_max overflows
BIGP_JOBS = '{"jobs": [{"v": 1, "r": 1e-308}, {"v": 2, "r": 2.2e-308}]}\n'
# 1 / v_j, the slope of each line, overflows
TINY_JOBS = '{"jobs": [{"v": 1e-310, "r": 1}, {"v": 2e-310, "r": 1}]}\n'
# the total volume, and so greedy's last completion time, overflows
BIGV_JOBS = '{"jobs": [{"v": 1e308, "r": 1}, {"v": 1.5e308, "r": 1}]}\n'
# n * p_max = 2e308 overflows, so the slot LP has no finite horizon
HORIZON_JOBS = '{"jobs": [{"v": 1e308, "r": 1}, {"v": 1, "r": 1}]}\n'
# two valid rows whose summed usage overflows
OVERFLOW_SCHEDULE = ('{"breakpoints": [0, 1], "assignments": [[1e308], [1.7e308]], '
                     '"completion_times": [1, 1]}\n')


def _package_env() -> dict:
    """The environment of a subprocess that imports this checkout's package."""
    src = str(Path(sharesched.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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
        # these once exited 1 with a traceback from numpy
        (["--n", "3", "--vmin", "5", "--vmax", "1"], "with vmin <= vmax, got 5.0, 1.0"),
        (["--n", "3", "--rmin", "0.5", "--rmax", "0.2"], "0 <= rmin <= rmax <= 1, got 0.5, 0.2"),
        (["--n", "3", "--rmax", "nan"], "0 <= rmin <= rmax <= 1, got 0.05, nan"),
        (["--n", "3", "--rmin", "nan"], "0 <= rmin <= rmax <= 1, got nan, 1.0"),
        (["--n", "3", "--rmax", "inf"], "0 <= rmin <= rmax <= 1, got 0.05, inf"),
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

    def test_a_schedule_that_fails_its_own_validation_exits_4(self, tmp_path):
        # job 1's unit volume is lost in the rounding of job 0's 1e308: its
        # water level equals job 0's, so it gets a zero assignment
        inst, rec = tmp_path / "horizon.json", tmp_path / "run.json"
        inst.write_text(HORIZON_JOBS)
        assert main(["run", "waterfill", "--input", str(inst), "--record", str(rec)]) == 4
        assert json.loads(rec.read_text())["validation"] == {"feasible": False, "max_violation": 1}

    def test_an_unknown_algorithm_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            cli.run_algorithm("bogus", core.JobSet(), None)

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

    def test_best_echoes_its_branch_and_approximation_flags(self, workdir, capsys):
        three = str(workdir / "three.json")
        assert main(["run", "best", "--input", three]) == 0
        params = json.loads(capsys.readouterr().out)["parameters"]
        assert params["line_branch"] == "ls"
        assert "epsilon" not in params and "slot_width" not in params
        assert main(["run", "best", "--lp-ls", "--eps", "0.3", "--input", three]) == 0
        params = json.loads(capsys.readouterr().out)["parameters"]
        assert (params["line_branch"], params["epsilon"], params["slot_width"]) == (
            "lsapprox", 0.3, None)
        # the names and values of run lsapprox, and its schedule's cost
        flags = ["--eps", "0.3", "--delta", str(27.0 / 256.0), "--input", three]
        assert main(["run", "lsapprox", *flags]) == 0
        approx = json.loads(capsys.readouterr().out)
        assert main(["run", "best", "--lp-ls", *flags]) == 0
        params = json.loads(capsys.readouterr().out)["parameters"]
        for key in ("epsilon", "slot_width"):
            assert params[key] == approx["parameters"][key]
        assert params["line_cost"] == approx["total_completion_time"]

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
        # checked without --lp-ls too, though only that branch reads it
        ("best", ["--eps", "0"], "epsilon must be positive"),
        # an infinite value once wrote inf into the JSON record
        ("lsapprox", ["--eps", "inf"], "epsilon must be positive and finite"),
        ("best", ["--lp-ls", "--eps", "inf"], "epsilon must be positive and finite"),
        ("ls", ["--vol-tol", "inf"], "vol_tol must be positive and finite, got inf"),
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

    def test_merged_stretch_fails_lsapprox_and_lp_best_falls_back(self, tmp_path, capsys,
                                                                  merging_stretch):
        # lsapprox once exited 2 here, as if a parameter were bad
        inst = tmp_path / "merging.json"
        inst.write_text(core.jobs_to_json(merging_stretch))
        assert main(["run", "lsapprox", "--input", str(inst)]) == 3
        assert json.loads(capsys.readouterr().out)["error"].startswith("scale: ")
        assert main(["run", "best", "--lp-ls", "--input", str(inst)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["validation"]["feasible"] is True
        assert rec["parameters"]["chosen"] == "greedy"

    @pytest.mark.parametrize("algo", ["greedy", "best", "waterfill", "ls"])
    def test_overflowing_processing_time_exits_2(self, tmp_path, capsys, algo):
        # greedy and best once named the wrong cause here, and water-filling
        # and ls overflowed into a RuntimeWarning
        inst = tmp_path / "overflow.json"
        inst.write_text('{"jobs": [{"v": 1e300, "r": 1e-10}, {"v": 1, "r": 0.5}]}\n')
        assert main(["run", algo, "--input", str(inst)]) == 2
        captured = capsys.readouterr()
        assert "processing time" in captured.err and captured.out == ""

    @pytest.mark.parametrize("args", [["lsapprox"], ["best", "--lp-ls"]])
    def test_overflowing_lp_horizon_exits_2(self, tmp_path, capsys, args):
        # n * p_max = 2e308 overflows, so the slot LP has no finite horizon
        inst = tmp_path / "horizon.json"
        inst.write_text('{"jobs": [{"v": 1e308, "r": 1}, {"v": 1, "r": 1}]}\n')
        assert main(["run", *args, "--input", str(inst)]) == 2
        captured = capsys.readouterr()
        assert "horizon must be positive and finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("algo, code, cause", [
        ("greedy", 2, "total_completion_time overflows the float range: got inf"),
        ("waterfill", 2, "total_completion_time overflows the float range: got inf"),
        ("best", 2, "total_completion_time overflows the float range: got inf"),
        ("ls", 3, "solve_alpha's start overflows"),
        ("lsapprox", 2, "horizon must be positive and finite, got inf"),
    ])
    def test_overflowing_sum_of_processing_times(self, tmp_path, capsys, algo, code, cause):
        # greedy, water-filling and best once wrote inf and nan into their
        # records, and ls and best once looped forever
        inst = tmp_path / "bigp.json"
        inst.write_text(BIGP_JOBS)
        with time_limit(5.0):
            assert main(["run", algo, "--input", str(inst)]) == code
        captured = capsys.readouterr()
        if code == 3:
            assert cause in json.loads(captured.out)["error"]
        else:
            assert cause in captured.err and captured.out == ""

    @pytest.mark.parametrize("algo,cause", [
        ("greedy", "job 1's greedy completion time overflows the float range"),
        ("waterfill", "job 1's target completion time 1.5819767068693265 * inf "
                      "overflows the float range"),
        ("best", "job 1's greedy completion time overflows the float range"),
    ])
    def test_overflowing_total_volume_is_an_instance_error(self, tmp_path, capsys, algo, cause):
        # this was once a usage error from the step function, "edges and
        # values must be finite", which stopped compare
        inst = tmp_path / "bigv.json"
        inst.write_text(BIGV_JOBS)
        assert main(["run", algo, "--input", str(inst)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {cause}\n" and captured.out == ""
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--inputs", str(inst), "--algos", algo, "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1] == f"{inst},{algo},2,,,,,,,error,,"

    def test_verify_reports_an_overflowing_usage_as_overuse(self, tmp_path):
        # this once warned in sum_steps and exited 2 with "edges and values
        # must be finite", or 1 with a traceback under -W error::RuntimeWarning
        inst, sched = tmp_path / "two.json", tmp_path / "over.json"
        inst.write_text('{"jobs": [{"v": 1, "r": 1}, {"v": 1, "r": 1}]}\n')
        sched.write_text(OVERFLOW_SCHEDULE)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "sharesched.cli",
             "verify", "--instance", str(inst), "--schedule", str(sched)],
            capture_output=True, text=True, env=_package_env(), timeout=60)
        assert proc.returncode == 4 and proc.stderr == ""
        out = json.loads(proc.stdout)
        assert out["feasible"] is False
        assert [(v["kind"], v["job"]) for v in out["violations"]] == [
            ("requirement-exceeded", 0), ("requirement-exceeded", 1), ("overuse", None)]
        assert out["violations"][2]["magnitude"] == np.finfo(float).max
        assert out["violations"][2]["interval"] == [0, 1]

    def test_volumes_past_the_slope_range_fail_lsapprox_and_lp_best_falls_back(
            self, tmp_path, capsys):
        # lsapprox once exited 3 naming a nan stretch, and 1 under
        # -W error::RuntimeWarning with an overflow in the line-schedule kernel
        inst = tmp_path / "tiny.json"
        inst.write_text(TINY_JOBS)
        cause = "lp: the slope 1 / v_j of long-heavy job(s) 0, 1 passes the float range"
        assert main(["run", "lsapprox", "--input", str(inst)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == cause
        assert main(["run", "best", "--lp-ls", "--input", str(inst)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["validation"]["feasible"] is True
        assert rec["parameters"]["chosen"] == "greedy"
        assert rec["parameters"]["line_error"] == cause

    @pytest.mark.parametrize("algo", cli.ALGORITHMS)
    def test_empty_instance_runs(self, tmp_path, capsys, algo):
        inst = tmp_path / "empty.json"
        inst.write_text('{"jobs": []}\n')
        assert main(["run", algo, "--input", str(inst)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["n"] == 0 and rec["total_completion_time"] == 0
        assert rec["validation"] == {"feasible": True, "max_violation": 0}

    def test_json_booleans_and_strings_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "coerced.json"
        inst.write_text('{"jobs": [{"v": true, "r": "0.5"}]}\n')
        assert main(["run", "greedy", "--input", str(inst)]) == 2
        captured = capsys.readouterr()
        assert '"v" must be a JSON number' in captured.err and captured.out == ""

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

    def test_negative_rate_exits_4(self, tmp_path, capsys):
        # job 1's rate -1 on [0, 1) hid the overuse of jobs 0 and 2 there:
        # this once exited 0 with "feasible": true
        inst, sched = tmp_path / "three.json", tmp_path / "neg.json"
        inst.write_text('{"jobs": [{"v": 1, "r": 1}, {"v": 1, "r": 1}, {"v": 1, "r": 1}]}\n')
        sched.write_text('{"breakpoints": [0, 1, 2, 3], "assignments": [[1, 0, 0], [-1, 1, 1], '
                         '[1, 0, 0]], "completion_times": [1, 3, 1]}\n')
        assert main(["verify", "--instance", str(inst), "--schedule", str(sched)]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report == {"feasible": False, "violations": [
            {"kind": "negative-rate", "magnitude": 1, "job": 1, "interval": [0, 1]}]}

    def test_ratio_on_an_overflowing_usage_exits_4(self, tmp_path):
        # this once warned in sum_steps and exited 2 with "edges and values
        # must be finite", or 1 with a traceback under -W error::RuntimeWarning
        inst, sched = tmp_path / "two.json", tmp_path / "over.json"
        inst.write_text('{"jobs": [{"v": 1, "r": 1}, {"v": 1, "r": 1}]}\n')
        sched.write_text(OVERFLOW_SCHEDULE)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "sharesched.cli",
             "verify", "--instance", str(inst), "--schedule", str(sched), "--ratio", "1.6"],
            capture_output=True, text=True, env=_package_env(), timeout=60)
        assert proc.returncode == 4 and proc.stderr == ""
        out = json.loads(proc.stdout)
        assert out["feasible"] is False and out["extendable"] is False
        assert [v["kind"] for v in out["violations"]] == [
            "requirement-exceeded", "requirement-exceeded", "overuse"]


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

    def test_unknown_algorithm_exits_2_before_any_run(self, workdir, capsys, monkeypatch):
        ran, run_algorithm = [], cli.run_algorithm

        def spy(algo, *args, **kwargs):
            ran.append(algo)
            return run_algorithm(algo, *args, **kwargs)

        monkeypatch.setattr(cli, "run_algorithm", spy)
        assert main(["compare", "--inputs", str(workdir / "*.json"),
                     "--algos", "greedy,bogus"]) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert "unknown algorithm 'bogus'" in captured.err and "'greedy'" in captured.err
        assert "Traceback" not in captured.err

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

    def test_slot_width_is_checked_on_an_instance_without_long_heavy_jobs(self, tmp_path, capsys):
        # once exited 0 because no LP was built for two light jobs
        inst = tmp_path / "light.json"
        inst.write_text('{"jobs": [{"v": 1, "r": 0.001}, {"v": 2, "r": 0.002}]}\n')
        for delta, cause in (("0.3", "slot width must divide the horizon"),
                             ("inf", "slot width must be positive and finite")):
            assert main(["run", "lsapprox", "--input", str(inst), "--delta", delta]) == 2
            captured = capsys.readouterr()
            assert cause in captured.err and captured.out == ""
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--inputs", str(inst), "--algos", "lsapprox",
                     "--delta", "0.3", "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1] == f"{inst},lsapprox,2,,,,,,,error,,"

    def test_an_overflowing_horizon_marks_its_rows(self, tmp_path, capsys):
        # compare once stopped here with exit 2 and wrote no CSV
        (tmp_path / "horizon.json").write_text(HORIZON_JOBS)
        (tmp_path / "inst.json").write_text(FIG_JOBS)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--inputs", str(tmp_path / "[hi]*.json"),
                     "--algos", "greedy,lsapprox", "--out", str(out)]) == 0
        rows = {tuple(ln.split(",")[:2]): ln for ln in out.read_text().split("\n")[1:-1]}
        horizon, inst = str(tmp_path / "horizon.json"), str(tmp_path / "inst.json")
        assert rows[horizon, "lsapprox"] == f"{horizon},lsapprox,2,,,,,,,error,,"
        for key in ((horizon, "greedy"), (inst, "greedy"), (inst, "lsapprox")):
            assert float(rows[key].split(",")[9]) >= 1.0
        assert capsys.readouterr().err == ""

    def test_a_horizon_too_small_for_the_slots_marks_its_row(self, tmp_path, capsys):
        # n * p_max / 1024 underflows to 0: no option was given, so no usage error
        inst = tmp_path / "tiny.json"
        inst.write_text('{"jobs": [{"v": 5e-324, "r": 1}]}\n')
        assert main(["run", "lsapprox", "--input", str(inst)]) == 2
        assert "horizon 5e-324 is too small to cut into 1024 slots" in capsys.readouterr().err
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--inputs", str(inst), "--algos", "greedy,lsapprox",
                     "--out", str(out)]) == 0
        assert out.read_text().split("\n")[2] == f"{inst},lsapprox,1,,,,,,,error,,"

    def test_overflowing_instances_mark_their_rows(self, tmp_path):
        # no row holds inf or nan; ls once looped forever here
        (tmp_path / "bigp.json").write_text(BIGP_JOBS)
        out = tmp_path / "cmp.csv"
        with time_limit(10.0):
            assert main(["compare", "--inputs", str(tmp_path / "bigp.json"),
                         "--algos", ",".join(cli.ALGORITHMS), "--out", str(out)]) == 0
        for algo in cli.ALGORITHMS:
            assert f"{tmp_path / 'bigp.json'},{algo},2,,,,,,,error,," in out.read_text().split("\n")

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
                     "--alpha", alpha, "--out", str(out)])
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 3
        assert "polyline" in svg  # capacity price overlay

    def test_alpha_overlay_draws_gamma_at_the_grid_interval_ends(self, workdir, tmp_path, capsys):
        sched_path, rec_path = tmp_path / "s.json", tmp_path / "rec.json"
        main(["run", "ls", "--input", str(workdir / "three.json"),
              "--record", str(rec_path), "--schedule-out", str(sched_path)])
        alpha = json.loads(rec_path.read_text())["parameters"]["alpha"]
        out = tmp_path / "p.svg"

        def plot(alpha):
            assert main(["plot", "--schedule", str(sched_path),
                         "--instance", str(workdir / "three.json"),
                         "--alpha", ",".join(map(repr, alpha)), "--out", str(out)]) == 0
            return out.read_text()

        svg = plot(alpha)
        jobs = core.jobs_from_json(FIG_JOBS)
        ls = sharesched.build_line_schedule(jobs, alpha)
        # the plot's frame: the time axis spans [0, end] at priority 0, and
        # the dashed unit-resource line sits at the top, priority max(alpha)
        left, bottom, right = map(float, re.search(
            r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="\S+" stroke="black"/>', svg).groups())
        top = float(re.search(r'<line x1="\S+" y1="(\S+)" x2="\S+" y2="\S+" stroke="black" '
                              r'stroke-dasharray="4 3"/>', svg).group(1))
        end = max(ls.grid[-1], *(a * j.volume for a, j in zip(alpha, jobs)))
        points = [tuple(map(float, p.split(",")))
                  for p in re.search(r'<polyline points="([^"]*)"', svg).group(1).split()]
        assert len(points) == 2 * (ls.grid.size - 1)
        ends = []
        for t0, t1 in zip(ls.grid[:-1], ls.grid[1:]):
            # the right end is the limit from inside, not gamma(t1)
            ends += [(t0, ls.prices(t0)[0]), (t1, ls.prices(np.nextafter(t1, -np.inf))[0])]
        for (x, y), (t, gamma) in zip(points, ends):
            assert x == pytest.approx(left + (right - left) * t / end, abs=0.0051)
            assert y == pytest.approx(bottom - (bottom - top) * gamma / max(alpha), abs=0.0051)
        assert ends[0][1] == alpha[1]    # jobs 0 and 1 fill the resource at 0, line 1 the lower
        # every line at zero: no grid interval, so no gamma
        assert "<polyline" not in plot([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("alpha, cause", [
        ("1,x,2", "comma-separated finite numbers"),
        ("1,nan,2", "comma-separated finite numbers"),
        ("1,2", "2 intercepts for 3 jobs"),
        ("1,2,3,4", "4 intercepts for 3 jobs"),
        # the rule of build_line_schedule
        ("1,1e308,1", "job 1's line reaches zero"),
        ("-1,1,1", "finite and nonnegative"),
    ])
    def test_bad_alpha_exits_2(self, workdir, tmp_path, capsys, alpha, cause):
        sched_path = tmp_path / "s.json"
        main(["run", "greedy", "--input", str(workdir / "three.json"),
              "--record", str(tmp_path / "rec.json"), "--schedule-out", str(sched_path)])
        capsys.readouterr()
        out = tmp_path / "p.svg"
        code = main(["plot", "--schedule", str(sched_path),
                     "--instance", str(workdir / "three.json"), f"--alpha={alpha}",
                     "--out", str(out)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err

    def test_alpha_alone_draws_the_overlay(self, workdir, tmp_path, capsys):
        sched_path = tmp_path / "s.json"
        main(["run", "greedy", "--input", str(workdir / "three.json"),
              "--record", str(tmp_path / "rec.json"), "--schedule-out", str(sched_path)])
        out = tmp_path / "p.svg"
        plot = ["plot", "--schedule", str(sched_path), "--instance", str(workdir / "three.json"),
                "--alpha", "3,2,2", "--out", str(out)]
        assert main(plot) == 0
        assert "<polyline" in out.read_text()
        out.unlink()
        assert main([*plot, "--duals"]) == 2 and not out.exists()

    def test_schedule_of_another_instance_exits_2(self, workdir, tmp_path, capsys):
        # the check verify makes, before any --alpha check
        sched_path = tmp_path / "s.json"
        main(["run", "greedy", "--input", str(workdir / "three.json"),
              "--record", os.devnull, "--schedule-out", str(sched_path)])
        two = tmp_path / "two.json"
        main(["gen", "random", "--n", "2", "--seed", "1", "--out", str(two)])
        out = tmp_path / "p.svg"
        for alpha in ([], ["--alpha", "x"]):
            code = main(["plot", "--schedule", str(sched_path), "--instance", str(two),
                         *alpha, "--out", str(out)])
            assert code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert "2 jobs but 3 assignments" in err and "Traceback" not in err

    def test_empty_schedule_renders_axes_only(self, tmp_path, capsys):
        sched = tmp_path / "empty.json"
        sched.write_text('{"breakpoints": [0], "assignments": [], "completion_times": []}\n')
        assert main(["plot", "--schedule", str(sched), "--out", str(tmp_path / "e.svg")]) == 0
        svg = (tmp_path / "e.svg").read_text()
        assert "<polygon" not in svg and "<line" in svg
        # three jobs that never run: three empty rows on the grid [0]
        sched.write_text(core.schedule_to_json(core.Schedule.empty(3)))
        assert json.loads(sched.read_text())["assignments"] == [[], [], []]
        assert main(["plot", "--schedule", str(sched), "--out", str(tmp_path / "e3.svg")]) == 0
        assert (tmp_path / "e3.svg").read_text() == svg
        assert cli.render_svg(core.JobSet(), core.Schedule.empty(3)) == svg

    def test_a_job_that_never_runs_draws_no_area(self):
        sched = core.Schedule([core.StepFunction.constant(0.5, 2.0), core.StepFunction.zero()])
        assert cli.render_svg(core.JobSet(), sched).count("<polygon") == 1

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


def _horizon_refusal() -> Exception:
    try:
        lp.build_discretized_lp(core.jobs_from_json(HORIZON_JOBS))
    except Exception as exc:
        return exc
    raise AssertionError("the horizon n * p_max = 2e308 was accepted")


#: one error of every class in the library, with run's exit code and whether
#: compare writes the instance's error row (else it stops, exiting 2); None
#: for a bug, which propagates
FAILURES = [
    (OSError(2, "No such file or directory"), 2, False),
    (core.ContractError("a usage error"), 2, False),
    (core.InstanceError("an instance error"), 2, True),
    (lp.SlotWidthError("slot width must divide the horizon"), 2, True),
    (_horizon_refusal(), 2, True),
    (core.AlgorithmError("an algorithm error"), 3, True),
    (linesched.DegenerateVolumesError("volumes too close"), 3, True),
    (linesched.ConvergenceError(1.0, 5, 9, np.zeros(3)), 3, True),
    (lp.SimplexError("pivot limit exceeded"), 3, True),
    (lp.InfeasibleInstanceError("no feasible point"), 3, True),
    (tct.PipelineError("lp", "no feasible point"), 3, True),
    (cli.AlgorithmFailure("water-fill failed at job 1", {"failure_index": 1}), 3, True),
    (RecursionError("maximum recursion depth exceeded"), None, None),
]


@pytest.mark.parametrize("exc, code, row", FAILURES,
                         ids=[f"{type(exc).__name__}: {exc}" for exc, _, _ in FAILURES])
def test_each_kind_of_failure_maps_through_one_table(workdir, tmp_path, capsys, monkeypatch,
                                                    exc, code, row):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_algorithm", fail)
    inst, out = str(workdir / "three.json"), tmp_path / "cmp.csv"
    run = ["run", "greedy", "--input", inst]
    compare = ["compare", "--inputs", inst, "--algos", "greedy", "--out", str(out)]
    if code is None:
        for argv in (run, compare):
            with pytest.raises(type(exc)):
                main(argv)
        assert not out.exists()
        return
    assert main(run) == code
    captured = capsys.readouterr()
    if code == 3:
        record = json.loads(captured.out)
        assert record["error"] == str(exc) and captured.err == ""
        assert record.get("failure_index") == getattr(exc, "data", {}).get("failure_index")
    else:
        assert captured.err == f"error: {exc}\n" and captured.out == ""
    if row:
        assert main(compare) == 0
        assert out.read_text().split("\n")[1] == f"{inst},greedy,3,,,,,,,error,,"
    else:
        assert main(compare) == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {exc}\n"


def test_the_table_test_covers_every_error_class():
    classes = {obj for obj in vars(sharesched).values()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes | {cli.AlgorithmFailure} <= {type(exc) for exc, _, _ in FAILURES}


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
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "sharesched.cli",
             "gen", "random", "--n", "2", "--seed", "1"],
            capture_output=True, text=True, env=_package_env(), timeout=60)
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


class TestOutputFiles:
    """Output files are overwritten in place and cut to the new text."""

    def test_longer_files_are_overwritten_exactly(self, workdir, tmp_path):
        inst, sched = str(workdir / "three.json"), str(workdir / "s.json")
        main(["run", "ls", "--input", inst, "--record", os.devnull, "--schedule-out", sched])
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        names = ("gen.json", "rec.json", "sched.json", "verify.json", "cmp.csv", "plot.svg")
        fresh.mkdir(), stale.mkdir()
        for name in names:
            (stale / name).write_bytes(b"x" * 65536)    # several blocks
        for out in (fresh, stale):
            for argv in (
                ["gen", "random", "--n", "5", "--seed", "2", "--out", str(out / "gen.json")],
                ["run", "greedy", "--input", inst, "--record", str(out / "rec.json"),
                 "--schedule-out", str(out / "sched.json")],
                ["verify", "--instance", inst, "--schedule", sched,
                 "--out", str(out / "verify.json")],
                ["compare", "--inputs", inst, "--algos", "greedy,ls",
                 "--out", str(out / "cmp.csv")],
                ["plot", "--schedule", sched, "--instance", inst, "--out", str(out / "plot.svg")],
            ):
                assert main(argv) == 0, argv
        for name in names:
            # a record's wall time differs from run to run
            a, b = (re.sub(rb'"wall_ms": [^,]*,', b"", (out / name).read_bytes())
                    for out in (fresh, stale))
            assert a == b, name

    def test_shorter_compare_leaves_no_tail(self, workdir, tmp_path):
        main(["gen", "random", "--n", "6", "--seed", "3", "--out", str(workdir / "r6.json")])
        out, once = tmp_path / "cmp.csv", tmp_path / "once.csv"
        assert main(["compare", "--inputs", str(workdir / "*.json"), "--out", str(out)]) == 0
        for path in (out, once):
            assert main(["compare", "--inputs", str(workdir / "three.json"),
                         "--out", str(path)]) == 0
        assert out.read_bytes() == once.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask):
        out = tmp_path / "g.json"
        old = os.umask(umask)
        try:
            assert main(["gen", "random", "--n", "2", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_record_to_a_pipe(self, workdir):
        # a pipe cannot be truncated
        proc = subprocess.run(
            [sys.executable, "-m", "sharesched.cli", "run", "greedy",
             "--input", str(workdir / "three.json"), "--record", "/dev/stdout"],
            capture_output=True, text=True, env=_package_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["validation"]["feasible"] is True


class TestUnreadablePaths:
    """A path that is a directory or holds bytes that are not UTF-8 exits 2
    with an ``error:`` line, and ``compare`` gives its instance error rows."""

    @pytest.fixture
    def paths(self, tmp_path):
        (tmp_path / "d.json").mkdir()
        (tmp_path / "bom.json").write_bytes(b'\xff\xfe{"jobs": []}')
        (tmp_path / "bad.json").write_bytes(b'\xff{"jobs": []}')
        (tmp_path / "inst.json").write_text(FIG_JOBS)
        return tmp_path

    @staticmethod
    def assert_usage_error(argv, capsys, cause):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cause in err and "Traceback" not in err

    def test_gen_file(self, paths, capsys):
        self.assert_usage_error(["gen", "file", "--path", str(paths / "d.json")], capsys,
                                "Is a directory")

    def test_run(self, paths, capsys):
        for name in ("bom.json", "bad.json"):
            self.assert_usage_error(["run", "greedy", "--input", str(paths / name)], capsys,
                                    "malformed instance JSON")
        self.assert_usage_error(["run", "greedy", "--input", str(paths / "d.json")], capsys,
                                str(paths / "d.json"))
        self.assert_usage_error(["run", "greedy", "--input", str(paths / "inst.json"),
                                 "--record", str(paths / "d.json")], capsys, "Is a directory")

    def test_verify(self, paths, capsys):
        main(["run", "greedy", "--input", str(paths / "inst.json"), "--record", os.devnull,
              "--schedule-out", str(paths / "s.json")])
        self.assert_usage_error(["verify", "--instance", str(paths / "inst.json"),
                                 "--schedule", str(paths / "d.json")], capsys, "Is a directory")
        self.assert_usage_error(["verify", "--instance", str(paths / "bad.json"),
                                 "--schedule", str(paths / "s.json")], capsys,
                                "malformed instance JSON")

    def test_compare(self, paths, capsys):
        out = paths / "cmp.csv"
        assert main(["compare", "--inputs", str(paths / "*.json"), "--algos", "greedy,ls",
                     "--out", str(out)]) == 0
        rows = out.read_text().split("\n")
        for name in ("d.json", "bom.json", "bad.json"):
            for algo in ("greedy", "ls"):
                assert f"{paths / name},{algo},,,,,,,,error,," in rows
        assert any(row.startswith(f"{paths / 'inst.json'},ls,3,") for row in rows)
        assert "Traceback" not in capsys.readouterr().err

    def test_plot(self, paths, capsys):
        self.assert_usage_error(["plot", "--schedule", str(paths / "d.json")], capsys,
                                "Is a directory")


def test_numpy_ma_stays_unloaded(tmp_path):
    # np.unique imports numpy.ma on its first call, about 30 ms; no path
    # through these commands may call it
    script = (
        "import sys\n"
        "from sharesched.cli import main\n"
        "for argv in (['gen', 'random', '--n', '6', '--seed', '3', '--out', 'inst.json'],\n"
        "             ['run', 'waterfill', '--input', 'inst.json', '--schedule-out', 'wf.json',\n"
        "              '--record', 'wf-run.json'],\n"
        "             ['run', 'best', '--input', 'inst.json', '--record', 'best.json'],\n"
        "             ['run', 'lsapprox', '--input', 'inst.json', '--record', 'lsa.json'],\n"
        "             ['verify', '--instance', 'inst.json', '--schedule', 'wf.json',\n"
        "              '--ratio', '1.582', '--out', 'verify.json']):\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "verify.json").read_text())["extendable"] is True


def test_every_record_and_schedule_rewrites_to_its_own_bytes(tmp_path):
    # README's byte-stable round trip, on strict JSON: no inf or nan
    def strict(text):
        return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in {text!r}"))

    files = 0
    for n in range(7):
        for seed in range(3):
            inst = tmp_path / f"n{n}-s{seed}.json"
            inst.write_text(core.jobs_to_json(cli.generate_random(n, seed)))
            for algo in (*cli.ALGORITHMS, "best --lp-ls"):
                stem = f"{inst.stem}-{algo.replace(' --', '-')}"
                rec, sched = tmp_path / f"{stem}-run.json", tmp_path / f"{stem}-sched.json"
                code = main(["run", *algo.split(), "--input", str(inst), "--record", str(rec),
                             "--schedule-out", str(sched)])
                assert code in (0, 3), (inst.name, algo, code)
                for path in (rec, sched) if code == 0 else (rec,):
                    text = path.read_text()
                    assert core._dump(strict(text)) + "\n" == text, path.name
                    files += 1
    assert files >= 200


def test_compare_with_no_algorithm_exits_2(workdir, capsys):
    assert main(["compare", "--inputs", str(workdir / "three.json"), "--algos", ","]) == 2
    assert "no algorithms given" in capsys.readouterr().err


def test_plot_alpha_without_an_instance_exits_2(workdir, tmp_path, capsys):
    sched = tmp_path / "s.json"
    assert main(["run", "greedy", "--input", str(workdir / "three.json"),
                 "--record", str(tmp_path / "r.json"), "--schedule-out", str(sched)]) == 0
    assert main(["plot", "--schedule", str(sched), "--alpha", "1,2,3"]) == 2
    assert "--alpha requires --instance" in capsys.readouterr().err
