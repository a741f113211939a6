"""The pair tool's verdicts, its reference-kernel and inputs lines and
its getrusage rows, on synthetic numbers and a stub checkout (no
benchmark run)."""

import json
from types import SimpleNamespace

import pytest

import bench_pairs
from bench_pairs import inputs_line, kernel_moved, verdict

# ten parent runs with an interquartile range of 0.5 around 10
PARENT = [9.5, 9.7, 9.8, 9.9, 10.0, 10.0, 10.1, 10.2, 10.3, 10.5]


def shifted(values, by):
    return [v + by for v in values]


class TestVerdict:
    def test_gain_needs_nine_of_ten_wins(self):
        # every change run 1.0 lower: 10/10 wins, a gap above the IQR
        assert verdict(PARENT, shifted(PARENT, -1.0), "lower", 0.2) == (10, 0, "gain")
        # nine wins still gain; eight do not
        nine = shifted(PARENT, -1.0)
        nine[0] = PARENT[0] + 1.0
        assert verdict(PARENT, nine, "lower", 0.2) == (9, 1, "gain")
        eight = list(nine)
        eight[1] = PARENT[1] + 1.0
        assert verdict(PARENT, eight, "lower", 0.2)[2] != "gain"

    def test_gain_needs_the_median_gap_above_the_parent_iqr(self):
        # 10/10 wins by 0.3 each, below the parent's IQR of about 0.5
        wins, losses, word = verdict(PARENT, shifted(PARENT, -0.3), "lower", 0.2)
        assert (wins, losses) == (10, 0) and word != "gain"

    def test_higher_is_better(self):
        assert verdict(PARENT, shifted(PARENT, 1.0), "higher", 0.2) == (10, 0, "gain")
        assert verdict(PARENT, shifted(PARENT, -1.0), "higher", 0.2)[:2] == (0, 10)

    def test_ties_count_for_neither_side(self):
        change = list(PARENT)
        change[0] -= 1.0     # one win, one loss, eight ties
        change[1] += 1.0
        wins, losses, _ = verdict(PARENT, change, "lower", 0.2)
        assert (wins, losses) == (1, 1)

    @pytest.mark.parametrize("better, by", [("lower", 2.5), ("higher", -2.5)])
    def test_worse_beyond_the_bound(self, better, by):
        # the median moves 25% the wrong way against a 20% bound
        assert verdict(PARENT, shifted(PARENT, by), better, 0.2)[2] == "worse"
        # 10% the wrong way is within it
        assert verdict(PARENT, shifted(PARENT, by / 2.5), better, 0.2)[2] == "within bound"

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        wide = [5.0, 7.0, 9.0, 10.0, 10.0, 10.0, 11.0, 13.0, 15.0, 17.0]
        # the parent's IQR is 40% of its median, the bound 20%
        assert verdict(wide, list(wide), "lower", 0.2) == (0, 0, "unresolved")
        # unless every change run beats every parent run: ten wins by a
        # median gap below the parent's IQR are within the bound
        skewed = [8.0, 8.0, 8.0, 10.0, 10.0, 10.0, 10.0, 14.0, 14.0, 14.0]
        assert verdict(skewed, [7.9] * 10, "lower", 0.2) == (10, 0, "within bound")

    def test_within_bound(self):
        assert verdict(PARENT, list(PARENT), "lower", 0.2) == (0, 0, "within bound")


def runs(parent_ref, change_ref, name="eval_reference_ms", rate="eval_clips_per_cpu_s"):
    return {"parent": [{name: v, rate: 19.5} for v in parent_ref],
            "change": [{name: v, rate: 20.6} for v in change_ref]}


class TestKernelMoved:
    def test_line_when_the_kernel_moves_beyond_the_parent_iqr(self):
        (line,) = kernel_moved(runs([11.9, 12.0, 12.1], [14.6, 14.7, 14.8]))
        assert line == ("  reference kernel moved: eval_reference_ms 12 -> 14.7 "
                        "(+22.5%), beyond the parent IQR 0.1; eval_clips_per_cpu_s: "
                        "parent 19.5; change 20.6")

    def test_train_kernel_names_the_train_rate(self):
        (line,) = kernel_moved(runs([2.0, 2.0, 2.0], [1.0, 1.0, 1.0],
                                    "train_reference_ms", "train_clip_steps_per_cpu_s"))
        assert "train_reference_ms 2 -> 1 (-50.0%)" in line
        assert line.endswith("train_clip_steps_per_cpu_s: parent 19.5; change 20.6")

    def test_no_line_within_the_parent_iqr(self):
        assert kernel_moved(runs([11.0, 12.0, 13.0], [12.5, 12.5, 12.5])) == []

    def test_no_line_without_a_kernel_metric(self):
        assert kernel_moved({"parent": [{"x": 1.0}], "change": [{"x": 2.0}]}) == []

    def test_printed_after_the_verdicts(self, monkeypatch, capsys, tmp_path):
        # a two-pair run whose runs are canned: the line sits next to the
        # end-to-end verdicts, before the failed-operation counts
        (tmp_path / "BENCHMARK.json").write_text(
            '{"run_seconds": 1, "workloads": [{"name": "eval_m2048"}], '
            '"end_to_end": [{"name": "eval_clip_ref_ms", '
            '"unit": "ms", "better": "lower", "bound": 0.2}]}')
        canned = {"parent": (50.0, 12.0), "change": (40.0, 15.0)}

        def run_once(checkout, workload, seed, seconds):
            ref_ms, kernel = canned["parent" if checkout.name == "p" else "change"]
            return ({"eval_clip_ref_ms": ref_ms, "eval_reference_ms": kernel,
                     "eval_clips_per_cpu_s": 20.0},
                    {"correct": True, "failed": 0, "attempted": 5}, "ab12")

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        parent = tmp_path / "p"
        assert bench_pairs.main([str(parent), str(tmp_path), "--workload", "eval_m2048",
                                 "--pairs", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        moved = [i for i, line in enumerate(out) if "reference kernel moved" in line]
        verdicts = [i for i, line in enumerate(out) if "eval_clip_ref_ms: 50" in line]
        failed = [i for i, line in enumerate(out) if "operations failed" in line]
        assert len(moved) == 1 and verdicts[0] < moved[0] < failed[0]
        assert "eval_clips_per_cpu_s: parent 20; change 20" in out[moved[0]]



def stub_checkout(root):
    """A checkout whose benchmark run prints one result line, for 4
    operations."""
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 4}))\n")
    return root


class TestRunOnce:
    def test_fault_and_sys_cpu_rows(self, tmp_path):
        reported, result, inputs = bench_pairs.run_once(stub_checkout(tmp_path),
                                                        "eval_m2048", 0, 1)
        assert result == {"correct": True, "failed": 0, "attempted": 4}
        assert inputs is None     # the stub prints no env line
        assert sorted(reported) == ["run_minor_faults_per_op", "run_sys_cpu_share"]
        # starting an interpreter alone faults in pages
        assert reported["run_minor_faults_per_op"] > 0
        assert 0.0 <= reported["run_sys_cpu_share"] <= 1.0

    def test_rows_are_the_run_deltas(self, tmp_path, monkeypatch):
        # the children's usage before and after the run, canned
        usage = iter([SimpleNamespace(ru_minflt=1000, ru_utime=2.0, ru_stime=0.5),
                      SimpleNamespace(ru_minflt=9000, ru_utime=5.0, ru_stime=1.5)])
        monkeypatch.setattr(bench_pairs.resource, "getrusage", lambda who: next(usage))
        reported, _, _ = bench_pairs.run_once(stub_checkout(tmp_path), "eval_m2048", 0, 1)
        # 8000 faults over 4 operations; 1.0 s of system CPU in 4.0 s
        assert reported == {"run_minor_faults_per_op": 2000.0, "run_sys_cpu_share": 0.25}


def env_checkout(root, input_sha256):
    """A stub checkout whose run prints an env line naming its inputs."""
    stub_checkout(root)
    (root / "perfbench" / "run.py").write_text(
        "import json\n"
        f"print('env ' + json.dumps({{'input_sha256': {input_sha256!r}, 'seed': 0}}))\n"
        "print('metric eval_clip_ref_ms = 2.0 ms')\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 4}))\n")
    return root


class TestInputs:
    def test_run_once_reads_the_env_line(self, tmp_path):
        _, _, inputs = bench_pairs.run_once(env_checkout(tmp_path, "c0ffee"),
                                            "eval_m512", 0, 1)
        assert inputs == "c0ffee"

    def test_same_inputs(self):
        assert inputs_line({"parent": ["ab", "ab"], "change": ["ab", "ab"]}) == \
            "  same inputs: input_sha256 ab"

    def test_different_inputs_name_both_hashes(self):
        assert inputs_line({"parent": ["ab", "ab"], "change": ["cd", "cd"]}) == \
            "  inputs: parent input_sha256 ab; change input_sha256 cd"

    def test_a_side_that_moved_or_reported_none(self):
        assert inputs_line({"parent": ["ab", "ef"], "change": ["ab", "ab"]}) == \
            "  inputs: parent input_sha256 ab, ef; change input_sha256 ab"
        assert inputs_line({"parent": [None], "change": [None]}) == \
            "  inputs: parent input_sha256 none; change input_sha256 none"

    def test_a_pair_over_different_clips_says_so(self, tmp_path, capsys):
        (tmp_path / "p").mkdir()
        (tmp_path / "c").mkdir()
        parent = env_checkout(tmp_path / "p", "aaaa")
        change = env_checkout(tmp_path / "c", "bbbb")
        (change / "BENCHMARK.json").write_text(json.dumps(BENCH))
        assert bench_pairs.main([str(parent), str(change), "--workload", "eval_m512",
                                 "--pairs", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out.index("eval_m512, seed 0, 1 pairs of 1 s runs: median [q1, q3]")
        assert out[header + 1] == "  inputs: parent input_sha256 aaaa; change input_sha256 bbbb"


BENCH = {"run_seconds": 1,
         "workloads": [{"name": "train_desk"}, {"name": "eval_m512"}],
         "end_to_end": [{"name": "eval_clip_ref_ms", "unit": "ms",
                         "better": "lower", "bound": 0.2}]}


class TestWorkloads:
    def test_all_is_every_benchmark_workload(self):
        assert bench_pairs.workloads(["all"], BENCH) == ["train_desk", "eval_m512"]

    def test_named_in_the_order_given(self):
        assert bench_pairs.workloads(["eval_m512", "train_desk"], BENCH) == \
            ["eval_m512", "train_desk"]

    @pytest.mark.parametrize("named", [["bogus"], ["eval_m512", "eval_m512"],
                                       ["all", "train_desk"]])
    def test_unknown_or_repeated_rejected(self, named):
        with pytest.raises(ValueError, match="distinct workloads of train_desk, eval_m512"):
            bench_pairs.workloads(named, BENCH)

    def test_one_block_per_workload(self, tmp_path, capsys):
        # a stub checkout whose run reports the workload's own metric value
        root = stub_checkout(tmp_path)
        (root / "BENCHMARK.json").write_text(json.dumps(BENCH))
        (root / "perfbench" / "run.py").write_text(
            "import json, sys\n"
            "ms = {'train_desk': 1.0, 'eval_m512': 4.0}[sys.argv[2]]\n"
            "print(f'metric eval_clip_ref_ms = {ms} ms')\n"
            "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 4}))\n")
        assert bench_pairs.main([str(root), str(root), "--workload", "all",
                                 "--pairs", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        blocks = [line for line in out.splitlines() if ", seed 0, 1 pairs of 1 s runs" in line]
        assert [line.split(",")[0] for line in blocks] == ["train_desk", "eval_m512"]
        assert out.count("end-to-end verdicts") == 2
        assert "eval_clip_ref_ms: 1 -> 1 (+0.0%)" in out
        assert "eval_clip_ref_ms: 4 -> 4 (+0.0%)" in out

    def test_unknown_workload_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "eval_m2048",
                              "--pairs", "1", "--seed", "0"])
        assert exc.value.code == 2
        assert "--workload takes distinct workloads" in capsys.readouterr().err
