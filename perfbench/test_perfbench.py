"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import sys

import pytest

import bench_trace
import run
from bench_workloads import Command

sys.path.insert(0, str(run.ROOT / "src"))


def test_self_time_subtracts_child_spans_on_a_hand_made_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7];
    # matmul is a hot name, so it is aggregated without a span record
    ticks = iter([0, 1, 2, 3, 4, 5, 7, 10, 11, 12.5])
    tracer = bench_trace.Tracer(clock=lambda: next(ticks))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    tracer.enter("autodiff.matmul")
    tracer.exit()

    assert tracer.stats["a"] == [1, 10, 5]
    assert tracer.stats["b"] == [1, 3, 2]
    assert tracer.stats["c"] == [1, 1, 1]
    assert tracer.stats["d"] == [1, 2, 2]
    assert tracer.stats["autodiff.matmul"] == [1, 1.5, 1.5]
    names = [s["name"] for s in tracer.spans]
    assert names == ["a", "b", "c", "d"]
    parents = [s["parent"] for s in tracer.spans]
    assert parents == [None, 0, 1, 0]


def test_kind_stats_split_self_time_by_command_kind():
    ticks = iter([0, 1, 3, 4, 10, 12])
    tracer = bench_trace.Tracer(clock=lambda: next(ticks))
    tracer.kind = "train"
    tracer.enter("cli")
    tracer.enter("autodiff.matmul")
    tracer.exit()
    tracer.exit()
    tracer.kind = "eval"
    tracer.enter("cli")
    tracer.exit()

    assert tracer.kind_stats["train"] == {"cli": [4, 2], "autodiff.matmul": [2, 2]}
    assert tracer.kind_stats["eval"] == {"cli": [2, 2]}
    shares = bench_trace.shares(tracer, 1)
    assert shares["train"] == {
        "seconds": 4,
        "self": {"cli": 0.5, "autodiff.matmul": 0.5},
        "total": {"cli": 1.0, "autodiff.matmul": 0.5},
    }


def test_medians_take_each_commands_middle_pass():
    assert run.medians([[3.0, 1.0], [2.0, 4.0], [5.0, 1.5]]) == [3.0, 1.5]


def test_clock_divides_by_the_slowness_around_each_sample():
    slowness = iter([1.0, 2.0, 2.0, 0.5])
    clock = run.Clock(lambda: next(slowness), share=0)
    assert clock.scale(3.0) == 2.0  # (1 + 2) / 2
    assert clock.scale(4.0) == 2.0  # (2 + 2) / 2
    assert clock.scale(1.25) == 1.0  # (2 + 0.5) / 2


def test_clock_takes_the_median_reference_after_a_long_sample():
    # 0.6 s at a 5 % share is 0.03 s of reference work: two repeats at
    # the nominal 0.027 s, and the median of 1.0 and 3.0 is 2.0
    slowness = iter([2.0, 1.0, 3.0])
    clock = run.Clock(lambda: next(slowness), share=0.05)
    assert clock.scale(0.6) == 0.3


def test_reference_slowness_is_near_one_and_positive():
    slowness = run.Reference().slowness()
    assert 0.1 < slowness < 10


def test_tensor_bytes_count_new_arrays_only():
    import numpy as np
    from semfuse import autodiff

    tracer = bench_trace.Tracer()
    uninstall = bench_trace.install(tracer)
    try:
        x = autodiff.Tensor(np.ones((4, 4)))
        autodiff.transpose(x)  # a view of x
        x.detach()  # x's own array again
        autodiff.add(x, x)  # a new array
    finally:
        uninstall()
    assert tracer.counts["autodiff.tensors"] == 4
    assert tracer.counts["autodiff.tensor_bytes"] == 2 * 16 * 8


def test_changed_report_byte_fails_the_command(tmp_path):
    report = b"variation,mode\nours,zsl\n"

    def main(argv):
        (tmp_path / "report.csv").write_bytes(report)
        return 0

    command = Command("eval", ["eval"], ["report.csv"])
    expected = {}
    assert run.run_command(main, command, tmp_path, expected)[1]
    assert run.run_command(main, command, tmp_path, expected)[1]

    report = b"variation,mode\nours,zsm\n"
    assert not run.run_command(main, command, tmp_path, expected)[1]


def test_nonzero_exit_or_missing_output_fails_the_command(tmp_path):
    command = Command("train", ["train"], ["train_log.csv"])
    assert not run.run_command(lambda argv: 2, command, tmp_path, {})[1]
    assert not run.run_command(lambda argv: 0, command, tmp_path, {})[1]


@pytest.fixture(scope="module")
def two_traced_passes(tmp_path_factory):
    figures = []
    for i in range(2):
        work = tmp_path_factory.mktemp(f"traced{i}")
        bench = run.Run("suite-small", run.DEFAULT_SEED, work, {})
        tracer = bench_trace.Tracer()
        uninstall = bench_trace.install(tracer)
        try:
            bench.one_pass()
        finally:
            uninstall()
        assert bench.failed == 0
        figures.append(bench_trace.layer_metrics(tracer, 1, 1.0))
    return figures


@pytest.mark.parametrize(
    "name", ["autodiff.tensors", "autodiff.matmul_gflop", "wordvec.tokens_parsed"]
)
def test_counts_repeat_exactly_across_traced_runs(two_traced_passes, name):
    first, second = (f[name]["value"] for f in two_traced_passes)
    assert first > 0
    assert first == second


def test_uninstall_restores_every_patched_name():
    from semfuse import autodiff, cli, gen_zsl

    before = [autodiff.Tensor.__init__, autodiff.matmul, cli.load_features,
              gen_zsl.GanTrainer.wgan_step, gen_zsl.fuse_graph]
    uninstall = bench_trace.install(bench_trace.Tracer())
    patched = [autodiff.Tensor.__init__, autodiff.matmul, cli.load_features,
               gen_zsl.GanTrainer.wgan_step, gen_zsl.fuse_graph]
    uninstall()
    after = [autodiff.Tensor.__init__, autodiff.matmul, cli.load_features,
             gen_zsl.GanTrainer.wgan_step, gen_zsl.fuse_graph]
    assert all(a is not b for a, b in zip(before, patched))
    assert all(a is b for a, b in zip(before, after))
