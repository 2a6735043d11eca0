"""The paired benchmark harness applies BENCHMARK.json's rule per metric."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_STEADY = [10.0, 10.1, 9.9, 10.0, 10.05]  # quartile spread 1% of the median
_NOISY = [8.0, 12.0, 10.0, 7.0, 13.0]  # quartile spread 40% of the median


@pytest.mark.parametrize(
    "base, head, better, verdict",
    [
        # median 30% worse, beyond the 25% bound
        (_STEADY, [13.0, 13.1, 12.9, 13.0, 13.05], "lower", "regressed"),
        (_STEADY, [7.0, 7.1, 6.9, 7.0, 7.05], "higher", "regressed"),
        # same medians, but the base spreads beyond the bound
        (_NOISY, [8.5, 11.5, 10.0, 7.5, 12.5], "lower", "unresolved"),
        # a base that spreads as widely, beaten by every run
        (_NOISY, [6.0, 6.5, 5.5, 6.2, 6.1], "lower", "within_bound"),
        # 10% worse, within the bound, on a steady base
        (_STEADY, [11.0, 11.1, 10.9, 11.0, 11.05], "lower", "within_bound"),
    ],
)
def test_compare_verdicts(base, head, better, verdict):
    assert bench_pairs.compare(base, head, better, 0.25)["verdict"] == verdict
