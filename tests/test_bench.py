import pytest

from helpers import synthetic_raw_text
from sylpipe import bench
from sylpipe.pipeline import build_pipeline


@pytest.fixture(scope="module")
def pipes(model_dir):
    return {
        "full": build_pipeline(model_dir=model_dir),
        "wseg": build_pipeline(["wseg"], model_dir=model_dir),
    }


def test_empty_document_rejected(pipes):
    with pytest.raises(ValueError):
        bench.benchmark_throughput(pipes["full"], "", repetitions=1)
    with pytest.raises(ValueError):
        bench.benchmark_stages(pipes["full"], "   ", repetitions=1)


def test_bad_repetitions(pipes):
    with pytest.raises(ValueError):
        bench.benchmark_throughput(pipes["full"], "Họ làm việc .", repetitions=0)


def test_throughput_definition(pipes):
    # 10k words / measured seconds: sanity-check the unit by bounding
    text = synthetic_raw_text(3000, seed=11)
    rate = bench.benchmark_throughput(pipes["wseg"], text, repetitions=3)
    assert rate > 0


def test_wseg_only_not_slower_than_full(pipes):
    text = synthetic_raw_text(3000, seed=12)
    seg_rate = bench.benchmark_throughput(pipes["wseg"], text, repetitions=3)
    full_rate = bench.benchmark_throughput(pipes["full"], text, repetitions=3)
    assert seg_rate >= full_rate


def test_stage_rates_keys(pipes):
    text = synthetic_raw_text(1500, seed=13)
    rates, words = bench.benchmark_stages(pipes["full"], text, repetitions=1)
    assert set(rates) == {"wseg", "pos", "ner", "parse"}
    assert words > 1000
    assert all(v > 0 for v in rates.values())
