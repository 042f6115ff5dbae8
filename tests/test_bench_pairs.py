import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_compile_writes_bytecode_where_writing_is_off(tmp_path, monkeypatch):
    # run.py's workers inherit PYTHONDONTWRITEBYTECODE, so each side's bytecode
    # must be written before the first pair, or one side compiles in every worker
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for name in ("src/pkg/mod.py", "perfbench/work.py"):
        (tmp_path / name).parent.mkdir(parents=True)
        (tmp_path / name).write_text("VALUE = 1\n", encoding="utf-8")
    load_bench_pairs().byte_compile(tmp_path)
    for folder, stem in (("src/pkg", "mod"), ("perfbench", "work")):
        assert list((tmp_path / folder / "__pycache__").glob(f"{stem}.*.pyc"))


def test_checkout_paths_of_different_lengths_are_refused(tmp_path, capsys, monkeypatch):
    # xxz_deep's peak_rss_mb moves with the length of the checkout path
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir(), change.mkdir()
    bench_pairs = load_bench_pairs()
    monkeypatch.setattr(bench_pairs, "byte_compile", lambda checkout: pytest.fail("ran before refusing"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(base), str(change), "--out", str(tmp_path / "out.json")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"checkout paths {base.resolve()} and {change.resolve()} differ in length" in err
    assert not (tmp_path / "out.json").exists()


END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "rate", "better": "higher", "bound": 0.05}]


def synthetic_pairs(base, change):
    return [{"base": {"metrics": {"wall_s": b, "rate": 1.0 / b}},
             "change": {"metrics": {"wall_s": c, "rate": 1.0 / c}}} for b, c in zip(base, change)]


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_summarize_clear_win():
    summary = load_bench_pairs().summarize(synthetic_pairs(BASE, [0.8 * b for b in BASE]), END_TO_END)
    for name in ("wall_s", "rate"):
        assert summary[name]["change_wins"] == 10
        assert summary[name]["claim_met"] and summary[name]["within_bound"]


def test_summarize_tie():
    # the same values shifted by one pair: no claim, and inside every bound
    summary = load_bench_pairs().summarize(synthetic_pairs(BASE, BASE[1:] + BASE[:1]), END_TO_END)
    for name in ("wall_s", "rate"):
        assert summary[name]["change_wins"] < 9
        assert not summary[name]["claim_met"] and summary[name]["within_bound"]


def test_summarize_regression_past_the_bound():
    # 30% slower is past wall_s's 25%; the rate falls by 23%, past its 5%
    summary = load_bench_pairs().summarize(synthetic_pairs(BASE, [1.3 * b for b in BASE]), END_TO_END)
    for name in ("wall_s", "rate"):
        assert summary[name]["change_wins"] == 0
        assert not summary[name]["claim_met"] and not summary[name]["within_bound"]


def test_summarize_nine_wins_inside_the_spread_claim_nothing():
    # better in 9 of 10 pairs, but by less than the base interquartile range
    change = [b - 0.001 for b in BASE[:9]] + [BASE[9] + 0.001]
    summary = load_bench_pairs().summarize(synthetic_pairs(BASE, change), END_TO_END)
    assert summary["wall_s"]["change_wins"] == 9
    assert not summary["wall_s"]["claim_met"] and summary["wall_s"]["within_bound"]


def failure_pairs(base, change):
    """Pairs whose sides failed `failed` of `attempted` operations, per pair."""
    return [{"base": {"failed": bf, "attempted": ba}, "change": {"failed": cf, "attempted": ca}}
            for (bf, ba), (cf, ca) in zip(base, change)]


def test_failed_share_is_pooled_over_all_pairs():
    # 1 of 10 and 0 of 90 pool to 1 of 100, where a mean of the per-pair
    # shares would give 5 of 100
    result = load_bench_pairs().failures(failure_pairs([(1, 10), (0, 90)], [(0, 50), (2, 50)]))
    assert result["base"] == {"failed": 1, "attempted": 100, "share": 0.01}
    assert result["change"] == {"failed": 2, "attempted": 100, "share": 0.02}
    assert not result["no_more_failures"]


def test_no_more_failures_holds_for_an_equal_or_smaller_share():
    bench_pairs = load_bench_pairs()
    assert bench_pairs.failures(failure_pairs([(0, 40)] * 10, [(0, 55)] * 10))["no_more_failures"]
    assert bench_pairs.failures(failure_pairs([(2, 40)] * 10, [(1, 40)] * 10))["no_more_failures"]
    assert bench_pairs.failures(failure_pairs([(1, 40)] * 10, [(1, 40)] * 10))["no_more_failures"]
    # one failure in ten pairs, where the parent had none, is a larger share
    change = [(0, 40)] * 9 + [(1, 40)]
    assert not bench_pairs.failures(failure_pairs([(0, 40)] * 10, change))["no_more_failures"]
