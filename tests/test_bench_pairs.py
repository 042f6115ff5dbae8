import importlib.util
from pathlib import Path

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
