"""scripts/bench_pairs.py: a failed benchmark run is reported, not lost."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_checkout(root: Path, body: str) -> Path:
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("import sys\n" + body)
    return root


@pytest.mark.parametrize(
    "body, code, reason",
    [
        ("for i in range(30):\n    print('line', i, file=sys.stderr)\nsys.exit(3)\n",
         3, "exited non-zero"),
        ("print('{\"metrics\":')\nfor i in range(30):\n    print('line', i, file=sys.stderr)\n",
         0, "printed no JSON last line"),
    ],
    ids=["exit_code", "not_json"],
)
def test_failed_run_names_workload_side_code_and_stderr(tmp_path, bench_pairs, body, code, reason):
    checkout = fake_checkout(tmp_path, body)
    with pytest.raises(RuntimeError) as info:
        bench_pairs.run_workload(checkout, "parent", "grid", 0, 1)
    message = str(info.value)
    assert "'grid'" in message and "parent side" in message
    assert reason in message and f"exit code {code}" in message
    tail = message.split("stderr:\n", 1)[1].splitlines()
    assert tail == [f"line {i}" for i in range(10, 30)]


def test_successful_run_returns_its_last_line(tmp_path, bench_pairs):
    checkout = fake_checkout(tmp_path, "print('progress')\nprint('{\"failed\": 0}')\n")
    assert bench_pairs.run_workload(checkout, "change", "grid", 0, 1) == {"failed": 0}
