"""The repo-specific lint (``tools/repo_lint.py``) and its rules.

Asserts both directions: the repository itself is clean, and the rules
actually fire on synthetic violations (so the clean result is not
vacuous).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

from repo_lint import (  # noqa: E402 — path set up above
    DYNAMIC_CODE_SANCTIONED,
    HASH_FORBIDDEN_PATHS,
    WALL_CLOCK_FORBIDDEN_PATHS,
    lint_file,
    lint_repository,
    main,
)


def write_module(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


class TestRepositoryIsClean:
    def test_lint_repository_clean(self):
        violations = lint_repository()
        assert violations == [], [v.describe() for v in violations]

    def test_cli_exit_zero(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_list_catalogue(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert code in out

    def test_script_runs_standalone(self):
        result = subprocess.run(
            [sys.executable, str(TOOLS / "repo_lint.py")],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestRL001BuiltinHash:
    def test_hash_call_on_routing_path_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/bad_router.py",
            "def route(key, shards):\n    return hash(key) % shards\n",
        )
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL001"]
        assert violations[0].line == 2
        assert "stable_partition_hash" in violations[0].message

    @pytest.mark.parametrize("prefix", HASH_FORBIDDEN_PATHS)
    def test_every_forbidden_tree_is_covered(self, tmp_path, prefix):
        path = write_module(
            tmp_path, f"{prefix}/bad.py", "value = hash('x')\n"
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL001"]

    def test_hash_call_elsewhere_allowed(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/core/ok.py", "value = hash('x')\n"
        )
        assert lint_file(path, root=tmp_path) == []

    def test_dunder_hash_definition_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/ok.py",
            "class Key:\n    def __hash__(self):\n        return 7\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_attribute_hash_call_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/ok2.py",
            "import zlib\nvalue = zlib.crc32(b'x')\n",
        )
        assert lint_file(path, root=tmp_path) == []


class TestRL002SilentExcept:
    def test_bare_except_pass_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept:\n    pass\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL002"]

    def test_broad_except_exception_pass_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept Exception:\n    pass\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL002"]

    def test_tuple_with_base_exception_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept (ValueError, BaseException):\n    pass\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL002"]

    def test_specific_exception_pass_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept OSError:\n    pass\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_broad_except_with_handling_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept Exception as exc:\n    log(exc)\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_outside_src_repro_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "benchmarks/bench.py",
            "try:\n    work()\nexcept Exception:\n    pass\n",
        )
        assert lint_file(path, root=tmp_path) == []


class TestRL003WallClock:
    def test_time_time_on_latency_path_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/bad_timer.py",
            "import time\nstarted = time.time()\n",
        )
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL003"]
        assert violations[0].line == 2
        assert "perf_clock" in violations[0].message

    def test_bare_time_import_call_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/gateway/bad_timer.py",
            "from time import time\nstarted = time()\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL003"]

    @pytest.mark.parametrize("prefix", WALL_CLOCK_FORBIDDEN_PATHS)
    def test_every_forbidden_tree_is_covered(self, tmp_path, prefix):
        path = write_module(
            tmp_path, f"{prefix}/bad.py", "import time\nnow = time.time()\n"
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL003"]

    def test_clock_module_is_sanctioned(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/observability/clock.py",
            "import time\ndef wall_clock():\n    return time.time()\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_monotonic_and_perf_counter_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/ok_timer.py",
            "import time\ndeadline = time.monotonic() + 5\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_time_time_outside_latency_paths_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/detection/ok.py",
            "import time\nstamp = time.time()\n",
        )
        assert lint_file(path, root=tmp_path) == []


class TestRL004UnnamedThreads:
    def test_unnamed_thread_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/bad_thread.py",
            "import threading\nworker = threading.Thread(target=print, daemon=True)\n",
        )
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL004"]
        assert violations[0].line == 2
        assert "name=" in violations[0].message

    def test_bare_thread_import_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/gateway/bad_thread.py",
            "from threading import Thread\nworker = Thread(target=print)\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL004"]

    def test_named_thread_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/ok_thread.py",
            "import threading\n"
            "worker = threading.Thread(target=print, name='repro-worker', daemon=True)\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_kwargs_splat_assumed_named(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/splat_thread.py",
            "import threading\n"
            "def spawn(**kwargs):\n"
            "    return threading.Thread(target=print, **kwargs)\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_outside_src_repro_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "tools/helper.py",
            "import threading\nworker = threading.Thread(target=print)\n",
        )
        assert lint_file(path, root=tmp_path) == []


class TestRL005DynamicCode:
    @pytest.mark.parametrize(
        "source",
        [
            "exec('x = 1')\n",
            "value = eval('1 + 1')\n",
            "code = compile('1', '<q>', 'eval')\n",
            "run = exec\n",
            "import builtins\nvalue = builtins.eval('1')\n",
        ],
    )
    def test_dynamic_code_flagged(self, tmp_path, source):
        path = write_module(tmp_path, "src/repro/gateway/bad_codegen.py", source)
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL005"]
        assert DYNAMIC_CODE_SANCTIONED in violations[0].message

    def test_predicate_generator_is_sanctioned(self, tmp_path):
        path = write_module(
            tmp_path, DYNAMIC_CODE_SANCTIONED, "exec(compile('x = 1', '<q>', 'exec'), {})\n"
        )
        assert lint_file(path, root=tmp_path) == []

    def test_methods_and_attributes_named_compile_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/cep/ok_compile.py",
            "import re\n"
            "pattern = re.compile('x')\n"
            "def build(expression):\n"
            "    return expression.compile()\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_outside_src_repro_allowed(self, tmp_path):
        path = write_module(tmp_path, "tools/helper.py", "exec('x = 1')\n")
        assert lint_file(path, root=tmp_path) == []
