#!/usr/bin/env python
"""Repository-specific lint rules that generic linters do not cover.

Five rules, all born from real failure modes of this codebase:

``RL001`` — no builtin ``hash()`` on routing/persistence code paths
    CPython salts ``hash()`` per process (PYTHONHASHSEED), so a shard
    router or a persisted artifact keyed on it changes meaning across
    restarts and across processes — precisely the places that must be
    deterministic.  Those paths use the CRC-32 based
    ``stable_partition_hash`` instead.  Scoped to ``src/repro/runtime``,
    ``src/repro/persistence`` and ``src/repro/storage``; ``__hash__``
    *method definitions* (in-process identity) are fine, *calling* the
    builtin is not.

``RL002`` — no silently-swallowed broad exceptions in ``src/repro``
    An ``except Exception:`` (or bare ``except:``) whose body is only
    ``pass`` hides real defects with no trace.  Intentional best-effort
    suppression must be spelled ``contextlib.suppress(...)`` — greppable,
    explicit about the exception types, and reviewed as such.

``RL003`` — no ``time.time()`` on latency-measurement paths
    Wall-clock time jumps under NTP slew and DST, so a latency computed
    from two ``time.time()`` readings can be negative or wildly wrong —
    and every histogram it feeds is silently corrupted.  Latency paths
    (``src/repro/runtime``, ``src/repro/gateway``,
    ``src/repro/persistence``, ``src/repro/observability``) must take
    their readings from :mod:`repro.observability.clock`
    (``perf_clock`` for durations, ``monotonic_time`` for
    cross-process span timestamps); ``observability/clock.py`` itself is
    the one sanctioned caller of ``time.time()``.

``RL004`` — every background thread is constructed with ``name=``
    The sampling profiler uses the thread name as the root of every
    collapsed stack, the watchdog and sampler name themselves in health
    reports, and ``threading.enumerate()`` dumps are how stalls get
    debugged — an anonymous ``Thread-7`` is unattributable in all three.
    Every ``threading.Thread(...)`` constructed under ``src/repro`` must
    pass a ``name=`` keyword (``repro-<role>`` by convention).

``RL005`` — builtin ``exec``, ``eval`` and ``compile`` only in ``cep/expressions.py``
    Query text reaches the engine from remote gateway clients, so code
    generation is confined to one reviewed module: the predicate generator
    in ``src/repro/cep/expressions.py``, which splices nothing from a query
    into its source except ``repr``'d field names.  Any other use of the
    three builtins under ``src/repro`` (called, aliased or reached through
    ``builtins.``) is flagged.

Run as a script (CI) or through ``tests/test_repo_lint.py``::

    python tools/repo_lint.py            # lint the repository, exit 0/1
    python tools/repo_lint.py --list     # print the rule catalogue
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories where builtin ``hash()`` is forbidden (RL001).
HASH_FORBIDDEN_PATHS = (
    "src/repro/runtime",
    "src/repro/persistence",
    "src/repro/storage",
)

#: Directory tree where silent broad excepts are forbidden (RL002).
SWALLOW_FORBIDDEN_PATH = "src/repro"

#: Latency-measurement trees where ``time.time()`` is forbidden (RL003).
WALL_CLOCK_FORBIDDEN_PATHS = (
    "src/repro/runtime",
    "src/repro/gateway",
    "src/repro/persistence",
    "src/repro/observability",
)

#: The one module allowed to call ``time.time()``: the clock itself.
WALL_CLOCK_SANCTIONED = "src/repro/observability/clock.py"

#: Directory tree where anonymous threads are forbidden (RL004).
THREAD_NAME_REQUIRED_PATH = "src/repro"

#: Directory tree where code-generating builtins are forbidden (RL005).
DYNAMIC_CODE_FORBIDDEN_PATH = "src/repro"

#: The one module allowed to generate code: the predicate generator.
DYNAMIC_CODE_SANCTIONED = "src/repro/cep/expressions.py"

_DYNAMIC_CODE_BUILTINS = frozenset({"exec", "eval", "compile"})


class Violation(NamedTuple):
    """One finding: file, line, rule code and explanation."""

    path: str
    line: int
    code: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _is_builtin_hash_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    )


def _is_broad_silent_except(node: ast.AST) -> bool:
    if not isinstance(node, ast.ExceptHandler):
        return False
    if not (len(node.body) == 1 and isinstance(node.body[0], ast.Pass)):
        return False
    if node.type is None:  # bare except:
        return True
    names = []
    if isinstance(node.type, ast.Name):
        names = [node.type.id]
    elif isinstance(node.type, ast.Tuple):
        names = [e.id for e in node.type.elts if isinstance(e, ast.Name)]
    return any(name in ("Exception", "BaseException") for name in names)


def _lint_hash_calls(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_builtin_hash_call(node):
            yield Violation(
                relative,
                node.lineno,
                "RL001",
                "builtin hash() is process-salted and must not be used on "
                "routing/persistence paths; use "
                "repro.runtime.router.stable_partition_hash (or another "
                "explicit, stable hash)",
            )


def _is_wall_clock_call(node: ast.AST) -> bool:
    """Match ``time.time()`` and ``from time import time; time()`` calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "time"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return True
    return isinstance(func, ast.Name) and func.id == "time"


def _lint_wall_clock_calls(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_wall_clock_call(node):
            yield Violation(
                relative,
                node.lineno,
                "RL003",
                "time.time() is wall-clock and jumps under NTP/DST; latency "
                "paths must use repro.observability.clock (perf_clock for "
                "durations, monotonic_time for span timestamps, wall_clock "
                "where civil time is genuinely meant)",
            )


def _is_unnamed_thread_ctor(node: ast.AST) -> bool:
    """Match ``threading.Thread(...)`` / ``Thread(...)`` without ``name=``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    is_thread = (
        isinstance(func, ast.Attribute)
        and func.attr == "Thread"
        and isinstance(func.value, ast.Name)
        and func.value.id == "threading"
    ) or (isinstance(func, ast.Name) and func.id == "Thread")
    if not is_thread:
        return False
    if any(keyword.arg is None for keyword in node.keywords):  # **kwargs: assume named
        return False
    return not any(keyword.arg == "name" for keyword in node.keywords)


def _lint_unnamed_threads(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_unnamed_thread_ctor(node):
            yield Violation(
                relative,
                node.lineno,
                "RL004",
                "threading.Thread(...) without name=; anonymous threads are "
                "unattributable in profiler collapsed stacks, health reports "
                "and threading.enumerate() dumps — pass name='repro-<role>'",
            )


def _is_dynamic_code_builtin(node: ast.AST) -> bool:
    """Match the names ``exec``/``eval``/``compile`` and ``builtins.<same>``."""
    if isinstance(node, ast.Name):
        return node.id in _DYNAMIC_CODE_BUILTINS
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _DYNAMIC_CODE_BUILTINS
        and isinstance(node.value, ast.Name)
        and node.value.id == "builtins"
    )


def _lint_dynamic_code(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_dynamic_code_builtin(node):
            yield Violation(
                relative,
                node.lineno,
                "RL005",
                "builtin exec/eval/compile outside "
                f"{DYNAMIC_CODE_SANCTIONED}; query text comes from remote "
                "clients, so code generation stays in the predicate generator",
            )


def _lint_silent_excepts(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_broad_silent_except(node):
            yield Violation(
                relative,
                node.lineno,
                "RL002",
                "'except Exception: pass' silently swallows defects; use "
                "contextlib.suppress(<specific errors>) or handle/log the "
                "exception",
            )


def lint_file(path: Path, root: Optional[Path] = None) -> List[Violation]:
    """Lint one Python file; returns its violations."""
    root = root or REPO_ROOT
    relative = str(path.relative_to(root)) if path.is_relative_to(root) else str(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    violations: List[Violation] = []
    posix = Path(relative).as_posix()
    if any(posix.startswith(prefix) for prefix in HASH_FORBIDDEN_PATHS):
        violations.extend(_lint_hash_calls(path, tree, relative))
    if posix.startswith(SWALLOW_FORBIDDEN_PATH):
        violations.extend(_lint_silent_excepts(path, tree, relative))
    if posix.startswith(THREAD_NAME_REQUIRED_PATH):
        violations.extend(_lint_unnamed_threads(path, tree, relative))
    if posix.startswith(DYNAMIC_CODE_FORBIDDEN_PATH) and posix != DYNAMIC_CODE_SANCTIONED:
        violations.extend(_lint_dynamic_code(path, tree, relative))
    if (
        any(posix.startswith(prefix) for prefix in WALL_CLOCK_FORBIDDEN_PATHS)
        and posix != WALL_CLOCK_SANCTIONED
    ):
        violations.extend(_lint_wall_clock_calls(path, tree, relative))
    return violations


def lint_repository(root: Optional[Path] = None) -> List[Violation]:
    """Lint every Python file under ``src/repro``; returns all violations."""
    root = root or REPO_ROOT
    violations: List[Violation] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        violations.extend(lint_file(path, root=root))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)
    if args.list:
        print("RL001  no builtin hash() under", ", ".join(HASH_FORBIDDEN_PATHS))
        print("RL002  no silent broad 'except: pass' under", SWALLOW_FORBIDDEN_PATH)
        print(
            "RL003  no time.time() under",
            ", ".join(WALL_CLOCK_FORBIDDEN_PATHS),
            f"(except {WALL_CLOCK_SANCTIONED})",
        )
        print(
            "RL004  every threading.Thread under",
            THREAD_NAME_REQUIRED_PATH,
            "must pass name=",
        )
        print(
            "RL005  no builtin exec/eval/compile under",
            DYNAMIC_CODE_FORBIDDEN_PATH,
            f"(except {DYNAMIC_CODE_SANCTIONED})",
        )
        return 0
    violations = lint_repository()
    for violation in violations:
        print(violation.describe())
    if violations:
        print(f"{len(violations)} repo-lint violation(s)", file=sys.stderr)
        return 1
    print("repo lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
