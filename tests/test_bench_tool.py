"""The shared parts of ``tools/bench.py``: the code-line rule of its size
table and the interleaved timing behind every timing row."""

import importlib.util
import os
from pathlib import Path

_BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_before = {name: os.environ.get(name) for name in _BLAS}
_path = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _path)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_loading_the_tool_leaves_the_blas_thread_variables_alone():
    # the pin is the script's, set when it runs, not when a test imports it
    assert {name: os.environ.get(name) for name in _BLAS} == _before


def test_code_lines_count_neither_docstrings_nor_comments_nor_blank_lines():
    snippet = '''"""A module
docstring."""

# a comment
import os  # a trailing comment: the line is code


class A:
    """A class docstring."""

    def f(self):
        """A function
        docstring."""
            # an indented comment
        "a string that is not the first statement"
        return os.sep
'''
    # import, class, def, the string statement and return
    assert bench.code_lines(snippet) == 5
    assert bench.code_lines("") == 0


class _Clock:
    """A ``time`` stand-in whose clock moves only when a timed call moves it."""

    now = 0.0

    def perf_counter(self):
        return self.now


def test_quartile_times_alternates_the_first_side_and_gives_each_sides_quartiles(monkeypatch):
    clock, order = _Clock(), []
    monkeypatch.setattr(bench, "time", clock)
    head_costs = iter([3.0, 3.0, 100.0, 3.0, 3.0, 3.0])  # one slow call in round 1

    def base():
        order.append("base")
        clock.now += 1.0

    def head():
        order.append("head")
        clock.now += next(head_costs)

    quartiles = bench.quartile_times(base, head, rounds=3, reps=2)
    assert order == ["base", "base", "head", "head", "head", "head", "base", "base",
                     "base", "base", "head", "head"]
    # seconds per call, q1, median and q3 of each side's three timings:
    # head's were 3.0, 51.5 and 3.0
    assert quartiles == ([1.0, 1.0, 1.0], [3.0, 3.0, 27.25])
