"""A pytest plugin that lists the statements of ``cumica`` a test run never
executes.

Load it by name; a plain test run does not::

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It traces the modules of the ``cumica`` package with ``sys.settrace`` and
``threading.settrace`` from the start of the run, before any test module
imports the package, and at the end prints each statement whose lines
never ran, as ``path:line: source``.  A statement counts as run when any
line of it that holds bytecode ran; statements without bytecode
(docstrings, ``pass`` at times) are never listed.  Lines that run only in
other processes are not seen: the Monte Carlo worker processes of a run
with more than one thread, and the command-line runs that tests start
as subprocesses.  Tracing makes the full suite take about 1.4 times as
long.
"""

import ast
import importlib.util
import os
import sys
import threading


class _Tracer:
    """The global trace function: it hands each frame of a package module
    the line tracer of that module, which records the lines it runs."""

    def __init__(self, root):
        self.root = root
        self.hits = {}  # real path -> set of lines run
        self.local = {}  # code file name -> line tracer, or None

    def _line_tracer(self, name):
        path = os.path.realpath(name)
        if os.path.dirname(path) != self.root:
            return None
        lines = self.hits.setdefault(path, set())

        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return self.local[name]
        except KeyError:
            tracer = self.local[name] = self._line_tracer(name)
            return tracer


def _code_lines(code):
    """The lines of ``code`` and of every code object nested in it that
    hold bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source):
    """``(first line, lines)`` of each statement of the module: all of a
    simple statement's lines, or a compound statement's header, from its
    first decorator to the line before its body."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield first, range(first, max(first, last) + 1)


def _never_run(path, hits):
    """``(line, source)`` of each statement of the module at ``path``
    with bytecode, none of which ran."""
    with open(path) as fh:
        source = fh.read()
    code_lines = _code_lines(compile(source, path, "exec"))
    text = source.splitlines()
    missed = []
    for first, span in _statements(source):
        lines = code_lines.intersection(span)
        if lines and not lines & hits:
            missed.append((first, text[first - 1].strip()))
    return sorted(missed)


_tracer = None


def pytest_configure(config):
    global _tracer
    spec = importlib.util.find_spec("cumica")
    _tracer = _Tracer(os.path.realpath(spec.submodule_search_locations[0]))
    threading.settrace(_tracer)
    sys.settrace(_tracer)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    root = _tracer.root
    missed = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            rel = os.path.relpath(path)
            missed += [f"{rel}:{line}: {text}" for line, text in
                       _never_run(path, _tracer.hits.get(path, set()))]
    terminalreporter.write_sep("-", f"{len(missed)} statements of cumica "
                                    f"never run")
    for line in missed:
        terminalreporter.write_line(line)
