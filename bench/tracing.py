"""Spans for the traced benchmark run, kept in memory and written out at exit.

Spans come only from the benchmark's own code: explicit `span` blocks, and
timing wrappers that `install` puts around the public entcrit functions in
LAYERS, in every entcrit module that holds them, until the returned undo
function runs. A layer's self time is its spans' durations minus the parts
covered by their direct children. Standard library only, so importing this
module does not disturb a cold `import entcrit` timed after it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import NamedTuple, Optional

#: Span name -> the entcrit callables it times ("module:attr" or
#: "module:Class.method"). entcrit.import and the op root span are opened
#: by the benchmark itself, and states.build also wraps benchmark code that
#: builds a density matrix from a generated array.
LAYERS = {
    "info.search": ["entcrit.info:maximize_corr_info"],
    "bell.search": ["entcrit.bell:maximize_general_bell"],
    "bell.member": ["entcrit.bell:maximize_sign_function_value"],
    "bell.table": ["entcrit.bell:correlation_table", "entcrit.bell:general_bell_lhs"],
    "werner.scan": ["entcrit.werner:visibility_scan"],
    "pauli.tensor": ["entcrit.pauli:correlation_tensor"],
    "pauli.inverse": ["entcrit.pauli:density_from_tensor"],
    "lhv.construct": ["entcrit.lhv:construct_lhv"],
    "lhv.verify": ["entcrit.lhv:verify_lhv"],
    "lhv.sample": ["entcrit.lhv:sample_outcome_arrays", "entcrit.lhv:empirical_table"],
    "states.build": ["entcrit.states:build_preset"],
    "states.parse": ["entcrit.states:parse_state_file"],
    "states.validate": ["entcrit.states:validate_density_matrix"],
    "states.serialize": ["entcrit.states:serialize_state"],
    "entcrit.import": [],
    "cli.main": ["entcrit.cli:main"],
    "report.json": [
        "entcrit.pauli:CorrelationTensor.to_json_dict",
        "entcrit.info:CriterionVerdict.to_json_dict",
        "entcrit.lhv:LhvModel.to_json_dict",
        "entcrit.werner:WernerAnalysis.to_json_dict",
        "entcrit.bell:bell_report_dict",
        "entcrit.werner:scan_to_json_dict",
        "entcrit.werner:scan_to_csv",
        "entcrit.cli:_to_json",
    ],
}


#: Span name -> counters read off the wrapped call's return value.
RESULT_COUNTERS = {
    "info.search": lambda verdict: {
        "info.iterations": verdict.optimizer_report.iterations,
        "info.starts": verdict.optimizer_report.restarts,
    },
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                self.counts.update(counter(out))
            return out

        return timed

    def adopt(self, spans) -> None:
        """Take spans recorded by another process as children of the open span."""
        offset = self._next_id
        root = self._stack[-1] if self._stack else None
        for s in spans:
            s = Span(*s)
            parent = root if s.parent is None else s.parent + offset
            self.spans.append(s._replace(id=s.id + offset, parent=parent, op=self.op))
            self._next_id = max(self._next_id, s.id + offset + 1)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([list(s) for s in self.spans], f)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1


class NullTracer:
    """Stand-in for untimed runs: spans cost one call and record nothing."""

    def span(self, name: str):
        return nullcontext()


def install(tracer: Tracer):
    """Swap every LAYERS callable for a timing wrapper; return the undo function."""
    undo = []
    for targets in LAYERS.values():
        for target in targets:
            importlib.import_module(target.split(":")[0])
    modules = [m for k, m in sys.modules.items() if k == "entcrit" or k.startswith("entcrit.")]
    for name, targets in LAYERS.items():
        for target in targets:
            modname, attr = target.split(":")
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            timed = tracer.wrap(name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    undo.append((mod, key, original))
                    setattr(mod, key, timed)

    def restore():
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)

    return restore


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time, span count)."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        total, count = out.get(s.name, (0.0, 0))
        out[s.name] = (total + (s.end - s.start) - covered.get(s.id, 0.0), count + 1)
    return out
