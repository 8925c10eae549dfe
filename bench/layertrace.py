"""Outside-in layer tracing for qconc.

The tracer replaces public functions of the qconc modules with timing
wrappers, from the benchmark's side only: nothing under ``src/`` changes.
Because the package uses ``from .x import y``, one function object is bound
under several module names (``qconc.validate.concurrence_oracle``,
``qconc.cli.concurrence_oracle``, ``qconc.concurrence_oracle``, ...), so a
wrapper replaces every binding that is the same object as the original.

Every call records a span (name, start, end, parent, request) in memory and
adds to per-function statistics: calls, self time (span time minus the time
of its child spans), exceptions seen by type, and for batch primitives the
number of states in the stack. A target that no longer exists is listed in
``missing`` instead of failing the run. ``restore`` puts every original
object back and reports any binding it could not restore.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


def _first_len(args, kwargs):
    return len(args[0])


def _second_arg(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["n"])


#: (metric name, module, attribute path, how many states one call handles).
#: An attribute path with a dot names a class member; ``DensityOperator`` is
#: traced through its validating ``__post_init__``. Suites are traced through
#: the ``validate.SUITES`` registry, see ``Tracer.install``.
TARGETS = (
    ("qstate.DensityOperator", "qconc.qstate", "DensityOperator.__post_init__", None),
    ("qstate.decompose", "qconc.qstate", "decompose", None),
    ("qstate.assemble", "qconc.qstate", "assemble", None),
    ("qstate.rank_of", "qconc.qstate", "rank_of", None),
    ("invariants.invariant_vector", "qconc.invariants", "invariant_vector", None),
    ("concurrence.concurrence_oracle", "qconc.concurrence", "concurrence_oracle", None),
    ("estimators.local_observables_rank2", "qconc.estimators", "local_observables_rank2", None),
    ("estimators.reconstruct_rank2", "qconc.estimators", "reconstruct_rank2", None),
    ("estimators.assemble_rank2", "qconc.estimators", "assemble_rank2", None),
    ("estimators.assemble_rank2_sep", "qconc.estimators", "assemble_rank2_sep", None),
    ("estimators.assemble_rank2_degenerate", "qconc.estimators", "assemble_rank2_degenerate", None),
    ("estimators.assemble_xstate", "qconc.estimators", "assemble_xstate", None),
    ("estimators.assemble_ladder", "qconc.estimators", "assemble_ladder", None),
    ("estimators.estimate_pure", "qconc.estimators", "estimate_pure", None),
    ("estimators.estimate_rank2_sep2", "qconc.estimators", "estimate_rank2_sep2", None),
    ("estimators.estimate_rank2_degenerate", "qconc.estimators", "estimate_rank2_degenerate", None),
    ("estimators.estimate_projection2", "qconc.estimators", "estimate_projection2", None),
    ("estimators.xstate_concurrence", "qconc.estimators", "xstate_concurrence", None),
    ("estimators.xstate_concurrence_invariant", "qconc.estimators", "xstate_concurrence_invariant", None),
    ("estimators.ladder_concurrence", "qconc.estimators", "ladder_concurrence", None),
    ("estimators.ladder_from_correlation", "qconc.estimators", "ladder_from_correlation", None),
    ("bounds.Rank3Mixture.random", "qconc.bounds", "Rank3Mixture.random", None),
    ("bounds.Rank4Mixture.random", "qconc.bounds", "Rank4Mixture.random", None),
    ("bounds.Rank3Mixture.assemble", "qconc.bounds", "Rank3Mixture.assemble", None),
    ("bounds.Rank4Mixture.assemble", "qconc.bounds", "Rank4Mixture.assemble", None),
    ("bounds.rank3_bound", "qconc.bounds", "rank3_bound", None),
    ("bounds.rank4_bound", "qconc.bounds", "rank4_bound", None),
    ("bounds.assemble_rank3_max", "qconc.bounds", "assemble_rank3_max", None),
    ("bounds.assemble_rank4_max", "qconc.bounds", "assemble_rank4_max", None),
    ("bounds.rank3_max_concurrence", "qconc.bounds", "rank3_max_concurrence", None),
    ("bounds.rank3_threshold", "qconc.bounds", "rank3_threshold", None),
    ("bounds.rank4_max_concurrence", "qconc.bounds", "rank4_max_concurrence", None),
    ("bounds.rank4_region", "qconc.bounds", "rank4_region", None),
    ("measurement.expectation", "qconc.measurement", "expectation", None),
    ("measurement.sample_expectation", "qconc.measurement", "sample_expectation", None),
    ("measurement.lambda_from_szpz", "qconc.measurement", "lambda_from_szpz", None),
    ("measurement.lambdas_from_correlations", "qconc.measurement", "lambdas_from_correlations", None),
    ("stateio.read_state", "qconc.stateio", "read_state", None),
    ("stateio.canonical_dumps", "qconc.stateio", "canonical_dumps", None),
    ("validate.sample_nondegenerate_rank2", "qconc.validate", "sample_nondegenerate_rank2", None),
    ("validate.sample_rank2_sep", "qconc.validate", "sample_rank2_sep", None),
    ("validate.sample_rank2_degenerate", "qconc.validate", "sample_rank2_degenerate", None),
    ("validate.sample_xstate", "qconc.validate", "sample_xstate", None),
    ("validate.batch_random_pure", "qconc.validate", "batch_random_pure", _second_arg),
    ("validate.batch_haar_u2", "qconc.validate", "batch_haar_u2", _second_arg),
    ("validate.batch_random_mixed", "qconc.validate", "batch_random_mixed", _second_arg),
    ("validate.batch_decompose", "qconc.validate", "batch_decompose", _first_len),
    ("validate.batch_invariants", "qconc.validate", "batch_invariants", _first_len),
    ("validate.batch_oracle", "qconc.validate", "batch_oracle", _first_len),
    ("cli.main", "qconc.cli", "main", None),
)

#: functions whose return value's length is recorded as ``.bytes``
BYTES_OF_RESULT = frozenset({"stateio.canonical_dumps"})


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    states: int = 0
    bytes: int = 0
    raised: Counter = field(default_factory=Counter)


@dataclass
class _Frame:
    index: int
    request: int
    child_s: float = 0.0


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    in_dict: bool  # owner is a dict (the suite registry), not an object


class Tracer:
    """Install timing wrappers, collect spans and statistics, restore."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        self.keep_spans = True
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._patches: list[_Patch] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, states_of=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        count_bytes = name in BYTES_OF_RESULT
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans) if tracer.keep_spans else -1
            frame = _Frame(index, parent.request if parent else index)
            if tracer.keep_spans:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            else:
                if count_bytes:
                    stat.bytes += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame.child_s
                if states_of is not None:
                    stat.states += states_of(args, kwargs)
                if parent is not None:
                    parent.child_s += duration
                if index >= 0:
                    spans[index] = (
                        name, start, end, parent.index if parent else -1, frame.request
                    )

        return traced

    def _patch(self, owner, attr, original, replacement, in_dict=False):
        if in_dict:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)
        self._patches.append(_Patch(owner, attr, original, in_dict))

    def install(self) -> None:
        """Wrap every target that exists; record the rest in ``missing``."""
        self.missing = []
        for name, module_name, path, states_of in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in vars(owner):
                    self.missing.append(name)
                    continue
                self._install_member(name, owner, attr, states_of)
            else:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, original, states_of)
                for mod in _qconc_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)
        self._install_suites()

    def _install_member(self, name, owner, attr, states_of) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, states_of))
        else:
            wrapped = self._wrap(name, original, states_of)
        self._patch(owner, attr, original, wrapped)

    def _install_suites(self) -> None:
        try:
            suites = importlib.import_module("qconc.validate").SUITES
        except (ImportError, AttributeError):
            self.missing.append("validate.suite")
            return
        for suite, fn in list(suites.items()):
            name = f"validate.suite.{suite}"
            self._patch(suites, suite, fn, self._wrap(name, fn), in_dict=True)

    def restore(self) -> list[str]:
        """Put back every original object, newest patch first.

        Returns the bindings that still do not hold their original object,
        which is empty when restoring worked.
        """
        patches, self._patches = self._patches, []
        for p in reversed(patches):
            if p.in_dict:
                p.owner[p.attr] = p.original
            else:
                setattr(p.owner, p.attr, p.original)
        return [
            f"{getattr(p.owner, '__name__', 'SUITES')}.{p.attr}"
            for p in patches
            if (p.owner.get(p.attr) if p.in_dict else vars(p.owner).get(p.attr))
            is not p.original
        ]


def _qconc_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "qconc" or key.startswith("qconc."))
    ]
