"""Program interfaces of the array-backed execution kernel.

A :class:`KernelProgram` is the flattened counterpart of an
:class:`~repro.core.algorithm.Algorithm`: instead of per-process
``guard``/``execute`` calls over state dicts, it evaluates every rule's
guard as a boolean mask over *all* processes at once and applies a rule's
action to a whole index vector of selected processes, reading the frozen
pre-step columns and writing the next-step columns (the engine's double
buffer realizes composite atomicity).

:class:`InputKernelProgram` extends the contract with the SDR input
interface (vectorized ``P_ICorrect``/``P_reset`` masks and the ``reset``
macro) so SDR's kernel program can compose with a ported input algorithm
exactly like :class:`~repro.reset.sdr.SDR` composes with an
:class:`~repro.reset.interface.InputAlgorithm`.
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np

from .schema import Schema

__all__ = ["KernelProgram", "InputKernelProgram", "StandaloneInputProgram"]

Columns = Mapping[str, np.ndarray]
Memo = dict


class KernelProgram(abc.ABC):
    """Vectorized guards and actions over typed columns.

    Attributes
    ----------
    schema:
        The :class:`~repro.core.kernel.schema.Schema` describing the
        columns this program reads and writes.
    rules:
        Rule labels, in the same fixed order as the dict-backend
        algorithm (`Algorithm.rule_names`) — label-for-label equal, so
        the two backends are interchangeable in traces and accounting.

    A program may also serve per-process predicates as
    ``<name>_mask(cols, memo=None)`` methods (``normal_mask``,
    ``legitimate_mask``, …); ``memo`` is the step memo described under
    :meth:`guard_masks`.  The step loops hand their memo only to such
    bound methods of the program that filled it (``mask.__self__ is
    program``); any other mask callable gets the columns alone.
    """

    schema: Schema
    rules: tuple[str, ...]

    @abc.abstractmethod
    def guard_masks(self, cols: Columns, memo: Memo | None = None) -> dict[str, np.ndarray]:
        """Boolean enabled-mask per rule, evaluated on every process.

        A rule whose guard is everywhere false *may* be omitted from the
        dict — consumers treat a missing key as an all-false mask.  Fast
        paths use this to skip materializing constant masks (e.g. SDR's
        four reset rules in a normal configuration).

        ``memo`` is the *step memo*: a dict the program fills with the
        per-process intermediate results (neighborhood reductions) it
        computed from ``cols``, so that :meth:`apply` and the program's
        ``<name>_mask`` predicates on the same configuration can reuse
        them instead of recomputing.  Its keys and values are private to
        the program.  ``None`` means an empty memo nobody keeps.
        """

    @abc.abstractmethod
    def apply(self, rule: str, idx: np.ndarray, read: Columns, write: Columns,
              memo: Memo | None = None) -> None:
        """Execute ``rule`` at the processes in ``idx``.

        Reads come from ``read`` (the frozen pre-step columns), writes go
        to ``write``; a process's action may only write its own slots.

        ``memo`` may carry what :meth:`guard_masks` stored (and earlier
        actions of the same step added) — sound only while it was filled
        from the *current* contents of ``read``.  Whoever owns the
        buffers owns the memo
        (:class:`~repro.core.kernel.engine.KernelRuntime`,
        :func:`~repro.core.kernel.batch.run_batch`): it passes the one
        from the guard pass over exactly this ``read``, and drops it
        whenever ``read`` changes (a step, a fault injection, a restore,
        a topology change, a compaction).  Callers that cannot vouch for
        that (e.g. the adversary scoring a hypothetical successor on
        spare columns) pass none.
        """

    def topology_changed(self) -> None:
        """Hook: the program's CSR adjacency was patched in place
        (topology churn).  Drop every cache derived from the edge layout.
        """

    def tiled(self, copies: int) -> "KernelProgram | None":
        """This program over ``copies`` disjoint copies of its network.

        Batched multi-trial execution runs a whole campaign cell as one
        simulation: trial ``t`` owns the process block ``[t·n, (t+1)·n)``
        of a block-diagonal adjacency, so the *same* guard/action code
        serves every trial in one numpy pass.  Per-process constants
        (identifiers, thresholds) are tiled; ``schema`` and ``rules`` are
        shared.  ``None`` (the default) means the program does not
        support tiling and the cell falls back to serial trials.
        """
        return None


class InputKernelProgram(KernelProgram):
    """Kernel port of an SDR input algorithm (the paper's ``I``).

    ``guard_masks`` here takes the host's ``P_Clean`` mask explicitly —
    standalone execution passes all-true (see
    :class:`StandaloneInputProgram`), SDR passes its computed mask.
    """

    @abc.abstractmethod
    def icorrect_mask(self, cols: Columns, memo: Memo | None = None) -> np.ndarray:
        """Vectorized ``P_ICorrect``."""

    @abc.abstractmethod
    def reset_mask(self, cols: Columns, memo: Memo | None = None) -> np.ndarray:
        """Vectorized ``P_reset``."""

    @abc.abstractmethod
    def guard_masks(  # type: ignore[override]
        self, cols: Columns, clean: np.ndarray | None = None,
        memo: Memo | None = None,
    ) -> dict[str, np.ndarray]:
        """Rule masks given the host's ``P_Clean`` mask (``None`` = all true)."""

    @abc.abstractmethod
    def apply_reset(self, idx: np.ndarray, read: Columns, write: Columns,
                    memo: Memo | None = None) -> None:
        """The macro ``reset(u)`` on a vector of processes."""

    def as_standalone(self) -> "StandaloneInputProgram":
        """This input program run without SDR (``P_Clean ≡ true``)."""
        return StandaloneInputProgram(self)


class StandaloneInputProgram(KernelProgram):
    """Adapter: an input program executed under the trivial host."""

    __slots__ = ("inner", "schema", "rules")

    def __init__(self, inner: InputKernelProgram):
        self.inner = inner
        self.schema = inner.schema
        self.rules = inner.rules

    def guard_masks(self, cols: Columns, memo: Memo | None = None) -> dict[str, np.ndarray]:
        return self.inner.guard_masks(cols, None, memo)

    def apply(self, rule: str, idx: np.ndarray, read: Columns, write: Columns,
              memo: Memo | None = None) -> None:
        self.inner.apply(rule, idx, read, write, memo)

    def topology_changed(self) -> None:
        self.inner.topology_changed()

    def tiled(self, copies: int) -> "StandaloneInputProgram | None":
        inner = self.inner.tiled(copies)
        return None if inner is None else StandaloneInputProgram(inner)