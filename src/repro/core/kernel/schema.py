"""Typed variable schemas: the bridge between state dicts and columns.

The dict backend stores one ``{variable: value}`` dict per process.  The
array backend instead keeps one flat column (numpy array) per variable,
indexed by process id.  A :class:`Schema` declares, per variable, how its
values map to machine integers/booleans, and provides lossless round-trip
conversion between the two representations — the paranoid lockstep check
and the trace machinery rely on ``decode(encode(cfg)) == cfg`` exactly
(python ``int``/``bool``/original enum objects come back out, never numpy
scalars).
"""

from __future__ import annotations

from random import Random
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..configuration import Configuration
from ..exceptions import AlgorithmError

__all__ = ["Var", "Schema"]


class Var:
    """One locally shared variable with a typed column representation.

    ``kind`` is one of:

    * ``"int"`` — values are (unbounded-in-principle) python ints, stored
      as int64;
    * ``"bool"`` — python bools, stored as numpy bool;
    * ``"enum"`` — values from a fixed tuple ``values``, stored as the
      int8 index into that tuple;
    * ``"opt_index"`` — a process index or ``None`` (the paper's ⊥),
      stored as int64 with ``-1`` for ``None``.
    """

    __slots__ = ("name", "kind", "dtype", "values", "_code_of")

    def __init__(self, name: str, kind: str, values: tuple = ()):
        if kind not in ("int", "bool", "enum", "opt_index"):
            raise AlgorithmError(f"unknown schema variable kind {kind!r}")
        self.name = name
        self.kind = kind
        self.values = values
        if kind == "bool":
            self.dtype = np.bool_
        elif kind == "enum":
            if not values:
                raise AlgorithmError(f"enum variable {name!r} needs values")
            self.dtype = np.int8
        else:
            self.dtype = np.int64
        self._code_of = {v: i for i, v in enumerate(values)} if kind == "enum" else None

    # ------------------------------------------------------------------
    @classmethod
    def int(cls, name: str) -> "Var":
        return cls(name, "int")

    @classmethod
    def bool(cls, name: str) -> "Var":
        return cls(name, "bool")

    @classmethod
    def enum(cls, name: str, values: Iterable) -> "Var":
        return cls(name, "enum", tuple(values))

    @classmethod
    def opt_index(cls, name: str) -> "Var":
        return cls(name, "opt_index")

    # ------------------------------------------------------------------
    def encode_column(self, states: list[Mapping[str, Any]]) -> np.ndarray:
        name, n = self.name, len(states)
        if self.kind == "bool":
            return np.fromiter((s[name] for s in states), dtype=np.bool_, count=n)
        if self.kind == "enum":
            code_of = self._code_of
            try:
                return np.fromiter(
                    (code_of[s[name]] for s in states), dtype=np.int8, count=n
                )
            except KeyError as bad:
                raise AlgorithmError(
                    f"value {bad} of variable {name!r} is outside the "
                    f"declared enum domain {self.values}"
                ) from None
        if self.kind == "opt_index":
            return np.fromiter(
                (-1 if s[name] is None else s[name] for s in states),
                dtype=np.int64,
                count=n,
            )
        return np.fromiter((s[name] for s in states), dtype=np.int64, count=n)

    def encode_value(self, value: Any) -> int:
        """One state value → its machine integer (see :meth:`encode_column`)."""
        if self.kind == "enum":
            try:
                return self._code_of[value]
            except KeyError:
                raise AlgorithmError(
                    f"value {value!r} of variable {self.name!r} is outside "
                    f"the declared enum domain {self.values}"
                ) from None
        if self.kind == "opt_index":
            return -1 if value is None else value
        return value

    def decode_value(self, code) -> Any:
        """One machine integer → the state value (inverse of :meth:`encode_value`)."""
        if self.kind == "enum":
            return self.values[code]
        if self.kind == "opt_index":
            return None if code < 0 else int(code)
        if self.kind == "bool":
            return bool(code)
        return int(code)

    def decode_column(self, column: np.ndarray) -> list:
        raw = column.tolist()  # python ints/bools
        if self.kind == "enum":
            values = self.values
            return [values[c] for c in raw]
        if self.kind == "opt_index":
            return [None if c < 0 else c for c in raw]
        return raw

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.kind!r})"


class Schema:
    """Ordered collection of :class:`Var` declarations for one algorithm."""

    __slots__ = ("vars", "names")

    def __init__(self, *variables: Var):
        self.vars: tuple[Var, ...] = tuple(variables)
        self.names: tuple[str, ...] = tuple(v.name for v in self.vars)
        if len(set(self.names)) != len(self.names):
            raise AlgorithmError(f"duplicate variables in schema: {self.names}")

    def encode(self, cfg: Configuration) -> dict[str, np.ndarray]:
        """Configuration → one typed column per variable."""
        states = cfg.states()
        return {var.name: var.encode_column(states) for var in self.vars}

    def decode(self, columns: Mapping[str, np.ndarray]) -> Configuration:
        """Columns → Configuration with plain python values."""
        decoded = {var.name: var.decode_column(columns[var.name]) for var in self.vars}
        n = len(next(iter(decoded.values()))) if decoded else 0
        names = self.names
        return Configuration(
            [{name: decoded[name][u] for name in names} for u in range(n)]
        )

    def draw(self, domains: Sequence, n: int, rng: Random) -> dict[str, np.ndarray]:
        """``n`` processes' arbitrary states, drawn straight into columns.

        ``domains`` are the algorithm's
        :class:`~repro.core.algorithm.Domain` declarations, one per schema
        variable: the columns equal ``encode(Configuration.build(n, lambda
        u: draw_state(domains, rng)))`` (see
        :func:`~repro.core.algorithm.draw_state`) and ``rng`` ends in the
        same state, without building a state dict per process.
        """
        if sorted(d.var for d in domains) != sorted(self.names):
            raise AlgorithmError(
                f"domains {[d.var for d in domains]} do not cover the "
                f"schema {list(self.names)}"
            )
        randrange = rng.randrange
        codes = [randrange(d.lo, d.hi) for _ in range(n) for d in domains]
        table = np.array(codes, dtype=np.int64).reshape(n, len(domains))
        by_name = {var.name: var for var in self.vars}
        out = {}
        for j, d in enumerate(domains):
            var = by_name[d.var]
            column = table[:, j]
            if d.values is not None:
                lookup = np.array([var.encode_value(v) for v in d.values],
                                  dtype=np.int64)
                column = lookup[column]
            out[d.var] = np.ascontiguousarray(column, dtype=var.dtype)
        return {name: out[name] for name in self.names}

    # ------------------------------------------------------------------
    # Batched (tiled) layouts
    # ------------------------------------------------------------------
    def encode_tiled(self, cfgs) -> dict[str, np.ndarray]:
        """Several same-size configurations → flat trial-major columns.

        Trial ``t`` occupies slots ``[t·n, (t+1)·n)``.  Values of
        ``opt_index`` variables are *globalized* (trial-local process
        index ``p`` becomes ``t·n + p``) so programs can keep comparing
        them against the tiled adjacency; :meth:`decode_block` reverses
        the offset.
        """
        n = len(cfgs[0])
        state_lists = [cfg.states() for cfg in cfgs]
        out: dict[str, np.ndarray] = {}
        for var in self.vars:
            column = np.concatenate(
                [var.encode_column(states) for states in state_lists]
            )
            if var.kind == "opt_index":
                offsets = np.repeat(
                    np.arange(len(cfgs), dtype=np.int64) * n, n
                )
                column = np.where(column >= 0, column + offsets, column)
            out[var.name] = column
        return out

    def decode_block(
        self, columns: Mapping[str, np.ndarray], trial: int, n: int
    ) -> Configuration:
        """One trial's block of a tiled layout → a trial-local Configuration."""
        lo, hi = trial * n, (trial + 1) * n
        decoded = {}
        for var in self.vars:
            block = columns[var.name][lo:hi]
            if var.kind == "opt_index":
                block = np.where(block >= 0, block - lo, block)
            decoded[var.name] = var.decode_column(block)
        names = self.names
        return Configuration(
            [{name: decoded[name][u] for name in names} for u in range(n)]
        )

    def __repr__(self) -> str:
        return f"Schema({', '.join(map(repr, self.vars))})"
