"""Kernel compiler: generate vectorized numpy programs from a rule set.

This is a source generator, not a tree-walking interpreter: each rule
set compiles into straight-line numpy code (one ``guard_masks``
function, one ``apply`` function per rule, one function per declared
predicate, and one ``invariants`` function), which is then ``exec``'d.
Per-step cost is therefore a fixed sequence of array ops with shared
temporaries, and the generated source is kept on the code object for
inspection (``rule_set.kernel_code().source``).

Lowering rules:

* process-space expressions become full-length column vectors; inside
  actions they are evaluated in *idx space* (only at the selected
  processes), except neighborhood reductions and gathers, which need the
  full columns and are indexed down afterwards;
* ``Neigh``/``Own`` become gathers through the CSR ``indices`` /
  ``edge_src`` arrays, ``Reduce`` becomes the matching segmented
  reduction (:class:`~repro.core.kernel.csr.CSRAdjacency`);
* **structural CSE.**  Every node is value-numbered by its structure
  (node type, op, constant type and value, column name, Param slot,
  reduction kind/default, and its children's numbers), so structurally
  equal subtrees lower once per generated function however many times
  the author built them — FGA's repeated ``bestPtr`` reduction, ``ptr <
  0`` or ``~toQuit`` included;
* **the step memo** ``M`` (a plain dict passed explicitly).  The guard
  function stores every reduction it computes into ``M`` under the
  reduction's value number; actions and predicates get-or-compute each
  full-width reduction through ``M`` and index it down to ``idx``.  So
  one guard pass plus every action of the step and the predicates
  compute each distinct reduction at most once.  ``M`` is only sound
  while it was filled from the current ``read`` contents: the step
  loops own it (see :meth:`~repro.core.kernel.programs.KernelProgram.apply`),
  and a missing memo (``None``) means an empty one;
* **hoisting.**  Maximal subtrees without a ``Col`` leaf (in process or
  edge space) do not depend on the configuration — FGA's ``own_key =
  ids·N + index`` and its per-edge gather, Turau's identifier compare.
  They are computed once per program by the generated ``invariants``
  function and read back as ``_INV[k]``.  The cache lives on the program:
  :meth:`IRKernelProgram.tiled` starts it fresh and
  :meth:`IRKernelProgram.topology_changed` clears it (edge-space
  invariants depend on the adjacency);
* **the code memo.**  :func:`compile_rule_set` first walks the rule
  set's structure (fast path, guards, predicates, actions, reset action
  — codegen order, so Param slots are numbered as the generator numbers
  them and slot sharing is part of the key).  Generated code is cached
  by that structural form; on a hit only the new rule set's Param arrays
  are bound;
* a :class:`~repro.ir.rules.FastPath` compiles to a cheap whole-system
  test guarding a reduced mask dict (omitted masks are all-false by the
  :class:`~repro.core.kernel.programs.KernelProgram` contract).
"""

from __future__ import annotations

from types import MethodType

import numpy as np

from ..core.exceptions import AlgorithmError
from ..core.kernel.csr import CSRAdjacency
from ..core.kernel.programs import InputKernelProgram, KernelProgram
from . import exprs as E

__all__ = ["compile_rule_set", "IRKernelProgram", "IRInputKernelProgram"]


_BIN_FMT = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "//": "({} // {})",
    "%": "({} % {})",
    "==": "({} == {})",
    "!=": "({} != {})",
    "<": "({} < {})",
    "<=": "({} <= {})",
    ">": "({} > {})",
    ">=": "({} >= {})",
    "&": "({} & {})",
    "|": "({} | {})",
    "min2": "np.minimum({}, {})",
    "max2": "np.maximum({}, {})",
}

_UN_FMT = {
    "~": "(~{})",
    "-": "(-{})",
    "sign": "np.sign({})",
    "abs": "np.abs({})",
}

#: Prologue names, in emission order, with their definitions.
_PROLOGUE = (
    ("_CSR", "C.csr"),
    ("_N", "_CSR.n"),
    ("_IX", "_CSR.indices"),
    ("_SRC", "_CSR.edge_src"),
    ("_AR", "C.arange"),
    ("_ET", "C.edge_true"),
    ("_INV", "C.invariants"),
)
_NEEDS_CSR = frozenset({"_N", "_IX", "_SRC"})

#: How a generated function meets the step memo ``M``: the guard pass
#: stores every reduction it computes, actions and predicates
#: get-or-compute through it, the invariants function never touches it.
_STORE, _FETCH, _INVARIANT = "store", "fetch", "invariant"


class _Structure:
    """Value numbering (hash-consing) of one rule set's expressions.

    Each node maps to a *value number*; equal numbers mean structurally
    equal subtrees.  A node's key is flat — its own attributes plus its
    children's numbers — so keys hash in constant time at any depth.
    Param nodes are numbered by identity into slots ``p0, p1, …`` in
    first-visit order: two Params with equal values but distinct
    identities stay distinct slots.
    """

    __slots__ = ("keys", "nodes", "invariant", "params", "_by_key",
                 "_by_id", "_slots")

    def __init__(self):
        self.keys: list[tuple] = []
        self.nodes: list[E.Expr] = []
        #: Per value number: no ``Col`` leaf (configuration-independent).
        self.invariant: list[bool] = []
        self.params: list[tuple[str, np.ndarray]] = []
        self._by_key: dict[tuple, int] = {}
        #: Node identity → number, only so a shared subtree is walked
        #: once; numbers themselves come from the structural ``_by_key``.
        #: Valid while the rule set keeps its nodes alive (the walk's
        #: lifetime).
        self._by_id: dict[int, int] = {}
        self._slots: dict[int, str] = {}

    def number(self, node: E.Expr) -> int:
        vn = self._by_id.get(id(node))
        if vn is None:
            key, children = self._key(node)
            vn = self._by_key.get(key)
            if vn is None:
                vn = len(self.keys)
                self._by_key[key] = vn
                self.keys.append(key)
                self.nodes.append(node)
                self.invariant.append(
                    not isinstance(node, E.Col)
                    and all(self.invariant[c] for c in children)
                )
            self._by_id[id(node)] = vn
        return vn

    def _key(self, node: E.Expr) -> tuple[tuple, tuple]:
        num = self.number
        if isinstance(node, E.Col):
            return ("C", node.name), ()
        if isinstance(node, E.Const):
            return ("K", type(node.value) is bool, node.value), ()
        if isinstance(node, E.Param):
            return ("P", self.param_slot(node)), ()
        if isinstance(node, E.ProcIndex):
            return ("I",), ()
        if isinstance(node, E.NProcs):
            return ("N",), ()
        if isinstance(node, E.Neigh):
            a = num(node.arg)
            return ("G", a), (a,)
        if isinstance(node, E.Own):
            a = num(node.arg)
            return ("O", a), (a,)
        if isinstance(node, E.BinOp):
            a, b = num(node.a), num(node.b)
            return ("B", node.op, a, b), (a, b)
        if isinstance(node, E.UnOp):
            a = num(node.a)
            return ("U", node.op, a), (a,)
        if isinstance(node, E.Where):
            c, a, b = num(node.cond), num(node.a), num(node.b)
            return ("W", c, a, b), (c, a, b)
        if isinstance(node, E.Gather):
            i, v = num(node.index), num(node.value)
            return ("X", i, v), (i, v)
        if isinstance(node, E.Reduce):
            v = num(node.value)
            if node.where is None:
                return ("R", node.kind, node.default, v, -1), (v,)
            w = num(node.where)
            return ("R", node.kind, node.default, v, w), (v, w)
        raise AlgorithmError(f"cannot lower {node!r}")

    def param_slot(self, node: E.Param) -> str:
        slot = self._slots.get(id(node))
        if slot is None:
            slot = f"p{len(self.params)}"
            self._slots[id(node)] = slot
            arr = np.asarray(node.values)
            if arr.dtype != np.bool_:
                arr = arr.astype(np.int64, copy=False)
            arr.setflags(write=False)
            self.params.append((slot, arr))
        return slot

    def walk(self, rule_set) -> tuple:
        """Number every expression in codegen order; the code-memo key."""
        num = self.number

        def assigns(action):
            return tuple(
                (a.var, num(a.value), -1 if a.where is None else num(a.where))
                for a in action
            )

        fast = rule_set.fast_path
        layout = (
            None if fast is None else (
                num(fast.trigger),
                tuple((label, num(g)) for label, g in fast.guards.items()),
            ),
            tuple((r.label, num(r.guard), r.clean_gated) for r in rule_set.rules),
            tuple((name, num(e)) for name, e in rule_set.predicates.items()),
            tuple(assigns(r.action) for r in rule_set.rules),
            assigns(getattr(rule_set, "reset_action", ())),
        )
        return tuple(self.keys), layout

    def hoistable(self, vn: int) -> bool:
        """A configuration-invariant array worth computing once: not a
        scalar, and not a leaf or leaf gather the prologue already names."""
        if not self.invariant[vn]:
            return False
        node = self.nodes[vn]
        if node.space == E.SCALAR or isinstance(
            node, (E.Param, E.ProcIndex, E.Const, E.NProcs)
        ):
            return False
        if isinstance(node, (E.Neigh, E.Own)):
            return not isinstance(node.arg, (E.ProcIndex, E.Const))
        return True


class _Fn:
    """One generated function: lines, prologue needs, and CSE memos."""

    def __init__(self, compiler: "_Compiler", name: str, args: tuple,
                 colsrc: str | None, mode: str):
        self.compiler = compiler
        self.struct = compiler.struct
        self.name = name
        self.args = args
        self.colsrc = colsrc
        self.mode = mode
        self.lines: list[tuple[int, str]] = []
        self.indent = 0
        self._pro: set[str] = set()
        self._uses_memo = False
        self._fmemo: dict[int, str] = {}
        self._lmemo: dict[int, str] = {}
        self._saved: list[tuple[dict, dict]] = []

    # -- emission helpers ----------------------------------------------
    def use(self, name: str) -> str:
        self._pro.add(name)
        return name

    def line(self, src: str) -> None:
        self.lines.append((self.indent, src))

    def temp(self, src: str) -> str:
        name = self.compiler.next_temp()
        self.line(f"{name} = {src}")
        return name

    def begin_block(self) -> None:
        """Enter an ``if`` body: temps emitted inside are forgotten on
        exit (they don't exist on the other path)."""
        self._saved.append((dict(self._fmemo), dict(self._lmemo)))
        self.indent += 1

    def end_block(self) -> None:
        self._fmemo, self._lmemo = self._saved.pop()
        self.indent -= 1

    # -- full (column-vector) lowering ---------------------------------
    def full(self, node: E.Expr) -> str:
        vn = self.struct.number(node)
        got = self._fmemo.get(vn)
        if got is None:
            if self.mode != _INVARIANT and self.struct.hoistable(vn):
                got = f"{self.use('_INV')}[{self.compiler.hoist(vn)}]"
            else:
                got = self._full(node, vn)
            self._fmemo[vn] = got
        return got

    def _full(self, node: E.Expr, vn: int) -> str:
        if isinstance(node, E.Const):
            return repr(node.value)
        if isinstance(node, E.NProcs):
            return self.use("_N")
        if isinstance(node, E.ProcIndex):
            return self.use("_AR")
        if isinstance(node, E.Col):
            return f"{self.colsrc}[{node.name!r}]"
        if isinstance(node, E.Param):
            return f"C._params[{self.struct.param_slot(node)!r}]"
        if isinstance(node, E.Neigh):
            if isinstance(node.arg, E.ProcIndex):
                return self.use("_IX")
            if isinstance(node.arg, E.Const):
                return repr(node.arg.value)  # scalars broadcast per edge
            inner = self.full(node.arg)
            return self.temp(f"{inner}[{self.use('_IX')}]")
        if isinstance(node, E.Own):
            if isinstance(node.arg, E.ProcIndex):
                return self.use("_SRC")
            if isinstance(node.arg, E.Const):
                return repr(node.arg.value)
            inner = self.full(node.arg)
            return self.temp(f"{inner}[{self.use('_SRC')}]")
        if isinstance(node, E.BinOp):
            a, b = self.full(node.a), self.full(node.b)
            return self.temp(_BIN_FMT[node.op].format(a, b))
        if isinstance(node, E.UnOp):
            return self.temp(_UN_FMT[node.op].format(self.full(node.a)))
        if isinstance(node, E.Where):
            c, a, b = self.full(node.cond), self.full(node.a), self.full(node.b)
            return self.temp(f"np.where({c}, {a}, {b})")
        if isinstance(node, E.Gather):
            value, index = self.full(node.value), self.full(node.index)
            return self.temp(f"{value}[np.maximum({index}, 0)]")
        if isinstance(node, E.Reduce):
            return self._reduce(node, vn)
        raise AlgorithmError(f"cannot lower {node!r} to a column vector")

    def _reduce(self, node: E.Reduce, vn: int) -> str:
        if self.mode == _INVARIANT:
            return self.temp(self._reduce_call(node))
        self._uses_memo = True
        name = self.compiler.next_temp()
        if self.mode == _STORE:
            # Computed plainly: a get-or-compute wrapper here would hide
            # the edge-space temporaries two reductions share.
            self.line(f"{name} = M[{vn}] = {self._reduce_call(node)}")
            return name
        self.line(f"{name} = M.get({vn})")
        self.line(f"if {name} is None:")
        self.begin_block()
        self.line(f"{name} = M[{vn}] = {self._reduce_call(node)}")
        self.end_block()
        return name

    def _reduce_call(self, node: E.Reduce) -> str:
        csr = self.use("_CSR")
        value = self.full(node.value)
        if node.kind in ("all", "any", "count"):
            return f"{csr}.{node.kind}_neigh({value})"
        mask = (self.full(node.where) if node.where is not None
                else self.use("_ET"))
        fn = "min_neigh" if node.kind == "min" else "max_neigh"
        return f"{csr}.{fn}({value}, {mask}, {node.default})"

    # -- local (idx-space) lowering ------------------------------------
    def local(self, node: E.Expr) -> str:
        vn = self.struct.number(node)
        got = self._lmemo.get(vn)
        if got is None:
            if self.struct.hoistable(vn):
                got = self.temp(f"{self.full(node)}[idx]")
            else:
                got = self._local(node)
            self._lmemo[vn] = got
        return got

    def _local(self, node: E.Expr) -> str:
        if isinstance(node, E.Const):
            return repr(node.value)
        if isinstance(node, E.NProcs):
            return self.use("_N")
        if isinstance(node, E.ProcIndex):
            return "idx"
        if isinstance(node, E.Col):
            return self.temp(f"{self.colsrc}[{node.name!r}][idx]")
        if isinstance(node, E.Param):
            slot = self.struct.param_slot(node)
            return self.temp(f"C._params[{slot!r}][idx]")
        if isinstance(node, E.BinOp):
            a, b = self.local(node.a), self.local(node.b)
            return self.temp(_BIN_FMT[node.op].format(a, b))
        if isinstance(node, E.UnOp):
            return self.temp(_UN_FMT[node.op].format(self.local(node.a)))
        if isinstance(node, E.Where):
            c = self.local(node.cond)
            a, b = self.local(node.a), self.local(node.b)
            return self.temp(f"np.where({c}, {a}, {b})")
        if isinstance(node, E.Gather):
            # The pointer is only needed at idx, but the gathered column
            # must be full-length (pointers reach any process).
            value = self.full(node.value)
            index = self.local(node.index)
            return self.temp(f"{value}[np.maximum({index}, 0)]")
        if isinstance(node, E.Reduce):
            return self.temp(f"{self.full(node)}[idx]")
        raise AlgorithmError(f"cannot lower {node!r} at selected processes")

    # -- statements ----------------------------------------------------
    def emit_assign(self, assign) -> None:
        target = f"write[{assign.var!r}]"
        if assign.where is None:
            self.line(f"{target}[idx] = {self.local(assign.value)}")
            return
        if assign.where.space == E.SCALAR:
            raise AlgorithmError(
                f"Assign({assign.var!r}): condition must be per-process"
            )
        cond = self.local(assign.where)
        sub = self.temp(f"idx[{cond}]")
        if assign.value.space == E.SCALAR:
            self.line(f"{target}[{sub}] = {self.local(assign.value)}")
        else:
            self.line(f"{target}[{sub}] = {self.local(assign.value)}[{cond}]")

    def emit_mask_return(self, mask_srcs: dict) -> None:
        body = ", ".join(f"{label!r}: {src}" for label, src in mask_srcs.items())
        self.line("return {" + body + "}")

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        needs = set(self._pro)
        if needs & _NEEDS_CSR:
            needs.add("_CSR")
        out = [f"def {self.name}({', '.join(self.args)}):"]
        if self._uses_memo:
            out += ["    if M is None:", "        M = {}"]
        for name, definition in _PROLOGUE:
            if name in needs:
                out.append(f"    {name} = {definition}")
        for indent, src in self.lines:
            out.append("    " * (indent + 1) + src)
        return "\n".join(out)


class _Compiler:
    def __init__(self, struct: _Structure):
        self.struct = struct
        self.fns: list[_Fn] = []
        self._temp = 0
        #: Hoisted value numbers, in ``_INV`` slot order.
        self.hoisted: list[int] = []
        self._hoist_slots: dict[int, int] = {}

    def next_temp(self) -> str:
        name = f"_t{self._temp}"
        self._temp += 1
        return name

    def hoist(self, vn: int) -> int:
        slot = self._hoist_slots.get(vn)
        if slot is None:
            slot = self._hoist_slots[vn] = len(self.hoisted)
            self.hoisted.append(vn)
        return slot


def _trigger_test(fn: _Fn, trigger: E.Expr) -> str:
    """Whole-system fast-path test.  ``Col == 0`` specializes to the
    allocation-free ``not col.any()``; anything else materializes the
    per-process trigger and ``.all()``s it."""
    if (
        isinstance(trigger, E.BinOp)
        and trigger.op == "=="
        and isinstance(trigger.a, E.Col)
        and isinstance(trigger.b, E.Const)
        and trigger.b.value == 0
    ):
        return f"not {fn.colsrc}[{trigger.a.name!r}].any()"
    return f"bool({fn.full(trigger)}.all())"


class _KernelCode:
    """The exec'd output of :func:`compile_rule_set`.

    The functions and source are shared by every rule set of one
    structural form; ``params`` (slot → array) belong to one rule set and
    are shared by every program instance (base and tiled) of it.
    """

    __slots__ = (
        "guard_fn", "apply_fns", "pred_fns", "reset_fn", "invariants_fn",
        "params", "clean_gated", "source",
    )

    def __init__(self, guard_fn, apply_fns, pred_fns, reset_fn,
                 invariants_fn, params, clean_gated, source):
        self.guard_fn = guard_fn
        self.apply_fns = apply_fns
        self.pred_fns = pred_fns
        self.reset_fn = reset_fn
        self.invariants_fn = invariants_fn
        self.params = params
        self.clean_gated = clean_gated
        self.source = source

    def with_params(self, params) -> "_KernelCode":
        return _KernelCode(
            self.guard_fn, self.apply_fns, self.pred_fns, self.reset_fn,
            self.invariants_fn, params, self.clean_gated, self.source,
        )


#: Structural form (see :meth:`_Structure.walk`) → generated code.
#: Param values live outside the source, so every rule set of one form
#: generates and execs exactly once per process lifetime.
_CODE_CACHE: dict[tuple, _KernelCode] = {}


def compile_rule_set(rule_set) -> _KernelCode:
    """The numpy functions for one rule set, generated once per form."""
    struct, key = rule_set.structure()
    params = tuple(struct.params)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = _CODE_CACHE[key] = _generate(rule_set, struct, params)
        return code
    return code.with_params(params)


def _generate(rule_set, struct: _Structure, params) -> _KernelCode:
    comp = _Compiler(struct)

    guard = _Fn(comp, "guard_masks", ("C", "cols", "M"), "cols", _STORE)
    fast = rule_set.fast_path
    if fast is not None:
        guard.line(f"if {_trigger_test(guard, fast.trigger)}:")
        guard.begin_block()
        guard.emit_mask_return(
            {label: guard.full(g) for label, g in fast.guards.items()}
        )
        guard.end_block()
    guard.emit_mask_return(
        {rule.label: guard.full(rule.guard) for rule in rule_set.rules}
    )
    comp.fns.append(guard)

    pred_names = {}
    for i, (name, expr) in enumerate(rule_set.predicates.items()):
        fn = _Fn(comp, f"pred_{i}", ("C", "cols", "M=None"), "cols", _FETCH)
        fn.line(f"return {fn.full(expr)}")
        comp.fns.append(fn)
        pred_names[name] = fn.name

    action_args = ("C", "idx", "read", "write", "M")
    apply_names = {}
    for i, rule in enumerate(rule_set.rules):
        fn = _Fn(comp, f"apply_{i}", action_args, "read", _FETCH)
        for assign in rule.action:
            fn.emit_assign(assign)
        comp.fns.append(fn)
        apply_names[rule.label] = fn.name

    reset_name = None
    reset_action = getattr(rule_set, "reset_action", ())
    if reset_action:
        fn = _Fn(comp, "apply_reset", action_args, "read", _FETCH)
        for assign in reset_action:
            fn.emit_assign(assign)
        comp.fns.append(fn)
        reset_name = fn.name

    if comp.hoisted:
        fn = _Fn(comp, "invariants", ("C",), None, _INVARIANT)
        values = [fn.full(struct.nodes[vn]) for vn in comp.hoisted]
        fn.line(f"return ({', '.join(values)},)")
        comp.fns.append(fn)

    source = "\n\n".join(fn.render() for fn in comp.fns)
    ns = {"np": np}
    exec(compile(source, f"<repro.ir:{rule_set.name}>", "exec"), ns)
    return _KernelCode(
        guard_fn=ns["guard_masks"],
        apply_fns={label: ns[fname] for label, fname in apply_names.items()},
        pred_fns={name: ns[fname] for name, fname in pred_names.items()},
        reset_fn=ns[reset_name] if reset_name else None,
        invariants_fn=ns.get("invariants"),
        params=params,
        clean_gated=tuple(r.label for r in rule_set.rules if r.clean_gated),
        source=source,
    )


class IRKernelProgram(KernelProgram):
    """A :class:`~repro.core.kernel.programs.KernelProgram` generated from
    a rule set.  Declared predicates are served as ``<name>_mask``
    methods (``normal_mask``, ``legitimate_mask``, …) for the probes;
    each takes ``(cols, memo=None)``."""

    #: Marks programs produced by the IR compilers (every registered
    #: algorithm's program carries it).
    ir_generated = True

    def __init__(self, rule_set):
        self._init_from(
            rule_set,
            rule_set.kernel_code(),
            CSRAdjacency(rule_set.network),
            None,
            1,
        )

    def _init_from(self, rule_set, code, csr, params, copies) -> None:
        self.rule_set = rule_set
        self._code = code
        self.csr = csr
        self.schema = rule_set.schema
        self.rules = rule_set.rule_labels
        if params is None:
            params = dict(code.params)
        self._params = params
        self._copies = copies
        self._arange = None
        self._edge_true = None
        self._invariants = None
        self._c_binding = None

    # -- generated-code services ---------------------------------------
    @property
    def arange(self) -> np.ndarray:
        if self._arange is None:
            self._arange = np.arange(self.csr.n, dtype=np.int64)
        return self._arange

    @property
    def edge_true(self) -> np.ndarray:
        if self._edge_true is None:
            self._edge_true = np.ones(self.csr.indices.shape[0], dtype=np.bool_)
        return self._edge_true

    @property
    def invariants(self) -> tuple:
        """The hoisted configuration-invariant arrays, computed once."""
        if self._invariants is None:
            self._invariants = self._code.invariants_fn(self)
        return self._invariants

    def c_binding(self):
        """This program's runtime constants and parameters for the C
        lowering (:func:`repro.ir.cc.bind`), computed once; raises
        :class:`repro.ir.cc.NotLowerable` when there is none."""
        if self._c_binding is None:
            from .cc import NotLowerable, bind

            try:
                self._c_binding = bind(self)
            except NotLowerable as exc:
                self._c_binding = exc
        if isinstance(self._c_binding, Exception):
            raise self._c_binding
        return self._c_binding

    # -- KernelProgram contract ----------------------------------------
    def guard_masks(self, cols, memo=None):
        return self._code.guard_fn(self, cols, memo)

    def apply(self, rule, idx, read, write, memo=None):
        try:
            fn = self._code.apply_fns[rule]
        except KeyError:
            raise AlgorithmError(
                f"{self.rule_set.name}: unknown rule {rule!r}"
            ) from None
        fn(self, idx, read, write, memo)

    def topology_changed(self) -> None:
        # Edge-space caches are sized and indexed by the old adjacency.
        self._edge_true = None
        self._invariants = None

    def tiled(self, copies):
        check = self.rule_set.tile_check
        total = self._copies * copies
        if check is not None and not check(total):
            return None
        prog = type(self).__new__(type(self))
        prog._init_from(
            self.rule_set,
            self._code,
            self.csr.tile(copies),
            {slot: np.tile(arr, copies) for slot, arr in self._params.items()},
            total,
        )
        return prog

    def __getattr__(self, name):
        if name.endswith("_mask"):
            code = self.__dict__.get("_code")
            if code is not None:
                fn = code.pred_fns.get(name[: -len("_mask")])
                if fn is not None:
                    # A real bound method: ``mask.__self__`` identifies
                    # the program whose step memo it may read.
                    mask = self.__dict__[name] = MethodType(fn, self)
                    return mask
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


class IRInputKernelProgram(IRKernelProgram, InputKernelProgram):
    """Generated program additionally implementing the SDR input contract
    (from an :class:`~repro.ir.rules.InputRuleSet`)."""

    def guard_masks(self, cols, clean=None, memo=None):
        masks = self._code.guard_fn(self, cols, memo)
        if clean is not None:
            for label in self._code.clean_gated:
                mask = masks.get(label)
                if mask is not None:
                    masks[label] = mask & clean
        return masks

    def icorrect_mask(self, cols, memo=None):
        return self._code.pred_fns["icorrect"](self, cols, memo)

    def reset_mask(self, cols, memo=None):
        return self._code.pred_fns["reset"](self, cols, memo)

    def apply_reset(self, idx, read, write, memo=None):
        fn = self._code.reset_fn
        if fn is not None:
            fn(self, idx, read, write, memo)
