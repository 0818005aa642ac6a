"""C compiler: lower a rule set to one C translation unit per structure.

The third compiler beside :mod:`~repro.ir.dictc` and
:mod:`~repro.ir.kernelc`.  It reuses kernelc's structural value numbering
(:class:`~repro.ir.kernelc._Structure`), so a subexpression shared by
several guards, a predicate or an action lowers once per generated
function, and emits per-row C over the CSR and column buffers:

* ``row_guards(S, u, watch, &pred)`` — the enabled-rule bitmask of
  process ``u`` (bit ``k`` = rule ``k``) from the general guards and,
  for the watched predicate ``watch``, its value at ``u``.  A
  :class:`~repro.ir.rules.FastPath` is not lowered: its contract makes
  its guards equal the general ones whenever the numpy guard pass picks
  them, so the bits are the same;
* ``row_action(S, u, rule, out)`` — the registers ``u`` writes when it
  executes ``rule``, read from the current configuration;
* ``load_row``/``store_row`` and the read radii of the guards and of
  each predicate (:func:`read_radius`; ``-1`` when a pointer gather
  makes it unbounded).

The fixed segment driver (``segment.c`` beside this module) is spliced
around them; :mod:`repro.core.kernel.segment` drives it.

Values are carried as int64 normalized to their numpy dtype, and every
operation reproduces what the numpy kernel computes: each node's dtype
is inferred by *running* numpy on samples of its operands' dtypes
(:func:`_infer`) — NEP 50 weak Python scalars, promotion, and the
failures (an out-of-range scalar into a narrow column) included — and
the C wraps at that width, floors ``//`` and ``%``, and returns 0 for a
zero divisor, as numpy does.  A node the C cannot reproduce exactly
(float or unsigned dtypes, bool arithmetic numpy refuses, non-bool
quantifier flags, ...) raises :class:`NotLowerable` and the rule set
stays on numpy.

Scalar-space subtrees (constants, :class:`~repro.ir.exprs.NProcs` and
arithmetic over them) become *runtime constants* ``S->k[i]``, evaluated
per program at bind time, so one object serves every ``n`` (U∘SDR's
modulus ``n + 1`` included).
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from . import exprs as E
from .kernelc import _BIN_FMT, _UN_FMT, _Structure

__all__ = ["NotLowerable", "CSource", "lower", "bind", "read_radius"]

#: Marker in ``segment.c`` where the generated rows are spliced.
_ROWS = "/* @@ROWS@@ */"

_DTYPES = {
    np.dtype(np.bool_): "b",
    np.dtype(np.int8): "i8",
    np.dtype(np.int16): "i16",
    np.dtype(np.int32): "i32",
    np.dtype(np.int64): "i64",
}
_CTYPE = {"b": "uint8_t", "i8": "int8_t", "i16": "int16_t",
          "i32": "int32_t", "i64": "int64_t"}
_RANK = {"b": 0, "i8": 1, "i16": 2, "i32": 3, "i64": 4}
_NUMPY = {code: dtype for dtype, code in _DTYPES.items()}

_ARITH = {"+": "w_add", "-": "w_sub", "*": "w_mul", "//": "w_floordiv",
          "%": "w_mod", "min2": "w_min", "max2": "w_max"}
_COMPARE = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">",
            ">=": ">="}

#: Rules in one bitmask word.
MAX_RULES = 64


class NotLowerable(Exception):
    """The rule set uses something the C tier cannot reproduce exactly."""


# ----------------------------------------------------------------------
# Types: what numpy computes for every node
# ----------------------------------------------------------------------
class _Ty:
    """A node's numpy type: ``kind`` is ``"array"`` (``dtype`` code),
    ``"strong"`` (a numpy scalar: ``dtype`` and ``value``) or ``"weak"``
    (a Python int or bool ``value``; ``dtype`` is ``None``)."""

    __slots__ = ("kind", "dtype", "value")

    def __init__(self, kind, dtype=None, value=None):
        self.kind = kind
        self.dtype = dtype
        self.value = value

    @property
    def scalar(self) -> bool:
        return self.kind != "array"

    def sample(self):
        if self.kind == "array":
            return np.ones(2, dtype=_NUMPY[self.dtype])
        if self.kind == "strong":
            return _NUMPY[self.dtype].type(self.value)
        return self.value

    def signature(self):
        """What the generated C depends on (never a scalar's value)."""
        if self.kind == "weak":
            return ("weak", type(self.value).__name__)
        return (self.kind, self.dtype)


def _classify(result) -> _Ty:
    if isinstance(result, bool):
        return _Ty("weak", value=result)
    if isinstance(result, int):
        if not -(2**63) <= result < 2**63:
            raise NotLowerable(f"scalar {result} does not fit int64")
        return _Ty("weak", value=result)
    if isinstance(result, (np.generic, np.ndarray)) and np.ndim(result) == 0:
        code = _DTYPES.get(np.asarray(result).dtype)
        if code is None:
            raise NotLowerable(f"scalar dtype {np.asarray(result).dtype}")
        return _Ty("strong", code, np.asarray(result).item())
    if isinstance(result, np.ndarray):
        code = _DTYPES.get(result.dtype)
        if code is None:
            raise NotLowerable(f"dtype {result.dtype}")
        return _Ty("array", code)
    raise NotLowerable(f"unexpected value {result!r}")


def _run(source: str, **operands) -> _Ty:
    """Evaluate kernelc's own expression text on samples, as it would."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            result = eval(source, {"np": np}, operands)  # noqa: S307
    except NotLowerable:
        raise
    except Exception as exc:
        raise NotLowerable(f"numpy refuses {source}: {exc}") from None
    return _classify(result)


def _children(struct: _Structure, vn: int) -> tuple:
    key = struct.keys[vn]
    tag = key[0]
    if tag in ("G", "O"):
        return (key[1],)
    if tag == "B":
        return key[2:]
    if tag == "U":
        return (key[2],)
    if tag in ("W", "X"):
        return key[1:]
    if tag == "R":
        return (key[3],) if key[4] < 0 else (key[3], key[4])
    return ()


def _infer(struct: _Structure, schema, n: int) -> list[_Ty]:
    """Every value number's numpy type, children before parents."""
    dtypes = {var.name: np.dtype(var.dtype) for var in schema.vars}
    params = dict(struct.params)
    tys: list[_Ty] = []
    for vn, node in enumerate(struct.nodes):
        kids = [tys[c] for c in _children(struct, vn)]
        tys.append(_infer_node(node, kids, dtypes, params, struct, n))
    return tys


def _infer_node(node, kids, dtypes, params, struct, n) -> _Ty:
    if isinstance(node, E.Const):
        return _Ty("weak", value=node.value)
    if isinstance(node, E.NProcs):
        return _Ty("weak", value=n)
    if isinstance(node, E.ProcIndex):
        return _Ty("array", "i64")
    if isinstance(node, E.Col):
        code = _DTYPES.get(dtypes[node.name])
        if code is None:
            raise NotLowerable(f"column {node.name!r} dtype")
        return _Ty("array", code)
    if isinstance(node, E.Param):
        code = _DTYPES.get(params[struct.param_slot(node)].dtype)
        if code is None:
            raise NotLowerable(f"param {node.label!r} dtype")
        return _Ty("array", code)
    if isinstance(node, (E.Neigh, E.Own)):
        (arg,) = kids
        if isinstance(node.arg, (E.Const, E.ProcIndex)):
            return arg if isinstance(node.arg, E.Const) else _Ty("array", "i64")
        if arg.scalar:
            raise NotLowerable("edge lift of a computed scalar")
        return arg
    if isinstance(node, E.BinOp):
        a, b = kids
        return _run(_BIN_FMT[node.op].format("A", "B"), A=a.sample(), B=b.sample())
    if isinstance(node, E.UnOp):
        return _run(_UN_FMT[node.op].format("A"), A=kids[0].sample())
    if isinstance(node, E.Where):
        c, a, b = kids
        return _run("np.where(C, A, B)", C=c.sample(), A=a.sample(), B=b.sample())
    if isinstance(node, E.Gather):
        index, value = kids
        if index.kind != "array" or index.dtype == "b" or value.kind != "array":
            raise NotLowerable("gather wants an integer index column")
        return value
    if isinstance(node, E.Reduce):
        value = kids[0]
        if value.kind != "array":
            raise NotLowerable("reduction over a scalar")
        if node.kind in ("all", "any", "count"):
            if value.dtype != "b":
                raise NotLowerable(f"{node.kind} over non-bool flags")
            return _Ty("array", "i64" if node.kind == "count" else "b")
        if len(kids) > 1 and (kids[1].kind != "array" or kids[1].dtype != "b"):
            raise NotLowerable("reduction filter must be a bool mask")
        dtype = "i64" if value.dtype == "b" else value.dtype
        info = np.iinfo(_NUMPY[dtype])
        if not info.min <= node.default <= info.max:
            raise NotLowerable("reduction default outside the value dtype")
        return _Ty("array", dtype)
    raise NotLowerable(f"cannot lower {node!r}")


def read_radius(struct: _Structure, vn: int, memo: dict) -> int:
    """Hops of state ``vn`` reads around its process; -1 = unbounded."""
    got = memo.get(vn)
    if got is None:
        node = struct.nodes[vn]
        if isinstance(node, E.Gather):
            got = -1
        else:
            got = 0
            for child in _children(struct, vn):
                r = read_radius(struct, child, memo)
                if r < 0:
                    got = -1
                    break
                got = max(got, r + (1 if isinstance(node, E.Neigh) else 0))
        memo[vn] = got
    return got


def _max_radius(radii) -> int:
    radii = list(radii)
    return -1 if any(r < 0 for r in radii) else max(radii, default=0)


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
def _wrap(expr: str, dtype: str) -> str:
    """An int64 expression normalized to ``dtype`` (numpy's wraparound)."""
    if dtype == "b":
        return f"(int64_t)({expr} != 0)"
    if dtype == "i64":
        return expr
    return f"(int64_t)({_CTYPE[dtype]})({expr})"


def _literal(value: int) -> str:
    if value == -(2**63):
        return "(-INT64_C(9223372036854775807) - 1)"
    return f"INT64_C({value})"


def _to(expr: str, ty: _Ty, dtype: str) -> str:
    """An operand of type ``ty`` cast to ``dtype``, as numpy casts it."""
    if ty.dtype == dtype:
        return expr
    if dtype != "b" and ty.kind != "weak" and _RANK[ty.dtype] <= _RANK[dtype]:
        return expr  # widening keeps the value
    return _wrap(expr, dtype)


class _Body:
    """One generated C function body: lines, temporaries, CSE memo.

    ``p`` names the process variable its process-space values are
    evaluated at; inside a reduction loop ``e``/``v`` name the edge slot
    and the neighbor.
    """

    def __init__(self, gen: "_Gen", p: str = "u"):
        self.gen = gen
        self.p = p
        self.lines: list[str] = []
        self.depth = 1
        self.memo: dict = {}
        self._saved: list[dict] = []

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def temp(self, expr: str) -> str:
        name = self.gen.fresh()
        self.emit(f"const int64_t {name} = {expr};")
        return name

    def push(self) -> None:
        self._saved.append(dict(self.memo))
        self.depth += 1

    def pop(self) -> None:
        self.memo = self._saved.pop()
        self.depth -= 1

    # -- process space at ``self.p`` -----------------------------------
    def proc(self, vn: int) -> str:
        got = self.memo.get(("p", vn))
        if got is None:
            got = self.memo[("p", vn)] = self._proc(vn)
        return got

    def _proc(self, vn: int) -> str:
        gen = self.gen
        ty = gen.tys[vn]
        if ty.scalar:
            return gen.const(vn)
        node = gen.struct.nodes[vn]
        if isinstance(node, (E.Col, E.Param, E.ProcIndex)):
            return self.at(vn, self.p)
        if isinstance(node, E.Gather):
            index = self.proc(gen.num(node.index))
            g = gen.fresh()
            self.emit(f"int64_t {g} = {index} < 0 ? 0 : {index};")
            self.emit(f"if ({g} >= S->n) {{ S->err = 1; {g} = 0; }}")
            return self.temp(self.at(gen.num(node.value), g))
        if isinstance(node, E.Reduce):
            self._fused([vn])
            return self.memo[("p", vn)]
        return self.temp(gen.operation(node, vn, self.proc))

    def at(self, vn: int, where: str) -> str:
        """Process-space ``vn`` at the process held in C variable ``where``."""
        gen = self.gen
        if gen.tys[vn].scalar:
            return gen.const(vn)
        node = gen.struct.nodes[vn]
        if isinstance(node, E.Col):
            return f"(int64_t){gen.column(node.name)}({where})"
        if isinstance(node, E.Param):
            return f"(int64_t)P{gen.param(node)}({where})"
        if isinstance(node, E.ProcIndex):
            return where
        if where == self.p:
            return self.proc(vn)
        return f"{gen.remote(vn)}(S, {where})"

    # -- reductions ------------------------------------------------------
    def prefetch(self, roots) -> None:
        """Compute every reduction ``roots`` need at this process, fusing
        the reductions of one dependency level into one neighbour loop
        (a reduction reading another through ``own(...)`` waits for the
        next loop)."""
        levels: dict[int, int] = {}
        reductions: list[int] = []
        for vn in roots:
            self._level(vn, levels, reductions)
        for level in sorted({levels[vn] for vn in reductions}):
            self._fused([vn for vn in reductions if levels[vn] == level])

    def _level(self, vn: int, levels: dict, reductions: list) -> int:
        """Deepest reduction level in ``vn``'s subtree at this process:
        operands read at the neighbour (``neigh``, a gathered value) are
        evaluated elsewhere and do not count."""
        got = levels.get(vn)
        if got is not None:
            return got
        gen = self.gen
        node = gen.struct.nodes[vn]
        if ("p", vn) in self.memo or gen.tys[vn].scalar or isinstance(node, E.Neigh):
            got = 0
        elif isinstance(node, E.Gather):
            got = self._level(gen.num(node.index), levels, reductions)
        else:
            got = max((self._level(c, levels, reductions)
                       for c in _children(gen.struct, vn)), default=0)
            if isinstance(node, E.Reduce):
                got += 1
                reductions.append(vn)
        levels[vn] = got
        return got

    def _fused(self, group: list[int]) -> None:
        """One neighbour loop computing every reduction of ``group``."""
        gen = self.gen
        nodes = [gen.struct.nodes[vn] for vn in group]
        for node in nodes:
            self._owned(gen.num(node.value))
            if node.where is not None:
                self._owned(gen.num(node.where))
        accs = []
        for node in nodes:
            acc = gen.fresh()
            if node.kind in ("min", "max"):
                found = gen.fresh()
                self.emit(f"int64_t {acc} = 0, {found} = 0;")
            else:
                found = None
                self.emit(f"int64_t {acc} = {1 if node.kind == 'all' else 0};")
            accs.append((acc, found))
        p = self.p
        self.emit(f"for (int64_t e = S->indptr[{p}]; e < S->indptr[{p} + 1]; e++) {{")
        self.push()
        self.emit("const int64_t v = S->indices[e];")
        for node, (acc, found) in zip(nodes, accs):
            x = self.edge(gen.num(node.value))
            if node.kind == "all":
                self.emit(f"{acc} &= {x};")
            elif node.kind == "any":
                self.emit(f"{acc} |= {x};")
            elif node.kind == "count":
                self.emit(f"{acc} += {x};")
            else:
                keep = "<" if node.kind == "min" else ">"
                m = "1" if node.where is None else self.edge(gen.num(node.where))
                self.emit(f"if ({m} && (!{found} || {x} {keep} {acc})) "
                          f"{{ {acc} = {x}; {found} = 1; }}")
        self.pop()
        self.emit("}")
        for vn, node, (acc, found) in zip(group, nodes, accs):
            if found is not None:
                acc = self.temp(f"{found} ? {acc} : {_literal(node.default)}")
            self.memo[("p", vn)] = acc

    def _owned(self, vn: int) -> None:
        """Compute the owner-side operands of an edge expression before
        its loop, so the loop body only reads them."""
        node = self.gen.struct.nodes[vn]
        if isinstance(node, E.Own):
            self.at(self.gen.num(node.arg), self.p)
            return
        if isinstance(node, E.Neigh):
            return
        for child in _children(self.gen.struct, vn):
            self._owned(child)

    # -- edge space, inside a reduction loop -----------------------------
    def edge(self, vn: int) -> str:
        got = self.memo.get(("e", vn))
        if got is None:
            got = self.memo[("e", vn)] = self._edge(vn)
        return got

    def _edge(self, vn: int) -> str:
        gen = self.gen
        if gen.tys[vn].scalar:
            return gen.const(vn)
        node = gen.struct.nodes[vn]
        if isinstance(node, E.Neigh):
            got = self.at(gen.num(node.arg), "v")
            return got if got == "v" else self.temp(got)
        if isinstance(node, E.Own):
            return self.at(gen.num(node.arg), self.p)
        return self.temp(gen.operation(node, vn, self.edge))


class _Gen:
    """Generator state shared by the bodies of one translation unit."""

    def __init__(self, struct: _Structure, tys: list[_Ty], schema):
        self.struct = struct
        self.tys = tys
        self.schema = schema
        self.col_index = {var.name: i for i, var in enumerate(schema.vars)}
        self.slots: list[int] = []
        self._slot_of: dict[int, int] = {}
        self._temp = 0
        self._remote: dict[int, str] = {}
        self._pending: list[int] = []
        self.num = struct.number

    def fresh(self) -> str:
        self._temp += 1
        return f"t{self._temp}"

    def const(self, vn: int) -> str:
        slot = self._slot_of.get(vn)
        if slot is None:
            slot = self._slot_of[vn] = len(self.slots)
            self.slots.append(vn)
        return f"S->k[{slot}]"

    def column(self, name: str) -> str:
        return f"C{self.col_index[name]}"

    def param(self, node: E.Param) -> int:
        return int(self.struct.param_slot(node)[1:])

    def remote(self, vn: int) -> str:
        """The function evaluating process-space ``vn`` at any process."""
        name = self._remote.get(vn)
        if name is None:
            name = self._remote[vn] = f"pv{vn}"
            self._pending.append(vn)
        return name

    def operation(self, node, vn: int, operand) -> str:
        """C for one elementwise node, operands lowered by ``operand``."""
        tys, num = self.tys, self.num
        dtype = tys[vn].dtype
        if isinstance(node, E.BinOp):
            a, b = num(node.a), num(node.b)
            ea, eb = operand(a), operand(b)
            if node.op in _COMPARE:
                return f"(int64_t)({ea} {_COMPARE[node.op]} {eb})"
            ca, cb = _to(ea, tys[a], dtype), _to(eb, tys[b], dtype)
            if node.op in ("&", "|"):
                return _wrap(f"({ca} {node.op} {cb})", dtype)
            return _wrap(f"{_ARITH[node.op]}({ca}, {cb})", dtype)
        if isinstance(node, E.UnOp):
            a = num(node.a)
            ca = _to(operand(a), tys[a], dtype)
            if node.op == "~":
                return f"(int64_t)!{ca}" if dtype == "b" else _wrap(f"~{ca}", dtype)
            fn = {"-": "w_neg", "sign": "w_sign", "abs": "w_abs"}[node.op]
            return _wrap(f"{fn}({ca})", dtype)
        if isinstance(node, E.Where):
            c, a, b = num(node.cond), num(node.a), num(node.b)
            ec, ea, eb = operand(c), operand(a), operand(b)
            return (f"({ec} ? {_to(ea, tys[a], dtype)} "
                    f": {_to(eb, tys[b], dtype)})")
        raise NotLowerable(f"cannot lower {node!r}")

    def remotes(self) -> list[str]:
        """Bodies of every requested remote evaluator (transitively)."""
        out = []
        while self._pending:
            vn = self._pending.pop()
            body = _Body(self, "u")
            body.prefetch([vn])
            result = body.proc(vn)
            out.append(
                f"static int64_t pv{vn}(seg_t *S, int64_t u)\n{{\n"
                + "".join(line + "\n" for line in body.lines)
                + f"    return {result};\n}}\n"
            )
        return out


class CSource:
    """The generated translation unit of one rule-set structure."""

    __slots__ = ("source", "nrules", "ncols", "predicates", "bounded",
                 "slots", "has_nprocs", "n", "signature", "tys", "struct")

    def __init__(self, source, nrules, ncols, predicates, bounded, slots,
                 has_nprocs, n, signature, tys, struct):
        self.source = source
        self.nrules = nrules
        self.ncols = ncols
        #: Predicate names, in ``watch`` index order.
        self.predicates = predicates
        #: Per predicate: whether the guards and that predicate read
        #: within a bounded radius (no pointer gather) — what the
        #: segment driver needs to watch it; the entry at index ``-1``
        #: is for no watched predicate.
        self.bounded = bounded
        #: Value number of each runtime constant, in ``S->k`` order.
        self.slots = slots
        self.has_nprocs = has_nprocs
        #: The process count the constants in ``tys`` were evaluated at.
        self.n = n
        #: Per value number, the type facts the C was generated for.
        self.signature = signature
        self.tys = tys
        self.struct = struct


def _driver() -> tuple[str, str]:
    text = Path(__file__).with_name("segment.c").read_text()
    head, tail = text.split(_ROWS)
    return head, tail


def _check_store(ty: _Ty, dtype, what: str) -> None:
    """numpy's column store must accept the value (an out-of-range
    Python int into a narrow column raises there)."""
    try:
        column = np.zeros(2, dtype=dtype)
        column[np.arange(2)] = ty.sample()
    except Exception as exc:
        raise NotLowerable(f"{what}: {exc}") from None


def _generate(rule_set, struct: _Structure, tys: list[_Ty]) -> CSource:
    schema = rule_set.schema
    rules = rule_set.rules
    if len(rules) > MAX_RULES:
        raise NotLowerable(f"{len(rules)} rules exceed one bitmask word")
    gen = _Gen(struct, tys, schema)
    num = struct.number
    radii: dict = {}

    def mask(expr, what: str) -> int:
        vn = num(expr)
        if tys[vn].kind != "array" or tys[vn].dtype != "b":
            raise NotLowerable(f"{what} is not a bool mask")
        return vn

    general = [mask(rule.guard, f"guard of {rule.label!r}") for rule in rules]
    predicates = list(rule_set.predicates)
    preds = [mask(rule_set.predicates[name], f"predicate {name!r}")
             for name in predicates]
    guard_radius = _max_radius(read_radius(struct, vn, radii) for vn in general)
    pred_radii = [read_radius(struct, vn, radii) for vn in preds]

    # The watched predicate rides the guards' function, so it shares
    # their values.
    guards = _Body(gen)
    guards.prefetch(general)
    for k, vn in enumerate(general):
        guards.emit(f"if ({guards.proc(vn)}) bits |= (uint64_t)1 << {k};")
    guards.emit("switch (watch) {")
    for i, vn in enumerate(preds):
        guards.emit(f"case {i}: {{")
        guards.push()
        guards.prefetch([vn])
        guards.emit(f"*pred = (int)({guards.proc(vn)} != 0);")
        guards.emit("break;")
        guards.pop()
        guards.emit("}")
    guards.emit("}")

    actions = _Body(gen)
    actions.emit("switch (rule) {")
    for k, rule in enumerate(rules):
        actions.emit(f"case {k}: {{")
        actions.push()
        actions.prefetch([num(e) for a in rule.action
                          for e in (a.value, a.where) if e is not None])
        for assign in rule.action:
            col = gen.col_index[assign.var]
            dtype = _DTYPES[np.dtype(schema.vars[col].dtype)]
            vn = num(assign.value)
            _check_store(tys[vn], schema.vars[col].dtype,
                         f"{rule.label}: {assign.var} := value")
            value = _to(actions.proc(vn), tys[vn], dtype)
            if assign.where is None:
                actions.emit(f"out[{col}] = {value};")
                continue
            cond = mask(assign.where, f"{rule.label}: {assign.var} condition")
            actions.emit(f"if ({actions.proc(cond)}) out[{col}] = {value};")
        actions.emit("break;")
        actions.pop()
        actions.emit("}")
    actions.emit("}")
    remotes = gen.remotes()

    ncols = len(schema.vars)
    defs = [
        f"#define STAGE {max(ncols, 1)}",
        f"#define RADIUS_GUARDS {guard_radius}",
        f"static const int64_t PRED_RADIUS[{max(len(pred_radii), 1)}] = "
        f"{{{', '.join(map(str, pred_radii or [0]))}}};",
    ]
    load, store = [], []
    for i, var in enumerate(schema.vars):
        ctype = _CTYPE[_DTYPES[np.dtype(var.dtype)]]
        defs.append(f"#define C{i}(x) (((const {ctype} *)S->cols[{i}])[x])")
        load.append(f"    out[{i}] = (int64_t)C{i}(u);")
        store.append(f"    (({ctype} *)S->cols[{i}])[u] = ({ctype})in[{i}];")
    for slot, arr in struct.params:
        ctype = _CTYPE[_DTYPES[arr.dtype]]
        defs.append(
            f"#define P{slot[1:]}(x) (((const {ctype} *)S->params[{slot[1:]}])[x])"
        )
    protos = [f"static int64_t {name}(seg_t *S, int64_t u);"
              for name in sorted(gen._remote.values())]
    rows = "\n".join([
        *defs,
        "",
        "static inline void load_row(const seg_t *S, int64_t u, int64_t *out)",
        "{", *load, "}",
        "",
        "static inline void store_row(seg_t *S, int64_t u, const int64_t *in)",
        "{", *store, "}",
        "",
        *protos,
        "",
        *remotes,
        "static uint64_t row_guards(seg_t *S, int64_t u, int64_t watch, int *pred)",
        "{",
        "    uint64_t bits = 0;",
        *guards.lines,
        "    return bits;",
        "}",
        "",
        "static void row_action(seg_t *S, int64_t u, int64_t rule, int64_t *out)",
        "{",
        *actions.lines,
        "}",
        "",
    ])
    head, tail = _driver()
    has_nprocs = any(isinstance(node, E.NProcs) for node in struct.nodes)
    return CSource(
        source=head + rows + tail,
        nrules=len(rules),
        ncols=ncols,
        predicates=tuple(predicates),
        bounded=tuple(min(guard_radius, r) >= 0 for r in pred_radii + [0]),
        slots=tuple(gen.slots),
        has_nprocs=has_nprocs,
        n=rule_set.network.n,
        signature=tuple(ty.signature() for ty in tys),
        tys=tys,
        struct=struct,
    )


#: Lowering key (:func:`_key`) → generated C, or the reason the rule
#: set does not lower.
_LOWERED: dict[tuple, "CSource | NotLowerable"] = {}


def _key(rule_set, struct: _Structure, key: tuple) -> tuple:
    """kernelc's structural key plus what the C hard-codes and numpy
    code does not: the schema's column order and dtypes (the accessors
    and ``store_row`` cast to them) and each parameter array's dtype."""
    return (
        key,
        tuple((var.name, np.dtype(var.dtype).str) for var in rule_set.schema.vars),
        tuple(arr.dtype.str for _, arr in struct.params),
    )


def lower(rule_set) -> CSource:
    """The C translation unit for ``rule_set``'s structure (memoized).

    Raises :class:`NotLowerable` when the C tier cannot reproduce the
    numpy kernel exactly.
    """
    struct, key = rule_set.structure()
    key = _key(rule_set, struct, key)
    got = _LOWERED.get(key)
    if got is None:
        try:
            tys = _infer(struct, rule_set.schema, rule_set.network.n)
            got = _generate(rule_set, struct, tys)
        except NotLowerable as exc:
            got = exc
        _LOWERED[key] = got
    if isinstance(got, NotLowerable):
        raise got
    return got


class Binding:
    """One program's runtime constants and parameter arrays for a
    :class:`CSource`'s object."""

    __slots__ = ("code", "consts", "params")

    def __init__(self, code: CSource, consts: np.ndarray, params: list):
        self.code = code
        self.consts = consts
        self.params = params


def bind(program) -> Binding:
    """Constants and parameters of an IR kernel ``program``.

    Raises :class:`NotLowerable` when the program's ``n`` makes a
    constant behave differently from the one the C was generated for.
    """
    rule_set = program.rule_set
    code = rule_set.c_code()
    tys = code.tys
    n = program.csr.n
    if code.has_nprocs and n != code.n:
        tys = _infer(code.struct, rule_set.schema, n)
        if tuple(ty.signature() for ty in tys) != code.signature:
            raise NotLowerable(f"constants at n={n} change the lowering")
    consts = np.array([int(tys[vn].value) for vn in code.slots] or [0],
                      dtype=np.int64)
    params = [program._params[slot] for slot, _ in code.struct.params]
    return Binding(code, consts, params)
