"""The ``python -m repro.ir check`` lint.

For every registered algorithm (:mod:`repro.ir.registry`) the lint

* compiles the declared rule set to *both* backends;
* checks rule-label parity and variable parity with the algorithm's
  native dict contract;
* evaluates every guard and action of the compiled dict program against
  the handwritten ``guard``/``execute`` on the initial and several
  random configurations, value for value;
* evaluates the generated kernel's guard masks on the same
  configurations and checks them against the dict guards (mask
  coverage: an omitted mask key must mean an everywhere-false guard);
* runs every generated kernel action at the processes where its rule is
  enabled, twice — with the step memo the guard pass filled and with an
  empty one — and checks both decoded results against the dict
  ``execute`` value for value (a reduction stored under the wrong memo
  slot, or a stale one, shows up here);
* for input rule sets, checks the ``icorrect``/``reset`` predicates
  (both compilations, the kernel one with and without the guard pass's
  memo) against ``p_icorrect``/``p_reset``;
* the C lowering (:mod:`repro.ir.cc`, :func:`check_c_tier`): compiled
  guards and predicates at every process, and compiled actions at each
  rule's enabled processes, against the numpy kernel on the same
  configurations — the first mismatch names the rule set, rule,
  process and variable.  Without a C compiler this part prints one
  ``C tier: skipped (no compiler)`` line and does not fail;
* domain soundness: every value ``algorithm.random_state`` can draw must
  encode within its schema column's declared dtype and the tiled batch
  layout (:func:`check_domains`) — the fault injector corrupts registers
  by drawing from exactly this distribution and writing the encoded
  value straight into (possibly tiled) columns, so an out-of-domain draw
  here would mean vectorized corruption could overflow a tile.

Exit status 0 when every rule set passes; 1 otherwise, with one line per
problem.  CI runs this as a build step, so an IR definition that drifts
from its dict twin fails the pipeline before any simulation runs.
"""

from __future__ import annotations

from random import Random

from .registry import registered_algorithms
from .rules import InputRuleSet

__all__ = ["check_algorithm", "check_c_tier", "check_domains", "run_check",
           "main"]

#: Random configurations probed per algorithm (plus the initial one).
_SEEDS = (0, 1, 2)

#: Random-state draws per process for the domain-soundness lint.
_DOMAIN_DRAWS = 8


def _configurations(algorithm):
    cfgs = [algorithm.initial_configuration()]
    cfgs += [algorithm.random_configuration(Random(s)) for s in _SEEDS]
    return cfgs


def check_algorithm(label: str, algorithm) -> list[str]:
    """All lint findings for one registered algorithm (empty = pass)."""
    problems: list[str] = []
    rule_set = algorithm.rule_set()
    if rule_set is None:
        return [f"{label}: rule_set() is None — no IR definition"]

    if rule_set.rule_labels != tuple(algorithm.rule_names()):
        problems.append(
            f"{label}: rule labels {list(rule_set.rule_labels)} != "
            f"algorithm rules {list(algorithm.rule_names())}"
        )
        return problems
    if set(rule_set.schema.names) != set(algorithm.variables()):
        problems.append(
            f"{label}: schema variables {sorted(rule_set.schema.names)} != "
            f"algorithm variables {sorted(algorithm.variables())}"
        )
        return problems

    dict_program = rule_set.compile_dict()
    try:
        import numpy  # noqa: F401

        kernel_program = rule_set.compile_kernel()
    except ModuleNotFoundError:
        kernel_program = None
    if kernel_program is None:
        problems.append(f"{label}: compile_kernel() returned None")

    is_input = isinstance(rule_set, InputRuleSet)
    processes = algorithm.network.processes()
    for c, cfg in enumerate(_configurations(algorithm)):
        masks = None
        if kernel_program is not None:
            cols = kernel_program.schema.encode(cfg)
            memo: dict = {}
            masks = kernel_program.guard_masks(cols, memo=memo)
            stray = set(masks) - set(rule_set.rule_labels)
            if stray:
                problems.append(f"{label}: masks for unknown rules {stray}")

        for rule in rule_set.rule_labels:
            mask = None if masks is None else masks.get(rule)
            for u in processes:
                want = algorithm.guard(rule, cfg, u)
                got = dict_program.guard(rule, cfg, u)
                if got != want:
                    problems.append(
                        f"{label}: dict guard {rule!r} at {u} (cfg {c}): "
                        f"IR={got} native={want}"
                    )
                    continue
                if masks is not None:
                    kernel_enabled = bool(mask[u]) if mask is not None else False
                    if kernel_enabled != want:
                        problems.append(
                            f"{label}: kernel mask {rule!r} at {u} (cfg {c}): "
                            f"IR={kernel_enabled} native={want}"
                        )
                if want:
                    got_upd = dict_program.execute(rule, cfg, u)
                    want_upd = algorithm.execute(rule, cfg, u)
                    if got_upd != want_upd:
                        problems.append(
                            f"{label}: action {rule!r} at {u} (cfg {c}): "
                            f"IR={got_upd!r} native={want_upd!r}"
                        )

        if kernel_program is not None and not problems:
            problems += _check_kernel_actions(
                f"{label} (cfg {c})", rule_set, dict_program,
                kernel_program, cfg, cols, memo,
            )

        if is_input:
            for name, native in (
                ("icorrect", algorithm.p_icorrect),
                ("reset", algorithm.p_reset),
            ):
                if name not in rule_set.predicates:
                    problems.append(f"{label}: missing predicate {name!r}")
                    break
                kmasks = ()
                if kernel_program is not None:
                    kmask = getattr(kernel_program, f"{name}_mask")
                    kmasks = (kmask(cols), kmask(cols, memo))
                for u in processes:
                    want = native(cfg, u)
                    if dict_program.predicate(name, cfg, u) != want:
                        problems.append(
                            f"{label}: dict predicate {name!r} at {u} (cfg {c})"
                        )
                    if any(bool(kmask[u]) != want for kmask in kmasks):
                        problems.append(
                            f"{label}: kernel predicate {name!r} at {u} (cfg {c})"
                        )
        if problems:
            break  # one configuration's findings are enough detail
    return problems


def _check_kernel_actions(where: str, rule_set, dict_program, kernel_program,
                          cfg, cols, memo) -> list[str]:
    """Kernel actions vs the dict ``execute``, with and without the memo.

    Each rule runs at every process where its dict guard holds, reading
    ``cols`` (the encoded ``cfg``).  The memo run shares ``memo`` across
    the rules, as one fused step shares it across its actions.
    """
    import numpy as np

    problems: list[str] = []
    processes = range(len(cfg))
    for rule in rule_set.rule_labels:
        enabled = [u for u in processes if dict_program.guard(rule, cfg, u)]
        if not enabled:
            continue
        want = cfg.copy()
        want.apply({u: dict_program.execute(rule, cfg, u) for u in enabled})
        idx = np.asarray(enabled, dtype=np.int64)
        for tag, step_memo in (("guard memo", memo), ("empty memo", None)):
            write = {name: col.copy() for name, col in cols.items()}
            try:
                kernel_program.apply(rule, idx, cols, write, step_memo)
                got = kernel_program.schema.decode(write)
            except Exception as exc:  # a broken action is a finding
                problems.append(
                    f"{where}: kernel action {rule!r} ({tag}) raised {exc!r}"
                )
                continue
            for u in processes:
                if got[u] != want[u]:
                    problems.append(
                        f"{where}: kernel action {rule!r} at {u} ({tag}): "
                        f"IR={got[u]!r} dict={want[u]!r}"
                    )
                    break
    return problems


def check_c_tier(label: str, algorithm) -> list[str]:
    """The C lowering against the numpy kernel, value for value.

    On every sampled configuration: each rule's compiled guard and each
    declared predicate at every process, then each rule's compiled
    action at the processes where the kernel enables it, register by
    register against the kernel's ``apply``.  Stops at the first
    mismatch.
    """
    import numpy as np

    from ..core.kernel.segment import Rows
    from .cc import NotLowerable

    rule_set = algorithm.rule_set()
    if rule_set is None:
        return []
    try:
        code = rule_set.c_code()
    except NotLowerable as exc:
        return [f"{label}: C tier: does not lower: {exc}"]
    program = rule_set.compile_kernel()
    names = [var.name for var in program.schema.vars]
    for c, cfg in enumerate(_configurations(algorithm)):
        where = f"{label} (cfg {c})"
        cols = program.schema.encode(cfg)
        rows = Rows.open(program, cols)
        if rows is None:
            return [f"{label}: C tier: the object did not build or load"]
        memo: dict = {}
        masks = program.guard_masks(cols, memo=memo)
        preds = {
            name: getattr(program, f"{name}_mask")(cols, memo)
            for name in code.predicates
        }
        # The C evaluates the general guards only; where numpy takes a
        # FastPath, this also checks the path's contract.
        for u in range(len(cfg)):
            bits, _ = rows.guards(u)
            for k, rule in enumerate(rule_set.rule_labels):
                mask = masks.get(rule)
                want = bool(mask[u]) if mask is not None else False
                if bool(bits >> k & 1) != want:
                    return [f"{where}: C guard {rule!r} at {u}: "
                            f"C={not want} numpy={want}"]
            for name, values in preds.items():
                _, got = rows.guards(u, name)
                if got != bool(values[u]):
                    return [f"{where}: C predicate {name!r} at {u}: "
                            f"C={got} numpy={bool(values[u])}"]
        for k, rule in enumerate(rule_set.rule_labels):
            mask = masks.get(rule)
            if mask is None or not mask.any():
                continue
            idx = np.flatnonzero(mask)
            write = {name: col.copy() for name, col in cols.items()}
            program.apply(rule, idx, cols, write, memo)
            for u in idx.tolist():
                got = rows.action(u, k)
                for name, value in zip(names, got):
                    want = int(write[name][u])
                    if value != want:
                        return [f"{where}: C action {rule!r} at {u}, "
                                f"variable {name!r}: C={value} numpy={want}"]
    return []


def check_domains(label: str, algorithm) -> list[str]:
    """Domain-soundness findings: ``random_state`` draws vs the schema.

    The fault subsystem (:mod:`repro.faults.schedule`) corrupts a victim
    register by drawing a fresh value from ``algorithm.random_state`` and
    writing its *encoded* form directly into the kernel columns — on the
    batched path, into a ``(T, n)``-tiled column slice addressed as
    ``t*n + u``.  That is only safe if every drawable value

    * encodes without raising (enum values inside the declared domain),
    * fits the column dtype exactly (``int8`` for enum codes, ``int64``
      for ints — a draw outside int64 would wrap silently), and
    * for ``opt_index`` variables stays in ``{None} ∪ [0, n)``: the
      tiled layout stores process *indices* plus a block offset, so a
      local index ≥ n would alias a neighbouring trial's tile.
    """
    rule_set = algorithm.rule_set()
    if rule_set is None:
        return []  # no IR definition: reported by check_algorithm already
    problems: list[str] = []
    n = algorithm.network.n
    schema = rule_set.schema
    int64_info = (-(2**63), 2**63 - 1)
    for seed in _SEEDS:
        rng = Random(seed)
        for u in algorithm.network.processes():
            for _ in range(_DOMAIN_DRAWS):
                state = algorithm.random_state(u, rng)
                for var in schema.vars:
                    if var.name not in state:
                        problems.append(
                            f"{label}: random_state({u}) omits "
                            f"variable {var.name!r}"
                        )
                        continue
                    value = state[var.name]
                    try:
                        code = var.encode_value(value)
                    except Exception as exc:
                        problems.append(
                            f"{label}: random_state({u}) drew "
                            f"{var.name}={value!r} which does not encode: "
                            f"{exc}"
                        )
                        continue
                    if var.kind == "bool" and not isinstance(value, bool):
                        problems.append(
                            f"{label}: random_state({u}) drew non-bool "
                            f"{var.name}={value!r}"
                        )
                    elif var.kind == "enum" and not (
                        0 <= code < len(var.values)
                    ):
                        problems.append(
                            f"{label}: random_state({u}) drew "
                            f"{var.name}={value!r} outside the enum domain"
                        )
                    elif var.kind == "opt_index" and not (-1 <= code < n):
                        problems.append(
                            f"{label}: random_state({u}) drew "
                            f"{var.name}={value!r} — opt_index code {code} "
                            f"outside [-1, {n}) breaks the tiled layout"
                        )
                    elif var.kind == "int" and not (
                        int64_info[0] <= code <= int64_info[1]
                    ):
                        problems.append(
                            f"{label}: random_state({u}) drew "
                            f"{var.name}={value!r} outside int64"
                        )
                if problems:
                    return problems  # one draw's findings are enough
    return problems


def run_check(out=print) -> int:
    """Lint every registered rule set; return a process exit status."""
    from .ccbuild import find_compiler

    c_tier = find_compiler() is not None
    if not c_tier:
        out("C tier: skipped (no compiler)")
    failures = 0
    for label, factory in registered_algorithms():
        algorithm = factory()
        problems = check_algorithm(label, algorithm)
        problems += check_domains(label, algorithm)
        if c_tier and not problems:
            problems += check_c_tier(label, algorithm)
        if problems:
            failures += 1
            for problem in problems:
                out(f"FAIL {problem}")
        else:
            rule_set = algorithm.rule_set()
            out(f"ok   {label} ({len(rule_set.rule_labels)} rules)")
    if failures:
        out(f"{failures} rule set(s) failed the IR lint")
        return 1
    out("all registered rule sets compile and agree with their dict twins")
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.ir",
        description="Lint the declarative rule sets (compile both backends "
        "and machine-check them against the native dict implementations).",
    )
    parser.add_argument("command", choices=["check"], help="subcommand")
    parser.parse_args(argv)
    return run_check()
