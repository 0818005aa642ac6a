"""The kernel compiler's sharing machinery.

Structural CSE (equal subtrees lower once), the step memo (guards store
reductions, actions and predicates reuse them), hoisted invariants (one
computation per program), and the generated-code memo (one generation
per structural form, Param values bound per rule set).
"""

import re

import numpy as np
import pytest

from repro.alliance.fga import FGA
from repro.core.configuration import Configuration
from repro.core.kernel.schema import Schema, Var
from repro.ir import (
    Assign,
    Rule,
    RuleSet,
    col,
    count_neighbors,
    min_over_neighbors,
    neigh,
    nprocs,
    param,
    proc_index,
)
from repro.ir import kernelc
from repro.ir.check import check_algorithm
from repro.reset import SDR
from repro.topology import by_name, ring
from repro.unison import Unison
from repro.unison.unison import CLOCK

X = "x"


def functions(source: str) -> dict[str, str]:
    """Generated source split into ``{function name: its source}``."""
    return {
        re.match(r"def (\w+)\(", chunk).group(1): chunk
        for chunk in source.split("\n\n")
    }


def param_rule_set(net, values, shared=True):
    p = param(values, "p")
    q = p if shared else param(values, "q")
    x = col(X)
    return RuleSet(
        "params", net, Schema(Var.int(X)),
        [Rule("up", x < p, [Assign(X, x + 1)]),
         Rule("down", x > q, [Assign(X, x - 1)])],
    )


# ----------------------------------------------------------------------
# Code memo
# ----------------------------------------------------------------------

def test_param_values_share_the_source_but_not_the_params():
    net = ring(6)
    a = param_rule_set(net, range(6)).kernel_code()
    b = param_rule_set(net, [3] * 6).kernel_code()
    assert a.source == b.source
    assert a.guard_fn is b.guard_fn
    assert [slot for slot, _ in a.params] == ["p0"]
    assert dict(a.params)["p0"].tolist() == list(range(6))
    assert dict(b.params)["p0"].tolist() == [3] * 6

    cfg = Configuration([{X: 2}] * 6)
    for rule_set, want in ((param_rule_set(net, range(6)), [0, 0, 0, 1, 1, 1]),
                           (param_rule_set(net, [3] * 6), [1] * 6)):
        program = rule_set.compile_kernel()
        masks = program.guard_masks(program.schema.encode(cfg))
        assert masks["up"].astype(int).tolist() == want


def test_a_different_slot_sharing_pattern_gets_a_different_source():
    net = ring(6)
    shared = param_rule_set(net, range(6), shared=True).kernel_code()
    split = param_rule_set(net, range(6), shared=False).kernel_code()
    assert shared.source != split.source
    assert [slot for slot, _ in split.params] == ["p0", "p1"]
    assert "p1" not in shared.source


def test_a_different_constant_gets_a_different_source():
    # U's clock modulus is n + 1: rings of different sizes differ only in
    # that constant, rings of one size share their generated code.
    six = SDR(Unison(ring(6))).kernel_program()._code
    again = SDR(Unison(ring(6))).kernel_program()._code
    eight = SDR(Unison(ring(8))).kernel_program()._code
    assert six.guard_fn is again.guard_fn
    assert six.source != eight.source
    assert "% 7)" in six.source and "% 9)" in eight.source


def test_the_usdr_fast_path_gathers_the_clock_once():
    source = SDR(Unison(ring(8))).kernel_program()._code.source
    guard = functions(source)["guard_masks"].splitlines()
    start = guard.index("    if not cols['st'].any():")
    end = next(i for i in range(start, len(guard))
               if guard[i].startswith("        return"))
    fast = "\n".join(guard[start:end + 1])
    assert fast.count(f"cols[{CLOCK!r}][_IX]") == 1


# ----------------------------------------------------------------------
# Structural CSE
# ----------------------------------------------------------------------

def test_structurally_equal_subtrees_lower_once():
    x = col(X)

    def busy():  # a fresh tree per call, like FGA's best_ptr(...)
        return count_neighbors(neigh(x) > 0)

    rule_set = RuleSet(
        "cse", ring(6), Schema(Var.int(X)),
        [Rule("a", busy() >= 1, [Assign(X, busy())]),
         Rule("b", (busy() == 0) & (x < 0), [Assign(X, 0)])],
    )
    fns = functions(rule_set.kernel_code().source)
    assert fns["guard_masks"].count("count_neigh(") == 1
    assert fns["guard_masks"].count("[_IX]") == 1


# ----------------------------------------------------------------------
# Step memo
# ----------------------------------------------------------------------

def memo_rule_set(net):
    x = col(X)
    busy = count_neighbors(neigh(x) > 0)
    return RuleSet(
        "memo", net, Schema(Var.int(X)),
        [Rule("copy", busy >= 0, [Assign(X, busy)])],
        predicates={"quiet": busy == 0},
    )


def test_guards_store_and_actions_and_predicates_reuse_reductions():
    net = ring(6)
    program = memo_rule_set(net).compile_kernel()
    cols = program.schema.encode(Configuration([{X: v} for v in range(6)]))
    memo = {}
    program.guard_masks(cols, memo=memo)
    (slot, stored), = memo.items()
    assert stored.tolist() == [2, 1, 2, 2, 2, 1]

    idx = np.arange(6)
    plain = {X: cols[X].copy()}
    program.apply("copy", idx, cols, plain)
    assert plain[X].tolist() == stored.tolist()
    assert program.quiet_mask(cols).tolist() == [False] * 6

    # A memo entry is trusted as is: only its owner may vouch for it.
    memo[slot] = np.full(6, 9)
    poisoned = {X: cols[X].copy()}
    program.apply("copy", idx, cols, poisoned, memo)
    assert poisoned[X].tolist() == [9] * 6
    memo[slot] = np.zeros(6, dtype=np.int64)
    assert program.quiet_mask(cols, memo).tolist() == [True] * 6


def test_an_empty_memo_is_filled_by_actions():
    program = memo_rule_set(ring(6)).compile_kernel()
    cols = program.schema.encode(Configuration([{X: v} for v in range(6)]))
    memo = {}
    program.apply("copy", np.array([0, 3]), cols, {X: cols[X].copy()}, memo)
    assert len(memo) == 1


# ----------------------------------------------------------------------
# Hoisted invariants
# ----------------------------------------------------------------------

def keyed_rule_set(net):
    x = col(X)
    ids = param([7 * u % 11 for u in range(net.n)], "ids")
    best = min_over_neighbors(neigh(ids * nprocs() + proc_index()),
                              where=neigh(x) > 0, default=-1)
    return RuleSet("keyed", net, Schema(Var.int(X)),
                   [Rule("best", x >= 0, [Assign(X, best)])])


def test_maximal_invariant_subtrees_are_hoisted_once_per_program():
    net = ring(6)
    program = keyed_rule_set(net).compile_kernel()
    fns = functions(program._code.source)
    assert "_INV[0]" in fns["apply_0"]
    assert "C._params" not in fns["apply_0"]
    # Only the maximal subtree (the per-edge gather) is hoisted, not the
    # process-space key inside it.
    inv = program.invariants
    assert len(inv) == 1 and inv[0].shape == program.csr.indices.shape
    assert program.invariants is inv

    tiled = program.tiled(3)
    assert tiled.invariants is not inv
    assert tiled.invariants[0].shape == tiled.csr.indices.shape

    cols = program.schema.encode(Configuration([{X: 1}] * 6))
    before = {X: cols[X].copy()}
    program.apply("best", np.arange(6), cols, before)
    program.csr.apply_delta([(0, 1)], [])
    program.topology_changed()
    assert program.invariants is not inv
    after = {X: cols[X].copy()}
    program.apply("best", np.arange(6), cols, after)
    fresh_net = ring(6)
    fresh_net.apply_delta([(0, 1)], [])
    fresh = keyed_rule_set(fresh_net).compile_kernel()
    want = {X: cols[X].copy()}
    fresh.apply("best", np.arange(6), cols, want)
    assert after[X].tolist() == want[X].tolist()
    assert after[X].tolist() != before[X].tolist()


# ----------------------------------------------------------------------
# The lint's kernel-action check
# ----------------------------------------------------------------------

def test_check_catches_a_guard_that_files_reductions_under_wrong_slots(
    monkeypatch,
):
    generate = kernelc._generate

    def misfiling(rule_set, struct, params):
        code = generate(rule_set, struct, params)
        guard = code.guard_fn

        def rotated(C, cols, M):
            masks = guard(C, cols, M)
            slots = sorted(M)
            values = [M[s] for s in slots]
            M.update(zip(slots, values[1:] + values[:1]))
            return masks

        code.guard_fn = rotated
        return code

    monkeypatch.setattr(kernelc, "_CODE_CACHE", {})
    monkeypatch.setattr(kernelc, "_generate", misfiling)
    problems = check_algorithm(
        "sdr(fga)", SDR(FGA(by_name("random", 9, seed=11), 1, 1))
    )
    assert any("kernel action" in p and "guard memo" in p for p in problems)


@pytest.mark.parametrize("make", [
    lambda: SDR(FGA(by_name("random", 9, seed=11), 1, 1)),
    lambda: SDR(Unison(by_name("random", 9, seed=11))),
], ids=["sdr(fga)", "sdr(unison)"])
def test_check_passes_the_real_compiler(make):
    assert check_algorithm("x", make()) == []
