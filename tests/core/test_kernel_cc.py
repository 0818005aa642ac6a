"""The C tier of the fused loop: compiled segments, their RNG, their cache.

:mod:`repro.ir.cc` lowers a rule set to C, :mod:`repro.ir.ccbuild` builds
and caches the object, and :class:`repro.core.kernel.segment.Segment`
runs whole stretches of fused steps in it.  Every run here is compared
with the numpy loop — the C tier switched off by monkeypatching the
compiler lookup, the only switch there is — byte for byte.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest

from repro.alliance.fga import FGA
from repro.core import Simulator, make_daemon
from repro.core.algorithm import Algorithm
from repro.core.exceptions import ModelViolation
from repro.core.kernel import segment as segment_module
from repro.core.kernel.schema import Schema, Var
from repro.ir import (Assign, Rule, RuleSet, all_neighbors, ccbuild, col,
                      neigh)
from repro.probes import StabilizationProbe, StopProbe
from repro.reset import SDR
from repro.topology import (complete, line, random_connected, random_tree,
                            ring, star)
from repro.unison import Unison
from tests.properties import test_fused_equivalence as fused_suite

ROOT = Path(__file__).resolve().parents[2]

needs_compiler = pytest.mark.skipif(
    ccbuild.find_compiler() is None, reason="no C compiler"
)

NETS = {
    "ring": ring,
    "line": line,
    "star": star,
    "random_connected": lambda n: random_connected(n, p=0.3, seed=1),
    "random_tree": lambda n: random_tree(n, seed=1),
    "complete": complete,
}
SIZES = (3, 16, 257)
DAEMONS = ("central", "synchronous", "distributed-random")


@pytest.fixture
def numpy_tier(monkeypatch):
    """The C tier off: no compiler to be found."""
    monkeypatch.setattr(ccbuild, "find_compiler", lambda: None)


@pytest.fixture
def segments(monkeypatch):
    """Counts compiled segment calls."""
    calls = []
    real = segment_module.Segment.step

    def step(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(segment_module.Segment, "step", step)
    return calls


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty object cache, and no in-process memory of objects."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(ccbuild, "_BY_SOURCE", {})
    monkeypatch.setattr(ccbuild, "_STATUS",
                        {"compiler": None, "objects": {}, "refused": None})
    return tmp_path / "repro" / "cc"


def sdr_source(n=5):
    return SDR(Unison(ring(n))).rule_set().c_code().source


def execute(factory, net, daemon, seed, *, max_steps=300, probe=None,
            **kwargs):
    algo = factory(net)
    probes = [] if probe is None else [probe]
    sim = Simulator(algo, make_daemon(daemon, net),
                    config=algo.random_configuration(Random(seed)),
                    seed=seed, backend="kernel", probes=probes, **kwargs)
    result = sim.run(max_steps=max_steps)
    return {
        "steps": result.steps,
        "moves": result.moves,
        "rounds": result.rounds,
        "stop_reason": result.stop_reason,
        "moves_per_rule": dict(sim.moves_per_rule),
        "moves_per_process": tuple(sim.moves_per_process),
        "round_pending": sim.rounds.pending,
        "columns": {name: (c.dtype.str, c.tobytes())
                    for name, c in sim._kernel.read.items()},
        "final": sim.cfg.snapshot(),
        "rng_state": sim.rng.getstate(),
        "probe": None if probe is None else (
            probe.step, probe.rounds, probe.moves,
            probe.violations_after_hit),
    }


def both_tiers(monkeypatch, segments, run):
    """``run()`` on the C tier (asserted engaged), then on numpy."""
    compiled = run()
    assert segments, "the compiled tier did not engage"
    with monkeypatch.context() as m:
        m.setattr(ccbuild, "find_compiler", lambda: None)
        reference = run()
    return compiled, reference


# ----------------------------------------------------------------------
# The Mersenne Twister port
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lib():
    if ccbuild.find_compiler() is None:
        pytest.skip("no C compiler")
    loaded = ccbuild.load(sdr_source())
    assert loaded is not None
    loaded.repro_mt_randbelow.restype = ctypes.c_int64
    loaded.repro_mt_random.restype = ctypes.c_double
    return loaded


def twister(rng):
    _, internal, _ = rng.getstate()
    return np.array(internal[:-1], dtype=np.uint32), ctypes.c_int64(internal[-1])


BOUNDS = sorted({1, 2, 3} | {
    2**j + d for j in range(1, 32) for d in (-1, 0, 1) if 2**j + d < 2**32
})


@pytest.mark.parametrize("k", BOUNDS)
def test_randbelow_matches_randrange(lib, k):
    ref = Random(k)
    mt, pos = twister(ref)
    words = mt.ctypes.data_as(ctypes.c_void_p)
    for _ in range(50):
        got = lib.repro_mt_randbelow(words, ctypes.byref(pos), ctypes.c_int64(k))
        assert got == ref.randrange(k)
    assert tuple(mt.tolist()) + (pos.value,) == ref.getstate()[1]


def test_random_matches_genrand_res53(lib):
    ref = Random(7)
    mt, pos = twister(ref)
    words = mt.ctypes.data_as(ctypes.c_void_p)
    for _ in range(1500):  # crosses several twists
        assert lib.repro_mt_random(words, ctypes.byref(pos)) == ref.random()
    assert tuple(mt.tolist()) + (pos.value,) == ref.getstate()[1]


@needs_compiler
@pytest.mark.parametrize("daemon", ["central", "distributed-random"])
def test_next_python_draw_after_a_segment(monkeypatch, segments, daemon):
    def run():
        net = ring(16)
        sdr = SDR(Unison(net))
        sim = Simulator(sdr, make_daemon(daemon, net),
                        config=sdr.random_configuration(Random(3)), seed=3,
                        backend="kernel")
        sim.run(max_steps=500)
        return sim.rng.random(), sim.rng.randrange(1000), sim.rng.getstate()

    compiled, reference = both_tiers(monkeypatch, segments, run)
    assert compiled == reference


# ----------------------------------------------------------------------
# Byte identity with the numpy loop
# ----------------------------------------------------------------------
@needs_compiler
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("topology", sorted(NETS))
def test_segments_match_numpy(monkeypatch, segments, topology, n, daemon):
    net = NETS[topology](n)

    def run():
        probe = StabilizationProbe(mask="normal_mask", stop=False)
        return execute(lambda net: SDR(Unison(net)), net, daemon, n,
                       max_steps=200, probe=probe)

    compiled, reference = both_tiers(monkeypatch, segments, run)
    assert compiled == reference


@needs_compiler
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("algorithm", ["boulinier", "turau"])
def test_other_rule_sets_match_numpy(monkeypatch, segments, algorithm,
                                     daemon):
    """Several rules, parameters (Turau's identifiers), no fast path."""
    factory = fused_suite.ALGORITHMS[algorithm]
    net = random_connected(16, p=0.3, seed=2)
    compiled, reference = both_tiers(
        monkeypatch, segments,
        lambda: execute(factory, net, daemon, 4, max_steps=2000),
    )
    assert compiled == reference


@needs_compiler
@pytest.mark.parametrize("daemon", DAEMONS)
def test_pointer_gathers_keep_the_numpy_loop(monkeypatch, segments, daemon):
    """FGA∘SDR's guards chase pointers: no bounded wake ball."""
    net = ring(16)

    def run():
        return execute(lambda net: SDR(FGA(net, 1, 1)), net, daemon, 4,
                       max_steps=2000)

    compiled = run()
    assert not segments
    with monkeypatch.context() as m:
        m.setattr(ccbuild, "find_compiler", lambda: None)
        assert compiled == run()


#: One register ``x`` in {0, 1} as each column kind: equal structure,
#: different dtypes (int64, bool, int8).
KINDS = {
    "int": lambda: Var.int("x"),
    "bool": lambda: Var.bool("x"),
    "enum": lambda: Var.enum("x", (0, 1)),
}


class Toggle(Algorithm):
    """``x`` set when clear, cleared once every neighbour is set.

    The rule set's structure does not depend on ``x``'s column kind, so
    only the dtype tells the lowerings apart."""

    name = "toggle"

    def __init__(self, network, kind):
        super().__init__(network)
        self.kind = kind
        self._rules = None

    def variables(self):
        return ("x",)

    def rule_names(self):
        return ("rule_set", "rule_clear")

    def rule_set(self):
        if self._rules is None:
            x = col("x")
            self._rules = RuleSet("toggle", self.network, Schema(KINDS[self.kind]()), [
                Rule("rule_set", x == 0, [Assign("x", 1)]),
                Rule("rule_clear", (x == 1) & all_neighbors(neigh(x) == 1),
                     [Assign("x", 0)]),
            ])
        return self._rules

    def guard(self, rule, cfg, u):
        return self.rule_set().compile_dict().guard(rule, cfg, u)

    def execute(self, rule, cfg, u):
        return self.rule_set().compile_dict().execute(rule, cfg, u)

    def initial_state(self, u):
        return {"x": self.random_state(u, Random(u))["x"]}

    def random_state(self, u, rng):
        value = rng.randrange(2)
        return {"x": bool(value) if self.kind == "bool" else value}


def test_column_dtype_is_part_of_the_lowering_key():
    sources = {kind: Toggle(ring(5), kind).rule_set().c_code().source
               for kind in KINDS}
    assert len(set(sources.values())) == len(KINDS)


@needs_compiler
@pytest.mark.parametrize("daemon", DAEMONS)
def test_equal_structure_other_dtype_matches_numpy(monkeypatch, segments,
                                                   daemon):
    """Each kind after the others in one process: none reuses another's
    object, whose accessors and stores are sized for another dtype."""
    net = ring(257)
    for kind in KINDS:
        segments.clear()
        compiled, reference = both_tiers(
            monkeypatch, segments,
            lambda: execute(lambda net: Toggle(net, kind), net, daemon, 3,
                            max_steps=500),
        )
        assert compiled == reference, kind


# ----------------------------------------------------------------------
# Stop reasons
# ----------------------------------------------------------------------
@needs_compiler
def test_budget_and_terminal(monkeypatch, segments):
    net = random_connected(14, p=0.3, seed=2)
    turau = fused_suite.ALGORITHMS["turau"]
    for max_steps, reason in ((3, "budget"), (100_000, "terminal")):
        segments.clear()
        compiled, reference = both_tiers(
            monkeypatch, segments,
            lambda: execute(turau, net, "distributed-random", 1,
                            max_steps=max_steps),
        )
        assert compiled == reference
        assert compiled["stop_reason"] == reason


@needs_compiler
@pytest.mark.parametrize("daemon", DAEMONS)
def test_until_predicate(monkeypatch, segments, daemon):
    def run():
        net = ring(24)
        sdr = SDR(Unison(net))
        sim = Simulator(sdr, make_daemon(daemon, net),
                        config=sdr.random_configuration(Random(9)), seed=9,
                        backend="kernel")
        result = sim.run_until_mask(sim._program.normal_mask, 50_000)
        return ((result.steps, result.moves, result.rounds, result.terminal,
                 result.stop_reason), sim.cfg.snapshot(), sim.rng.getstate())

    compiled, reference = both_tiers(monkeypatch, segments, run)
    assert compiled == reference
    assert compiled[0][-1] == "predicate"


@needs_compiler
@pytest.mark.parametrize("make", [
    lambda: StabilizationProbe(mask="normal_mask"),
    lambda: StabilizationProbe(mask="normal_mask", run_past=37),
    lambda: StopProbe(mask="normal_mask"),
])
def test_probe_stops(monkeypatch, segments, make):
    compiled, reference = both_tiers(
        monkeypatch, segments,
        lambda: execute(lambda net: SDR(Unison(net)), ring(20), "central", 2,
                        max_steps=100_000, probe=make()),
    )
    assert compiled == reference
    assert compiled["stop_reason"] == "probe"


@needs_compiler
@pytest.mark.parametrize("daemon", DAEMONS)
def test_disturbance_boundaries(monkeypatch, segments, daemon):
    """Segments stop at each due fault; Python applies it unchanged."""
    compiled, reference = both_tiers(
        monkeypatch, segments,
        lambda: execute(lambda net: SDR(Unison(net)), ring(12), daemon, 5,
                        max_steps=400,
                        probe=StabilizationProbe(mask="normal_mask",
                                                 stop=False),
                        faults="every=23,count=5,k=2"),
    )
    assert compiled == reference


class Overlapping(Algorithm):
    """Two rules declared exclusive that overlap once ``x`` reaches 3."""

    name = "overlapping"
    mutually_exclusive_rules = True

    def variables(self):
        return ("x",)

    def rule_names(self):
        return ("rule_inc", "rule_high")

    def rule_set(self):
        x = col("x")
        return RuleSet("overlapping", self.network, Schema(Var.int("x")), [
            Rule("rule_inc", x < 6, [Assign("x", x + 1)]),
            Rule("rule_high", x >= 3, [Assign("x", x - 3)]),
        ])

    def guard(self, rule, cfg, u):
        return self.rule_set().compile_dict().guard(rule, cfg, u)

    def execute(self, rule, cfg, u):
        return self.rule_set().compile_dict().execute(rule, cfg, u)

    def initial_state(self, u):
        return {"x": 0}

    def random_state(self, u, rng):
        return {"x": rng.randrange(3)}


@needs_compiler
@pytest.mark.parametrize("daemon", DAEMONS)
def test_exclusion_violation(monkeypatch, segments, daemon):
    def run():
        net = ring(9)
        algo = Overlapping(net)
        sim = Simulator(algo, make_daemon(daemon, net), seed=1,
                        backend="kernel")
        with pytest.raises(ModelViolation) as err:
            sim.run(max_steps=1000)
        # The configuration the violation was found in pins its step.
        return (str(err.value), sim.rng.getstate(),
                sim._kernel.read["x"].tobytes())

    compiled, reference = both_tiers(monkeypatch, segments, run)
    assert compiled == reference
    assert "mutual exclusion" in compiled[0]


@needs_compiler
def test_telemetry_fills_the_phase_slots(monkeypatch, segments):
    from repro.telemetry import phases

    def run():
        with phases.recording(stride=4) as stats:
            out = execute(lambda net: SDR(Unison(net)), ring(32), "central",
                          1, max_steps=400)
        return out, stats.snapshot()

    (compiled, snap), (reference, _) = both_tiers(monkeypatch, segments, run)
    assert compiled == reference
    for phase in ("guard", "daemon", "apply", "rounds"):
        assert snap["phases"][phase]["samples"] == 100


# ----------------------------------------------------------------------
# The object cache
# ----------------------------------------------------------------------
@needs_compiler
def test_cold_build_then_warm_hit_without_subprocess(fresh_cache, monkeypatch):
    source = sdr_source()
    assert ccbuild.load(source) is not None
    assert ccbuild.provenance()["cache"] == ["build"]
    objects = list(fresh_cache.glob("*.so"))
    assert len(objects) == 1

    monkeypatch.setattr(ccbuild, "_BY_SOURCE", {})
    monkeypatch.setattr(ccbuild, "_STATUS",
                        {"compiler": None, "objects": {}, "refused": None})

    def no_subprocess(*args, **kwargs):
        raise AssertionError("a warm hit spawned a subprocess")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    assert ccbuild.load(source) is not None
    assert ccbuild.provenance()["cache"] == ["hit"]
    assert ccbuild.provenance()["compiler"].startswith("gcc")


@needs_compiler
def test_truncated_object_is_rebuilt(fresh_cache, tmp_path):
    # Another process builds the object; this one never mapped it.
    assert load_in_subprocesses(tmp_path, 1) == ["loaded"]
    (obj,) = fresh_cache.glob("*.so")
    size = obj.stat().st_size
    with open(obj, "r+b") as fh:
        fh.truncate(size // 2)
    assert ccbuild.load(sdr_source()) is not None
    assert ccbuild.provenance()["cache"] == ["build"]
    assert obj.stat().st_size == size


@needs_compiler
@pytest.mark.parametrize("problem", ["group-writable", "world-writable",
                                     "foreign-owner"])
def test_unsafe_cache_dir_falls_back_to_numpy(fresh_cache, monkeypatch,
                                              segments, problem):
    fresh_cache.mkdir(parents=True)
    if problem == "group-writable":
        os.chmod(fresh_cache, 0o770)
    elif problem == "world-writable":
        os.chmod(fresh_cache, 0o707)
    else:
        uid = os.geteuid()
        monkeypatch.setattr(os, "geteuid", lambda: uid + 1)
    assert ccbuild.load(sdr_source()) is None
    assert ccbuild.provenance()["refused"] == str(fresh_cache)
    assert not list(fresh_cache.glob("*.so"))

    net = ring(10)
    fallback = execute(lambda net: SDR(Unison(net)), net, "central", 0)
    assert not segments  # refused: the numpy loop ran
    with monkeypatch.context() as m:
        m.setattr(ccbuild, "find_compiler", lambda: None)
        assert fallback == execute(lambda net: SDR(Unison(net)), net,
                                   "central", 0)


@needs_compiler
def test_missing_compiler_falls_back_with_identical_results(
        monkeypatch, segments):
    compiled, reference = both_tiers(
        monkeypatch, segments,
        lambda: execute(lambda net: SDR(Unison(net)), ring(30),
                        "distributed-random", 8, max_steps=600),
    )
    assert compiled == reference


def load_in_subprocesses(cache_home, count):
    """Start ``count`` interpreters loading U∘SDR's object at once."""
    script = (
        "from repro.ir import ccbuild\n"
        "from repro.reset import SDR\n"
        "from repro.unison import Unison\n"
        "from repro.topology import ring\n"
        "source = SDR(Unison(ring(5))).rule_set().c_code().source\n"
        "print('loaded' if ccbuild.load(source) is not None else 'none')\n"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(count)]
    return [proc.communicate(timeout=300)[0].strip() for proc in procs]


@needs_compiler
def test_racing_cold_builds_both_load_a_complete_object(tmp_path):
    assert load_in_subprocesses(tmp_path, 2) == ["loaded", "loaded"]
    cache = tmp_path / "repro" / "cc"
    (obj,) = cache.glob("*.so")
    assert ccbuild._complete_elf(obj)
    assert not list(cache.glob(".build-*"))


# ----------------------------------------------------------------------
# The fused suite, once more on numpy alone
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", sorted(fused_suite.TOPOLOGIES))
@pytest.mark.parametrize("daemon", fused_suite.DAEMONS)
@pytest.mark.parametrize("algorithm", sorted(fused_suite.ALGORITHMS))
def test_fused_suite_on_numpy(numpy_tier, topology, daemon, algorithm):
    fused_suite.test_fused_equals_stepwise(topology, daemon, algorithm)


@pytest.mark.parametrize("daemon", fused_suite.DAEMONS)
def test_run_until_mask_suite_on_numpy(numpy_tier, daemon):
    fused_suite.test_run_until_mask_equals_detector(daemon)


def test_stop_reason_suite_on_numpy(numpy_tier):
    fused_suite.test_run_until_mask_initial_hit()
    fused_suite.test_fused_budget_and_terminal_stop_reasons()
    fused_suite.test_step_then_fused_run_continues_seamlessly()
    fused_suite.test_fused_then_step_continues_seamlessly()
