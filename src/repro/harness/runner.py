"""Single-trial and batched-trial runners for experiments and benchmarks.

A *trial* fixes (topology, algorithm, initial-configuration scenario,
daemon, seed), runs to stabilization (or termination), and reports a flat
record of measurements.  Sweeps iterate trials over parameter grids.

Two execution fast paths keep trials off the per-step Python boundary:

* single trials detect stabilization with the *fused* kernel loop when
  the program provides a vectorized legitimacy mask (identical records,
  no per-step configuration decode);
* :func:`run_trial_batch` runs a whole campaign cell's replicates as one
  tiled multi-trial simulation (:mod:`repro.core.kernel.batch`), with
  results record-identical to serial runs.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..alliance.fga import FGA
from ..alliance.functions import instance_by_name
from ..analysis.metrics import RunMetrics, collect_metrics
from ..core.daemon import DAEMON_KINDS, Daemon, make_daemon
from ..core.exceptions import NotStabilized, UnbatchableError
from ..core.graph import Network
from ..core.simulator import Simulator
from ..faults.injector import corrupt_processes
from ..faults.scenarios import clock_gradient, clock_split, fake_reset_wave, hollow_alliance
from ..faults.churn import parse_churn
from ..faults.schedule import parse_schedule
from ..probes import RecoveryProbe, SdrWaveProbe, StabilizationProbe
from ..probes.stabilization import resolve_mask
from ..reset.sdr import SDR
from ..topology import by_name
from ..unison.boulinier import BoulinierUnison
from ..unison.unison import CLOCK, Unison

if TYPE_CHECKING:  # descriptor type only — the engine imports this module
    from ..engine.campaign import TrialSpec

__all__ = [
    "Trial",
    "run_trial",
    "run_trial_batch",
    "can_batch",
    "run_unison_trial",
    "run_boulinier_trial",
    "run_fga_trial",
    "sweep",
]

#: Default step budgets, shared between the serial runners' signatures
#: and the batched runner's param handling — one source of truth, so a
#: batched and a serial execution of the same spec always stop at the
#: same budget (the stores' byte-identity depends on it).
UNISON_MAX_STEPS = 2_000_000
BOULINIER_MAX_STEPS = 5_000_000
FGA_MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class Trial:
    """Flat record of one stabilization measurement."""

    algorithm: str
    scenario: str
    daemon: str
    seed: int
    n: int
    m: int
    diameter: int
    max_degree: int
    rounds: int
    moves: int
    steps: int
    metrics: RunMetrics
    extra: dict[str, Any] = field(default_factory=dict)


def _make_daemon(spec: str | Daemon, network: Network) -> Daemon:
    if isinstance(spec, Daemon):
        return spec
    return make_daemon(spec, network)


#: Recognized mode values of the trial runners' ``probe`` execution
#: option.  Anything else is parsed as a *named probe selection*
#: (``"accounting:100"`` — see :mod:`repro.probes.registry`): an
#: auxiliary vector-tier probe attached for observation only, whose
#: samples never enter the result record.
PROBE_MODES = ("auto", "decode")


def _check_probe_mode(probe: str) -> None:
    from ..probes.registry import is_named_probe

    if probe not in PROBE_MODES and not is_named_probe(probe):
        from ..probes.registry import PROBE_NAMES

        raise ValueError(
            f"unknown probe mode {probe!r}; choose from {PROBE_MODES} "
            f"or a named selection of {PROBE_NAMES} (optionally 'name:arg')"
        )


def _named_probes(probe: str, n: int) -> list:
    """The auxiliary probes a ``probe`` selection asks for (often none)."""
    if probe in PROBE_MODES:
        return []
    from ..probes.registry import make_probe

    return [make_probe(probe, n)]


def _stabilization(
    sim: Simulator, predicate, mask_attr: str, max_steps: int,
    probe: str = "auto",
) -> tuple[int, int, int]:
    """``(steps, rounds, moves)`` at the first legitimate configuration.

    Attaches a :class:`~repro.probes.StabilizationProbe` carrying both
    tiers of the legitimacy notion: the program's vectorized mask
    (``mask_attr`` — rides the fused kernel loop, no per-step decode)
    and the ``predicate`` closure (the decode tier, used whenever
    fusion is off: dict backend, tracing, non-vector daemon, or
    ``probe="decode"`` forcing the per-step path).  Measurements are
    identical on both tiers — the probe-equivalence property suite
    asserts byte-equality.
    """
    measure = StabilizationProbe(
        predicate,
        mask=mask_attr if probe != "decode" else None,
        name="legitimate",
    )
    sim.add_probe(measure)
    result = sim.run(max_steps=max_steps)
    if not measure.hit:
        raise NotStabilized(
            f"predicate 'legitimate' not reached within {max_steps} steps",
            steps=result.steps,
        )
    return measure.step, measure.rounds, measure.moves


def _fault_probes(finite, total, *, mask_attr=None, predicate=None,
                  terminal=False, probe: str = "auto", waves: bool = True):
    """Fresh ``(RecoveryProbe, SdrWaveProbe | None)`` for one trial.

    ``finite``/``total`` describe the trial's combined disturbance
    workload (fault bursts plus churn occurrences).  Finite schedules
    stop the run once every burst recovered (the stabilization
    predicate must *not* stop a fault trial — the workload is recovery,
    not first convergence); silent compositions instead stop at the
    natural re-termination after the last burst, so their probe never
    requests a stop.
    """
    recovery = RecoveryProbe(
        None if terminal else predicate,
        mask=mask_attr if (mask_attr is not None and probe != "decode") else None,
        terminal=terminal,
        expected=total if finite else None,
        stop=finite and not terminal,
    )
    return recovery, (SdrWaveProbe() if waves else None)


def _require_recovered(finite, total, bounds, recovery, result) -> None:
    """Finite schedules must fully recover; unbounded ones run to budget.

    ``bounds`` are the trial's bound schedules (fault and/or churn) —
    the terminal carve-out needs them all exhausted.
    """
    if not finite or recovery.all_recovered:
        return
    if result.stop_reason == "terminal" and all(b.exhausted for b in bounds):
        # A pulled-forward burst can leave a terminal configuration
        # terminal (the drawn junk matched the current registers); no
        # observation follows the break, so that burst stays open.
        return
    open_bursts = len(recovery.bursts) - recovery.recovered_count
    pending = (total or 0) - len(recovery.bursts)
    raise NotStabilized(
        f"fault schedule not absorbed within {result.steps} steps "
        f"({open_bursts} bursts unrecovered, {pending} not yet fired)",
        steps=result.steps,
    )


def _serial_fault_trial(
    algorithm_label: str,
    algo,
    network: Network,
    cfg,
    daemon: str | Daemon,
    scenario: str,
    seed: int,
    faults,
    *,
    max_steps: int,
    backend: str,
    probe: str,
    churn=None,
    mask_attr: str | None = None,
    predicate=None,
    terminal: bool = False,
    waves: bool = True,
    extra_fn=None,
) -> Trial:
    """One trial whose measured workload is recovery from disturbances.

    ``faults`` (register corruption) and ``churn`` (topology mutation)
    each bind to the trial seed (unless a spec pins its own ``seed=``
    clause), fire mid-run on whichever backend executes, and share one
    :class:`~repro.probes.RecoveryProbe`: every fault burst and every
    churn occurrence arms a stopwatch, and the per-burst recovery
    series lands in ``Trial.extra`` — byte-identical across dict,
    fused, and batched execution.  (Churn trials never batch — see
    :func:`can_batch` — so the batched path stays fault-only.)
    """
    fault_sched = parse_schedule(faults) if faults is not None else None
    churn_sched = parse_churn(churn) if churn is not None else None
    bound = (
        fault_sched.bind(algo, default_seed=seed)
        if fault_sched is not None else None
    )
    churn_bound = (
        churn_sched.bind(algo, default_seed=seed)
        if churn_sched is not None else None
    )
    scheds = [s for s in (fault_sched, churn_sched) if s is not None]
    finite = all(s.finite for s in scheds)
    total = sum(s.total_occurrences for s in scheds) if finite else None
    recovery, wave = _fault_probes(
        finite, total, mask_attr=mask_attr, predicate=predicate,
        terminal=terminal, probe=probe, waves=waves,
    )
    probes = [recovery] + ([wave] if wave is not None else [])
    probes += _named_probes(probe, network.n)
    # Snapshot the seed topology's descriptors now: churn mutates the
    # network in place, and a crashed-for-good process leaves the final
    # graph disconnected (diameter undefined).  The trial record
    # describes the experiment's *parameter* topology; the final shape
    # lands in ``extra["churn_final"]``.
    topo = (network.n, network.m, network.diameter, network.max_degree)
    sim = Simulator(algo, _make_daemon(daemon, network), config=cfg, seed=seed,
                    backend=backend, fuse=probe != "decode",
                    probes=probes, faults=bound, churn=churn_bound)
    result = sim.run(max_steps=max_steps)
    bounds = [b for b in (bound, churn_bound) if b is not None]
    _require_recovered(finite, total, bounds, recovery, result)
    extra = dict(extra_fn(sim)) if extra_fn is not None else {}
    if fault_sched is not None:
        extra["faults"] = fault_sched.canonical()
    if churn_bound is not None:
        extra["churn"] = churn_sched.canonical()
        dead = churn_bound.dead()
        extra["churn_final"] = {
            "fired": churn_bound.fired,
            "live": churn_bound.n - len(dead),
            "dead": list(dead),
            "components": churn_bound.components(),
            "edges": len(churn_bound.current_edges()),
        }
    extra["recovery"] = recovery.summary()
    if wave is not None:
        extra["sdr_waves"] = wave.summary()
    return Trial(
        algorithm=algorithm_label,
        scenario=scenario,
        daemon=sim.daemon.name,
        seed=seed,
        n=topo[0],
        m=topo[1],
        diameter=topo[2],
        max_degree=topo[3],
        rounds=result.rounds,
        moves=result.moves,
        steps=result.steps,
        metrics=collect_metrics(sim),
        extra=extra,
    )


# ----------------------------------------------------------------------
# Adversarial schedule search (the ``adversary`` trial param)
# ----------------------------------------------------------------------
def _adversary_daemon(adversary: str, daemon, backend: str, faults, churn,
                      network: Network, stop_mask: str | None = None):
    """Validate an ``adversary=`` trial and build its search daemon.

    The adversary *is* the scheduler, so it replaces the daemon (the
    ``daemon`` param must stay at its default) and runs on the kernel
    backend: the column-tier search has no dict twin, and silently
    degrading to the scored fallback would make results depend on an
    execution option.  Cross-backend confidence comes from the
    certificate instead — every found schedule is replay-verified on the
    dict backend before the trial returns.  Disturbance schedules don't
    compose with search (a fault mid-rollout would invalidate every
    snapshot score), so ``faults``/``churn`` are rejected.

    ``stop_mask`` is the trial's legitimacy mask (the one its
    stabilization probe rides): the search treats configurations
    satisfying it as terminal, since the measured run stops there.
    """
    from ..adversary.search import make_search_daemon

    if faults is not None or churn is not None:
        raise ValueError(
            "adversary search does not compose with faults/churn schedules"
        )
    if isinstance(daemon, Daemon) or daemon != "distributed-random":
        raise ValueError(
            f"adversary={adversary!r} replaces the daemon; leave the "
            f"daemon param at its default (got {daemon!r})"
        )
    if backend == "dict":
        raise ValueError(
            "adversary search requires the kernel backend; replay its "
            "certificate on the dict backend instead (done automatically)"
        )
    search = make_search_daemon(adversary, network)
    search.strategy.stop_mask = stop_mask
    return search, "kernel"


def _maybe_write_certificate(cert) -> str | None:
    """Write the certificate under ``$REPRO_CERT_DIR`` when set (CI artifacts)."""
    from ..adversary.certificates import write_certificate

    cert_dir = os.environ.get("REPRO_CERT_DIR")
    if not cert_dir:
        return None
    os.makedirs(cert_dir, exist_ok=True)
    slug = re.sub(
        r"[^A-Za-z0-9.]+", "-", f"{cert.algorithm}-{cert.strategy}"
    ).strip("-").lower()
    path = os.path.join(cert_dir, f"{slug}-n{cert.n}-s{cert.seed}.jsonl")
    write_certificate(cert, path)
    return path


def _adversary_extra(daemon: Daemon, adversary: str, label: str, algo,
                     initial, final, rounds: int, seed: int,
                     network: Network) -> dict:
    """Certificate + dict-backend replay verification of a finished search.

    Raises :class:`~repro.adversary.certificates.CertificateError` if the
    replay diverges in any way — a found schedule that the reference
    interpreter cannot reproduce is not a result.
    """
    from ..adversary.certificates import certificate_from_daemon, verify_certificate

    cert = certificate_from_daemon(
        daemon, algorithm=label, seed=seed, initial=initial, final=final,
        rounds=rounds,
        meta={"spec": adversary, "m": network.m, "diameter": network.diameter},
    )
    report = verify_certificate(cert, algo, initial, backend="dict")
    out = {
        "strategy": getattr(daemon, "spec", daemon.name),
        "spec": adversary,
        "digest": cert.digest(),
        "initial_hash": cert.initial_hash,
        "final_hash": cert.final_hash,
        "replay": {
            "backend": report.backend,
            "ok": report.ok,
            "steps": report.steps,
            "moves": report.moves,
            "rounds": report.rounds,
        },
    }
    path = _maybe_write_certificate(cert)
    if path is not None:
        out["certificate_path"] = path
    return out


def _unison_start(sdr: SDR, scenario: str, rng: Random):
    if scenario == "random":
        return sdr.random_configuration(rng)
    if scenario == "gradient":
        return clock_gradient(sdr)
    if scenario == "split":
        return clock_split(sdr)
    if scenario == "fake-wave":
        return fake_reset_wave(sdr, rng)
    if scenario.startswith("faults:"):
        k = int(scenario.split(":", 1)[1])
        cfg = sdr.initial_configuration()
        victims = rng.sample(range(sdr.network.n), min(k, sdr.network.n))
        return corrupt_processes(sdr, cfg, victims, rng)
    raise ValueError(f"unknown unison scenario {scenario!r}")


def _boulinier_start(algo: BoulinierUnison, scenario: str, rng: Random):
    network = algo.network
    if scenario == "random":
        return algo.random_configuration(rng)
    if scenario == "gradient":
        cfg = algo.initial_configuration()
        for u in network.processes():
            cfg.set(u, "r", (3 * u) % algo.period)
        return cfg
    if scenario == "split":
        cfg = algo.initial_configuration()
        far = algo.period // 2
        for u in network.processes():
            cfg.set(u, "r", 0 if u < network.n // 2 else far)
        return cfg
    raise ValueError(f"unknown boulinier scenario {scenario!r}")


def _fga_start(sdr: SDR, scenario: str, rng: Random):
    network = sdr.network
    if scenario == "random":
        return sdr.random_configuration(rng)
    if scenario == "init":
        return sdr.initial_configuration()
    if scenario == "hollow":
        return hollow_alliance(sdr)
    if scenario.startswith("faults:"):
        k = int(scenario.split(":", 1)[1])
        cfg = sdr.initial_configuration()
        victims = rng.sample(range(network.n), min(k, network.n))
        return corrupt_processes(sdr, cfg, victims, rng)
    raise ValueError(f"unknown FGA scenario {scenario!r}")


def run_unison_trial(
    network: Network,
    seed: int = 0,
    daemon: str | Daemon = "distributed-random",
    scenario: str = "random",
    period: int | None = None,
    max_steps: int = UNISON_MAX_STEPS,
    backend: str = "auto",
    probe: str = "auto",
    faults=None,
    churn=None,
    adversary: str | None = None,
) -> Trial:
    """Run ``U ∘ SDR`` to its first normal configuration.

    ``backend`` selects the simulator's execution engine (``"auto"`` runs
    the array kernel when available); ``probe`` selects the measurement
    tier (``"auto"`` rides the fused loop on a vectorized legitimacy
    mask, ``"decode"`` forces the per-step decoded path); results are
    independent of both.  ``faults`` (a schedule spec or
    :class:`~repro.faults.FaultSchedule`) switches the trial to the
    recovery workload: the schedule injects mid-run, the per-burst
    recovery series and SDR wave counters land in ``Trial.extra``, and
    a finite schedule must be fully absorbed within ``max_steps``.
    ``churn`` (a spec string or :class:`~repro.faults.ChurnSchedule`)
    likewise switches to the recovery workload with mid-run topology
    mutation — recovery then means every *live* process is normal; the
    two compose freely in one trial.  ``adversary`` (a strategy spec —
    ``greedy``, ``beam``, ``beam-WxH``, ``delay``) replaces the daemon
    with a schedule search (:mod:`repro.adversary`): the trial runs on
    the kernel backend, and the found schedule's certificate is
    replay-verified on the dict backend before the record lands in
    ``Trial.extra["adversary"]``.
    """
    _check_probe_mode(probe)
    rng = Random(seed)
    sdr = SDR(Unison(network, period=period))
    cfg = _unison_start(sdr, scenario, rng)
    if adversary is not None:
        daemon, backend = _adversary_daemon(
            adversary, daemon, backend, faults, churn, network,
            stop_mask="normal_mask",
        )
    if faults is not None or churn is not None:
        return _serial_fault_trial(
            "U o SDR", sdr, network, cfg, daemon, scenario, seed, faults,
            max_steps=max_steps, backend=backend, probe=probe, churn=churn,
            mask_attr="normal_mask", predicate=sdr.is_normal,
        )
    sim = Simulator(sdr, _make_daemon(daemon, network), config=cfg, seed=seed,
                    backend=backend, fuse=probe != "decode",
                    probes=_named_probes(probe, network.n))
    steps, rounds, moves = _stabilization(sim, sdr.is_normal, "normal_mask",
                                          max_steps, probe=probe)
    extra: dict[str, Any] = {}
    if adversary is not None:
        extra["adversary"] = _adversary_extra(
            sim.daemon, adversary, "U o SDR", sdr, cfg, sim.cfg, rounds,
            seed, network,
        )
    return Trial(
        algorithm="U o SDR",
        scenario=scenario,
        daemon=sim.daemon.name,
        seed=seed,
        n=network.n,
        m=network.m,
        diameter=network.diameter,
        max_degree=network.max_degree,
        rounds=rounds,
        moves=moves,
        steps=steps,
        metrics=collect_metrics(sim),
        extra=extra,
    )


def run_boulinier_trial(
    network: Network,
    seed: int = 0,
    daemon: str | Daemon = "distributed-random",
    period: int | None = None,
    alpha: int | None = None,
    scenario: str = "random",
    max_steps: int = BOULINIER_MAX_STEPS,
    backend: str = "auto",
    probe: str = "auto",
    faults=None,
    churn=None,
    adversary: str | None = None,
) -> Trial:
    """Run the reset-tail baseline to its first legitimate configuration.

    The ``gradient``/``split`` scenarios mirror the ``U ∘ SDR`` ones on the
    shared clock variable so head-to-head comparisons start from the same
    amount of clock disorder.  ``faults`` (and/or ``churn``) switches to
    the recovery workload (no SDR wave counters — the baseline has no
    reset layer).  ``adversary`` replaces the daemon with a schedule
    search, as in :func:`run_unison_trial`.
    """
    _check_probe_mode(probe)
    rng = Random(seed)
    algo = BoulinierUnison(network, period=period, alpha=alpha)
    cfg = _boulinier_start(algo, scenario, rng)
    if adversary is not None:
        daemon, backend = _adversary_daemon(
            adversary, daemon, backend, faults, churn, network,
            stop_mask="legitimate_mask",
        )
    if faults is not None or churn is not None:
        return _serial_fault_trial(
            "boulinier", algo, network, cfg, daemon, scenario, seed, faults,
            max_steps=max_steps, backend=backend, probe=probe, churn=churn,
            mask_attr="legitimate_mask", predicate=algo.is_legitimate,
            waves=False,
            extra_fn=lambda sim: {"period": algo.period, "alpha": algo.alpha},
        )
    sim = Simulator(algo, _make_daemon(daemon, network), config=cfg, seed=seed,
                    backend=backend, fuse=probe != "decode",
                    probes=_named_probes(probe, network.n))
    steps, rounds, moves = _stabilization(sim, algo.is_legitimate,
                                          "legitimate_mask", max_steps,
                                          probe=probe)
    extra: dict[str, Any] = {"period": algo.period, "alpha": algo.alpha}
    if adversary is not None:
        extra["adversary"] = _adversary_extra(
            sim.daemon, adversary, "boulinier", algo, cfg, sim.cfg, rounds,
            seed, network,
        )
    return Trial(
        algorithm="boulinier",
        scenario=scenario,
        daemon=sim.daemon.name,
        seed=seed,
        n=network.n,
        m=network.m,
        diameter=network.diameter,
        max_degree=network.max_degree,
        rounds=rounds,
        moves=moves,
        steps=steps,
        metrics=collect_metrics(sim),
        extra=extra,
    )


def run_fga_trial(
    network: Network,
    f,
    g,
    seed: int = 0,
    daemon: str | Daemon = "distributed-random",
    scenario: str = "random",
    max_steps: int = FGA_MAX_STEPS,
    backend: str = "auto",
    probe: str = "auto",
    faults=None,
    churn=None,
    adversary: str | None = None,
) -> Trial:
    """Run ``FGA ∘ SDR`` to termination (the composition is silent).

    The composition terminates rather than hitting a predicate, so
    ``probe="decode"`` here simply forces the step-by-step loop
    (``fuse=False``) — the measurement itself needs no probe.
    ``faults`` (and/or ``churn``) switches to the recovery workload:
    recovery means the configuration is terminal again, and a finite
    schedule's last burst ends the run at the natural re-termination.
    ``adversary`` replaces the daemon with a schedule search, as in
    :func:`run_unison_trial`.
    """
    _check_probe_mode(probe)
    rng = Random(seed)
    sdr = SDR(FGA(network, f, g))
    cfg = _fga_start(sdr, scenario, rng)
    if adversary is not None:
        daemon, backend = _adversary_daemon(
            adversary, daemon, backend, faults, churn, network
        )
    if faults is not None or churn is not None:
        def fga_extra(sim):
            alliance = sdr.input.alliance(sim.cfg)
            return {"alliance_size": len(alliance),
                    "alliance": frozenset(alliance)}

        return _serial_fault_trial(
            "FGA o SDR", sdr, network, cfg, daemon, scenario, seed, faults,
            max_steps=max_steps, backend=backend, probe=probe, churn=churn,
            terminal=True, extra_fn=fga_extra,
        )
    sim = Simulator(sdr, _make_daemon(daemon, network), config=cfg, seed=seed,
                    backend=backend, fuse=probe != "decode",
                    probes=_named_probes(probe, network.n))
    result = sim.run_to_termination(max_steps=max_steps)
    alliance = sdr.input.alliance(sim.cfg)
    extra: dict[str, Any] = {
        "alliance_size": len(alliance), "alliance": frozenset(alliance),
    }
    if adversary is not None:
        extra["adversary"] = _adversary_extra(
            sim.daemon, adversary, "FGA o SDR", sdr, cfg, sim.cfg,
            result.rounds, seed, network,
        )
    return Trial(
        algorithm="FGA o SDR",
        scenario=scenario,
        daemon=sim.daemon.name,
        seed=seed,
        n=network.n,
        m=network.m,
        diameter=network.diameter,
        max_degree=network.max_degree,
        rounds=result.rounds,
        moves=result.moves,
        steps=result.steps,
        metrics=collect_metrics(sim),
        extra=extra,
    )


#: One-entry memo of the last clean trial's network, as
#: ``((topology, n, topology_seed), network)``.
_cell_network: tuple[tuple, Network] | None = None


def _trial_network(spec: "TrialSpec", params: dict) -> Network:
    """The network ``spec`` runs on: the memoized cell's, or a fresh one."""
    global _cell_network
    if params.get("churn") is not None:
        # Churn mutates its network in place: never share it.
        return by_name(spec.topology, spec.n, seed=spec.topology_seed)
    key = (spec.topology, spec.n, spec.topology_seed)
    if _cell_network is None or _cell_network[0] != key:
        _cell_network = (key, by_name(spec.topology, spec.n, seed=spec.topology_seed))
    return _cell_network[1]


def run_trial(spec: "TrialSpec", seed: int | None = None) -> Trial:
    """Descriptor-driven entry point used by :mod:`repro.engine`.

    ``spec`` names the algorithm, topology family (built via
    :func:`repro.topology.by_name` with ``spec.topology_seed``), scenario,
    daemon, and any extra keyword params; ``seed`` is the trial's PRNG seed
    (the engine derives it from the campaign seed and the spec key; when
    omitted, the replicate index is used so bare specs stay runnable).

    Cell reuse: the last network built is kept, keyed by ``(topology, n,
    topology_seed)``, and handed to the next trial with the same key.
    :meth:`~repro.engine.Campaign.iter_specs` puts the replicate index
    innermost, so a cell's trials arrive back to back and the cell
    builds its network (and computes its diameter) once.  Trials with a
    ``churn`` param mutate their network, so they always get a fresh one
    and neither read nor replace the kept one.
    """
    params = spec.kwargs() if hasattr(spec, "kwargs") else dict(spec.params)
    network = _trial_network(spec, params)
    if seed is None:
        seed = spec.trial
    if spec.algorithm == "unison":
        return run_unison_trial(
            network, seed=seed, daemon=spec.daemon, scenario=spec.scenario, **params
        )
    if spec.algorithm == "boulinier":
        return run_boulinier_trial(
            network, seed=seed, daemon=spec.daemon, scenario=spec.scenario, **params
        )
    if spec.algorithm == "fga":
        instance = params.pop("instance", "dominating-set")
        f, g = instance_by_name(instance, network)
        return run_fga_trial(
            network, f, g, seed=seed, daemon=spec.daemon, scenario=spec.scenario,
            **params,
        )
    raise ValueError(
        f"unknown trial algorithm {spec.algorithm!r}; "
        "choose from 'unison', 'boulinier', 'fga'"
    )


# ----------------------------------------------------------------------
# Batched cells
# ----------------------------------------------------------------------
#: Algorithms the batched runner can tile.
_BATCH_ALGORITHMS = frozenset({"unison", "boulinier", "fga"})


def can_batch(spec: "TrialSpec") -> bool:
    """Whether a cell of replicates of ``spec`` can run as one batch.

    Requires a tileable kernel program for the algorithm, a daemon with
    an exact vector twin (every standard kind qualifies), and numpy —
    and no explicit ``backend=dict`` or ``probe=decode`` request:
    batching never changes results, but it *does* run on the array
    kernel with vectorized measurement, and a user who asked for the
    dict engine or the decoded measurement path (timing it, debugging
    it) must get it.  Named probe selections (``probe="accounting:100"``)
    do batch: every registered probe is vector-capable, and the batch
    runner attaches one instance per replicate.
    """
    if spec.algorithm not in _BATCH_ALGORITHMS:
        return False
    if spec.daemon not in DAEMON_KINDS:
        return False
    if str(spec.daemon).partition(":")[0] == "adversarial":
        # Search daemons have no vector twin (they *are* the scheduler,
        # driving the runtime through snapshots); adversary trials
        # always run serially.
        return False
    params = dict(spec.params)
    if params.get("backend") == "dict" or params.get("probe") == "decode":
        return False
    if params.get("adversary"):
        return False
    if params.get("churn"):
        # Topology churn mutates per-trial network state (CSR deltas,
        # liveness masks) that the tiled batch layout cannot isolate;
        # churn trials always run serially.
        return False
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def run_trial_batch(
    specs: Sequence["TrialSpec"],
    seeds: Sequence[int],
    probes: Sequence[Sequence] | None = None,
) -> list[Trial]:
    """Run one campaign cell's replicate trials as a single tiled batch.

    ``specs`` must share everything but the replicate index (one cell);
    ``seeds`` are the per-trial PRNG seeds in the same order.  Results
    are record-identical to ``[run_trial(spec, seed) for …]`` — each
    trial's daemon consumes its own seeded stream in serial order, and
    per-trial accounting freezes at the trial's own stopping step.
    ``probes`` (optional, one sequence of vector-tier probes per trial)
    is forwarded to :func:`repro.core.kernel.batch.run_batch`: each
    trial's probes observe its block of the tiled buffers inline.

    Raises :class:`~repro.core.exceptions.UnbatchableError` when the
    cell cannot be batched (callers fall back to serial trials).  When
    one replicate exhausts its step budget, the raised
    :class:`~repro.core.exceptions.NotStabilized` carries the
    stabilizing siblings' finished :class:`Trial` results in its
    ``partial`` attribute — callers land those instead of re-running
    the cell.
    """
    spec = specs[0]
    if any(s.cell_key() != spec.cell_key() for s in specs[1:]):
        raise ValueError("run_trial_batch requires specs from one grid cell")
    from ..core.kernel.batch import run_batch

    network = by_name(spec.topology, spec.n, seed=spec.topology_seed)
    params = spec.kwargs()
    # Execution options: batching implies the kernel backend with
    # vectorized measurement (can_batch routed explicit opt-outs away).
    params.pop("backend", None)
    probe_sel = params.pop("probe", "auto")
    if probe_sel == "decode":
        raise UnbatchableError(
            "probe='decode' requests per-step decoded measurement — "
            "cell cannot be batched"
        )
    if probe_sel != "auto":
        # A named probe selection: one instance per replicate (probes are
        # stateful), merged with any caller-provided per-trial probes.
        from ..probes.registry import make_probe

        named = [[make_probe(probe_sel, spec.n)] for _ in specs]
        if probes is None:
            probes = named
        else:
            probes = [
                list(existing) + named[t]
                for t, existing in enumerate(probes)
            ]
    daemons = [make_daemon(spec.daemon, network) for _ in specs]
    faults_spec = params.pop("faults", None)
    fault_sched = parse_schedule(faults_spec) if faults_spec is not None else None

    if spec.algorithm == "unison":
        sdr = SDR(Unison(network, period=params.pop("period", None)))
        max_steps = params.pop("max_steps", UNISON_MAX_STEPS)
        _reject_params(spec, params)
        cfgs = [_unison_start(sdr, spec.scenario, Random(seed)) for seed in seeds]
        program = _require_program(sdr)
        until = _batch_until("normal_mask")
        ok = lambda t, outcome: outcome.hit
        failure = f"predicate 'legitimate' not reached within {max_steps} steps"
        extra_fn = None
        bounds = None
        if fault_sched is not None:
            bounds, recoveries, wave_probes, probes = _batch_fault_kit(
                fault_sched, sdr, seeds, probes, mask_attr="normal_mask",
            )
            until = None
            ok = _batch_fault_ok(fault_sched, bounds, recoveries)
            failure = f"fault schedule not absorbed within {max_steps} steps"
            extra_fn = _batch_fault_extra(fault_sched, recoveries, wave_probes)
        result = run_batch(
            program, cfgs, daemons, [Random(seed) for seed in seeds], network,
            max_steps=max_steps,
            until=until,
            exclusion_name=sdr.name if sdr.mutually_exclusive_rules else None,
            probes=probes,
            faults=bounds,
        )
        return _batch_trials(
            "U o SDR", spec, seeds, network, daemons, result.outcomes,
            ok=ok, failure=failure, extra_fn=extra_fn,
        )

    if spec.algorithm == "boulinier":
        algo = BoulinierUnison(
            network,
            period=params.pop("period", None),
            alpha=params.pop("alpha", None),
        )
        max_steps = params.pop("max_steps", BOULINIER_MAX_STEPS)
        _reject_params(spec, params)
        cfgs = [
            _boulinier_start(algo, spec.scenario, Random(seed)) for seed in seeds
        ]
        program = _require_program(algo)
        extra = {"period": algo.period, "alpha": algo.alpha}
        until = _batch_until("legitimate_mask")
        ok = lambda t, outcome: outcome.hit
        failure = f"predicate 'legitimate' not reached within {max_steps} steps"
        extra_fn = lambda t: dict(extra)
        bounds = None
        if fault_sched is not None:
            bounds, recoveries, wave_probes, probes = _batch_fault_kit(
                fault_sched, algo, seeds, probes, mask_attr="legitimate_mask",
                waves=False,
            )
            until = None
            ok = _batch_fault_ok(fault_sched, bounds, recoveries)
            failure = f"fault schedule not absorbed within {max_steps} steps"
            extra_fn = _batch_fault_extra(
                fault_sched, recoveries, wave_probes, base_fn=extra_fn,
            )
        result = run_batch(
            program, cfgs, daemons, [Random(seed) for seed in seeds], network,
            max_steps=max_steps,
            until=until,
            exclusion_name=algo.name if algo.mutually_exclusive_rules else None,
            probes=probes,
            faults=bounds,
        )
        return _batch_trials(
            "boulinier", spec, seeds, network, daemons, result.outcomes,
            ok=ok, failure=failure, extra_fn=extra_fn,
        )

    if spec.algorithm == "fga":
        instance = params.pop("instance", "dominating-set")
        max_steps = params.pop("max_steps", FGA_MAX_STEPS)
        _reject_params(spec, params)
        f, g = instance_by_name(instance, network)
        sdr = SDR(FGA(network, f, g))
        cfgs = [_fga_start(sdr, spec.scenario, Random(seed)) for seed in seeds]
        program = _require_program(sdr)
        ok = lambda t, outcome: outcome.stop_reason == "terminal"
        failure = f"no terminal configuration within {max_steps} steps"
        bounds = None
        if fault_sched is not None:
            bounds, recoveries, wave_probes, probes = _batch_fault_kit(
                fault_sched, sdr, seeds, probes, terminal=True,
            )
            ok = _batch_fault_ok(fault_sched, bounds, recoveries)
            failure = f"fault schedule not absorbed within {max_steps} steps"
        result = run_batch(
            program, cfgs, daemons, [Random(seed) for seed in seeds], network,
            max_steps=max_steps,
            exclusion_name=sdr.name if sdr.mutually_exclusive_rules else None,
            probes=probes,
            faults=bounds,
        )

        def fga_extra(t: int) -> dict:
            alliance = sdr.input.alliance(result.configuration(t))
            return {"alliance_size": len(alliance),
                    "alliance": frozenset(alliance)}

        extra_fn = fga_extra
        if fault_sched is not None:
            extra_fn = _batch_fault_extra(
                fault_sched, recoveries, wave_probes, base_fn=fga_extra,
            )
        return _batch_trials(
            "FGA o SDR", spec, seeds, network, daemons, result.outcomes,
            ok=ok, failure=failure, extra_fn=extra_fn,
        )

    raise ValueError(f"algorithm {spec.algorithm!r} cannot run batched")


def _require_program(algorithm):
    program = algorithm.kernel_program()
    if program is None:
        raise UnbatchableError(
            f"{algorithm.name}: no kernel program — cell cannot be batched"
        )
    return program


def _reject_params(spec: "TrialSpec", params: dict) -> None:
    if params:
        # Unknown params fall back to serial execution, where they raise
        # the genuine TypeError (or get handled by a future runner).
        raise UnbatchableError(
            f"unexpected params {sorted(params)} for batched "
            f"{spec.algorithm!r} trials"
        )


def _batch_fault_kit(sched, algo, seeds, probes, *, mask_attr=None,
                     terminal=False, waves=True):
    """Per-trial fault bindings and probes for one batched cell.

    Bound schedules and probes are stateful, so every replicate gets a
    fresh binding (seeded by its own trial seed) and fresh probe
    instances, exactly as the serial path does.  Returns ``(bounds,
    recoveries, wave_probes, probes)`` with the fault probes prepended
    to any caller-provided per-trial probe lists (serial order:
    recovery, waves, then named selections).
    """
    bounds = [sched.bind(algo, default_seed=seed) for seed in seeds]
    recoveries, wave_probes, fault_lists = [], [], []
    for _ in seeds:
        recovery, wave = _fault_probes(
            sched.finite, sched.total_occurrences,
            mask_attr=mask_attr, terminal=terminal, waves=waves,
        )
        recoveries.append(recovery)
        wave_probes.append(wave)
        fault_lists.append([recovery] + ([wave] if wave is not None else []))
    if probes is None:
        merged = fault_lists
    else:
        merged = [
            fault_lists[t] + list(existing) for t, existing in enumerate(probes)
        ]
    return bounds, recoveries, wave_probes, merged


def _batch_fault_ok(sched, bounds, recoveries):
    """Success notion for fault cells — mirrors :func:`_require_recovered`."""

    def ok(t, outcome) -> bool:
        if not sched.finite or recoveries[t].all_recovered:
            return True
        return outcome.stop_reason == "terminal" and bounds[t].exhausted

    return ok


def _batch_fault_extra(sched, recoveries, wave_probes, base_fn=None):
    def extra(t: int) -> dict:
        out = dict(base_fn(t)) if base_fn is not None else {}
        out["faults"] = sched.canonical()
        out["recovery"] = recoveries[t].summary()
        if wave_probes[t] is not None:
            out["sdr_waves"] = wave_probes[t].summary()
        return out

    return extra


def _batch_until(mask_attr: str):
    """A per-process freeze mask resolved through the probe protocol.

    Resolution happens against the *tiled* program at first evaluation;
    a program lacking the expected mask makes the cell unbatchable (the
    caller then falls back to serial trials, whose decode-tier probes
    need no mask).
    """

    def until(prog, cols):
        mask_fn = resolve_mask(prog, mask_attr)
        if mask_fn is None:
            raise UnbatchableError(
                f"kernel program {type(prog).__name__} provides no "
                f"{mask_attr} — cell cannot be batched"
            )
        return mask_fn(cols)

    return until


def _batch_trials(
    algorithm: str,
    spec: "TrialSpec",
    seeds: Sequence[int],
    network: Network,
    daemons: Sequence[Daemon],
    outcomes,
    *,
    ok,
    failure: str,
    extra_fn=None,
) -> list[Trial]:
    """Per-trial records of one batch; partial results ride the failure.

    Builds a :class:`Trial` for every outcome satisfying ``ok``.  When
    all do, returns them in trial order; otherwise raises
    :class:`~repro.core.exceptions.NotStabilized` with the finished
    trials attached as ``partial`` ``(index, Trial)`` pairs, so callers
    can land the stabilizing siblings without re-running the cell.
    """
    finished: list[tuple[int, Trial]] = []
    first_bad = None
    for t, (seed, daemon, outcome) in enumerate(zip(seeds, daemons, outcomes)):
        if ok(t, outcome):
            finished.append((t, _batch_trial(
                algorithm, spec, seed, network, daemon, outcome,
                extra=extra_fn(t) if extra_fn is not None else None,
            )))
        elif first_bad is None:
            first_bad = outcome
    if first_bad is not None:
        raise NotStabilized(failure, steps=first_bad.steps, partial=finished)
    return [trial for _, trial in finished]


def _batch_trial(
    algorithm: str,
    spec: "TrialSpec",
    seed: int,
    network: Network,
    daemon: Daemon,
    outcome,
    extra: dict | None = None,
) -> Trial:
    return Trial(
        algorithm=algorithm,
        scenario=spec.scenario,
        daemon=daemon.name,
        seed=seed,
        n=network.n,
        m=network.m,
        diameter=network.diameter,
        max_degree=network.max_degree,
        rounds=outcome.rounds,
        moves=outcome.moves,
        steps=outcome.steps,
        metrics=RunMetrics(
            steps=outcome.steps,
            moves=outcome.moves,
            rounds=outcome.rounds,
            moves_per_process=outcome.moves_per_process,
            moves_per_rule=outcome.moves_per_rule,
        ),
        extra=extra if extra is not None else {},
    )


def sweep(
    trial_fn: Callable[..., Trial],
    networks: list[Network],
    seeds: range | list[int],
    **kwargs,
) -> list[Trial]:
    """Run ``trial_fn`` over the (network × seed) grid."""
    trials = []
    for network in networks:
        for seed in seeds:
            trials.append(trial_fn(network, seed=seed, **kwargs))
    return trials
