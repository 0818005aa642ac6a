"""End-to-end campaign benchmark with per-layer attribution.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) in fresh interpreters
and prints its metrics; ``BENCHMARK.json`` at the repository root lists
the workloads and metrics, and ``python -m pytest perfbench -q`` tests the
benchmark itself.

Which end-to-end metric each per-layer metric should move, and where:

======================================================  =====================================================
layer metrics                                           should move
======================================================  =====================================================
``topology.build_s``, ``graph.diameter_s``,             ``trials_per_s`` on unison-rings-serial;
``graph.diameter_misses``, ``ir.compile_s``,            ~0 on fga-dense-batched
``ir.compiles``, ``simulator.init_self_s``,
``harness.trial_self_s`` and their ``*_wall_share``
``kernel.run_s``, ``kernel.steps``,                     ``trials_per_s`` on fga-dense-batched and
``kernel.steps_per_s``, ``kernel.{guard,apply,``        central-large-ring
``daemon,rounds}_share``, ``kernel.run_wall_share``
``kernel.active_frac`` (moves / (steps * n))            ``trials_per_s`` on central-large-ring (1/n there)
``kernel.batch_lane_util``, ``kernel.compact_share``    ``trials_per_s`` on fga-dense-batched
``faults.bind_s``, ``faults.occurrences``,              ``trials_per_s`` on recovery-pooled
``kernel.probe_share``
``store.append_s``, ``store.appends``,                  ``trials_per_s`` on recovery-pooled and
``store.bytes``, ``store.append_wall_share``            unison-rings-serial
``pool.wait_s``, ``pool.units``, ``pool.batch_units``,  ``trials_per_s`` on recovery-pooled
``pool.fallbacks``, ``pool.worker_units``
``setup.import_s``                                      ``setup_s`` on every workload
``tracing.overhead`` (1 - traced / untraced trials/s)   none: it says how far the layer numbers can be trusted
======================================================  =====================================================
"""
