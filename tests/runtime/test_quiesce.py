"""The section 4.6 reset-scrub quiesce: a machine-wide barrier.

On a multi-socket machine the VID-reset scrub stalls *every* core while
tags are cleared across the sliced LLC — the resetting thread pays a
1-cycle issue slot and the scheduler's ``quiesce_all`` charges the scrub
to the whole machine.  Flat machines keep the original model (the
broadcast latency lands on the caller alone), bit-identically.
"""

import dataclasses

from repro.core.config import MachineConfig
from repro.core.system import HMTXSystem
from repro.cpu.isa import Work
from repro.experiments.engine import RunRequest, SweepEngine
from repro.runtime.scheduler import Scheduler
from repro.topology import topology_preset


def multi_socket_config(**topo_changes):
    topo = dataclasses.replace(topology_preset("2s8c"), **topo_changes)
    return MachineConfig.for_topology(topo)


class TestQuiesceCallback:
    def test_scheduler_installs_the_callback(self):
        system = HMTXSystem(multi_socket_config())
        assert system.quiesce_cb is None
        scheduler = Scheduler(system)
        assert system.quiesce_cb is not None
        system.quiesce_cb(7)  # routes into scheduler.quiesce_all
        del scheduler

    def test_multi_socket_reset_stalls_every_thread(self):
        system = HMTXSystem(multi_socket_config())
        scheduler = Scheduler(system)
        for tid in range(3):
            scheduler.add_thread(tid, core=tid, program=iter(()))
        scrub = system.hierarchy.vid_reset()
        assert scrub > 1
        issue = system.vid_reset()
        assert issue == 1  # nominal issue slot; scrub went machine-wide
        assert all(thread.clock == scrub for thread in scheduler.threads)
        assert all(clock == scrub
                   for clock in scheduler._core_clock.values())

    def test_op_after_an_in_generator_reset_starts_after_the_barrier(self):
        # The thread is ahead of its core when its generator runs the
        # reset; the op it then yields starts at its own advanced clock.
        system = HMTXSystem(multi_socket_config())
        scheduler = Scheduler(system)

        def program():
            yield Work(system.vid_reset())

        thread = scheduler.add_thread(0, core=0, program=program(),
                                      start_clock=5)
        scheduler.run()
        scrub = system.hierarchy.vid_reset()
        assert thread.clock == 5 + scrub + system.config.op_costs.work_unit

    def test_scrub_scale_multiplies_the_barrier(self):
        base = HMTXSystem(multi_socket_config())
        scaled = HMTXSystem(multi_socket_config(scrub_scale=2.0))
        assert scaled.hierarchy.vid_reset() \
            == 2 * base.hierarchy.vid_reset()

    def test_flat_machine_charges_the_caller_only(self):
        system = HMTXSystem(MachineConfig())
        scheduler = Scheduler(system)
        scheduler.add_thread(0, core=0, program=iter(()))
        latency = system.vid_reset()
        assert latency == system.hierarchy.vid_reset()
        assert latency > 1
        assert scheduler.threads[0].clock == 0

    def test_reset_without_scheduler_pays_on_the_caller(self):
        # Protocol-level users (model checker, unit tests) never attach
        # a scheduler; they get the full latency back as before.
        system = HMTXSystem(multi_socket_config())
        latency = system.vid_reset()
        assert latency == system.hierarchy.vid_reset()


class TestEndToEnd:
    def test_costlier_scrub_slows_a_closed_loop_run(self):
        engine = SweepEngine()
        cycles = {}
        for scrub in (1.0, 2.0):
            machine = dataclasses.replace(
                multi_socket_config(scrub_scale=scrub), vid_bits=4)
            (record,) = engine.run([RunRequest(
                workload="contended-list", system="hmtx",
                machine=machine, observe=True)])
            assert record.obs_digest["vid_resets"] >= 1
            cycles[scrub] = record.cycles
        assert cycles[2.0] > cycles[1.0]

    def test_flat_reference_runs_are_unchanged(self):
        # The quiesce path must not perturb the flat Table 2 model the
        # rest of the suite pins.
        engine = SweepEngine()
        (record,) = engine.run([RunRequest(
            workload="contended-list", system="hmtx", scale=0.5)])
        assert record.obs_digest is None
        assert record.cycles > 0
