"""Tests for the CACTI/McPAT-style area, power, and energy model."""

import pytest

from repro.core import MachineConfig
from repro.experiments.engine import RunRequest, run_request, snapshot
from repro.power import (
    McPatModel,
    RunProfile,
    TechnologyNode,
    cache_arrays,
    sram_array,
)


class TestSramModel:
    def test_zero_bits(self):
        est = sram_array(0, fast=True)
        assert est.area_mm2 == 0.0

    def test_area_scales_with_bits(self):
        small = sram_array(1 << 20, fast=False)
        large = sram_array(1 << 24, fast=False)
        assert large.area_mm2 == pytest.approx(16 * small.area_mm2)

    def test_fast_arrays_are_larger(self):
        bits = 1 << 20
        assert sram_array(bits, fast=True).area_mm2 \
            > sram_array(bits, fast=False).area_mm2

    def test_energy_grows_sublinearly(self):
        small = sram_array(1 << 20, fast=True)
        large = sram_array(1 << 26, fast=True)
        assert large.read_energy_nj < 64 * small.read_energy_nj

    def test_estimates_add(self):
        a = sram_array(1 << 20, fast=True)
        total = a + a
        assert total.bits == 2 * a.bits
        assert total.area_mm2 == pytest.approx(2 * a.area_mm2)


class TestCacheArrays:
    def test_extension_bits_add_area(self):
        base = cache_arrays(64 * 1024, 8, 64, fast=True)
        ext = cache_arrays(64 * 1024, 8, 64, fast=True, extra_state_bits=12)
        assert ext.area_mm2 > base.area_mm2

    def test_vid_bits_area_is_small_fraction(self):
        """Section 6.4: the 12 extra bits are a few percent of the cache."""
        base = cache_arrays(32 * 1024 * 1024, 32, 64, fast=False)
        ext = cache_arrays(32 * 1024 * 1024, 32, 64, fast=False,
                           extra_state_bits=12)
        delta = ext.area_mm2 - base.area_mm2
        assert delta / base.area_mm2 < 0.10


class TestMcPatCalibration:
    """The Table 3 anchor points."""

    def test_commodity_area(self):
        assert McPatModel().total_area() == pytest.approx(107.1, abs=0.5)

    def test_hmtx_area(self):
        model = McPatModel(hmtx_extensions=True)
        assert model.total_area() == pytest.approx(111.1, abs=0.5)

    def test_extension_delta_about_4mm2(self):
        delta = McPatModel(hmtx_extensions=True).total_area() \
            - McPatModel().total_area()
        assert delta == pytest.approx(4.0, abs=0.5)

    def test_commodity_leakage(self):
        assert McPatModel().leakage() == pytest.approx(5.515, abs=0.05)

    def test_hmtx_leakage(self):
        assert McPatModel(hmtx_extensions=True).leakage() \
            == pytest.approx(5.607, abs=0.05)

    def test_extension_area_reported_separately(self):
        breakdown = McPatModel(hmtx_extensions=True).area()
        assert breakdown.hmtx_extensions > 3.0
        assert breakdown.cores > 0 and breakdown.l2_cache > 0

    def test_vid_width_drives_extension_area(self):
        narrow = McPatModel(MachineConfig(vid_bits=2), hmtx_extensions=True)
        wide = McPatModel(MachineConfig(vid_bits=10), hmtx_extensions=True)
        assert wide.total_area() > narrow.total_area()


class TestDynamicPower:
    def test_one_busy_core_sequential_ballpark(self):
        """Table 3: sequential geomean dynamic ~3.6 W."""
        model = McPatModel()
        profile = RunProfile(cycles=1_000_000, busy_fractions={0: 1.0},
                             l1_accesses=200_000, l2_accesses=10_000)
        assert 3.0 < model.dynamic_power(profile) < 4.2

    def test_four_busy_cores_parallel_ballpark(self):
        """Table 3: SMTX/HMTX geomean dynamic ~13.7-14.5 W."""
        model = McPatModel(hmtx_extensions=True)
        profile = RunProfile(cycles=1_000_000,
                             busy_fractions={i: 1.0 for i in range(4)},
                             l1_accesses=800_000, l2_accesses=40_000)
        assert 12.0 < model.dynamic_power(profile) < 16.0

    def test_hmtx_hardware_adds_small_overhead(self):
        """Running the same software on HMTX hardware costs ~1% more —
        the paper's 'low impact of HMTX extensions' result."""
        profile = RunProfile(cycles=1_000_000, busy_fractions={0: 1.0},
                             l1_accesses=100_000)
        plain = McPatModel().dynamic_power(profile)
        extended = McPatModel(hmtx_extensions=True).dynamic_power(profile)
        assert plain < extended < plain * 1.03

    def test_zero_cycles(self):
        assert McPatModel().dynamic_power(RunProfile(cycles=0)) == 0.0

    def test_energy_combines_leakage_and_dynamic(self):
        model = McPatModel()
        profile = RunProfile(cycles=2_000_000, busy_fractions={0: 1.0})
        report = model.report("x", profile)
        assert report.energy_j == pytest.approx(
            (report.leakage_w + report.dynamic_w) * report.seconds)


def run_record(system):
    """The plain-data record of one small contended-list run."""
    request = RunRequest(workload="contended-list", system=system,
                         scale=0.25)
    workload, result = run_request(request)
    return snapshot(request, workload, result, wall_seconds=0.0)


class TestProfileExtraction:
    def test_sequential_profile_one_core(self):
        profile = run_record("sequential").power_profile()
        assert sum(profile.busy_fractions.values()) == pytest.approx(1.0)
        assert profile.l1_accesses > 0 and profile.l2_accesses > 0

    def test_parallel_profile_many_cores(self):
        profile = run_record("hmtx").power_profile(hmtx_active=True)
        assert len(profile.busy_fractions) == 4
        assert all(0 < busy <= 1 for busy in profile.busy_fractions.values())
        assert profile.hmtx_active

    def test_commit_process_adds_busy_core(self):
        record = run_record("smtx-minimal")
        with_commit = record.power_profile(commit_process=True)
        plain = record.power_profile()
        assert len(with_commit.busy_fractions) == len(plain.busy_fractions) + 1
        assert with_commit.busy_fractions["commit"] == pytest.approx(
            record.commit_process_cycles / record.cycles)


class TestEnergyStory:
    def test_hmtx_energy_beats_smtx(self):
        """Table 3's headline: HMTX finishes sooner, so despite higher
        power it uses less energy than SMTX."""
        model = McPatModel(hmtx_extensions=True)
        hmtx = model.report("hmtx", RunProfile(
            cycles=500_000, busy_fractions={i: 1.0 for i in range(4)}))
        smtx = model.report("smtx", RunProfile(
            cycles=900_000, busy_fractions={i: 1.0 for i in range(4)}))
        assert hmtx.energy_j < smtx.energy_j
