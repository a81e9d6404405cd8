#!/usr/bin/env python3
"""Domain example: speculatively parallelising a log-processing pipeline.

A realistic shape for HMTX's target programs: a loop over variable-length
log records that (a) chases a pointer to find the next record, (b) parses
and aggregates each record against a shared lookup table, and (c) appends
to an output journal *in order*.  Dependences (a) and (c) prevent DOALL;
HMTX's multithreaded transactions let a PS-DSWP pipeline run the parsing
stage in parallel while speculation validates every access.

The example defines the workload against the public `Workload` API, then
compares Sequential, DOACROSS, PS-DSWP/HMTX and the SMTX baseline.

Run:  python examples/log_pipeline.py
"""

from repro.cpu.isa import Branch, Load, Store, Work
from repro.runtime import run_workload
from repro.smtx import ValidationMode, run_smtx
from repro.workloads import Lcg, Region
from repro.workloads.pipeline import PipelinedBenchmark


class LogPipelineWorkload(PipelinedBenchmark):
    """Parse one log record per iteration; journal results in order."""

    name = "log-pipeline"
    stage1_work = 250            # record framing / length decoding
    epilogue_work = 900          # ordered journal append
    branch_pct = 0.15

    def __init__(self, records: int = 48, fields_per_record: int = 12):
        super().__init__(iterations=records)
        self.fields = fields_per_record
        self.records_region = Region(0x700_0000, records * 2 * 64)
        self.severity_table = Region(0x710_0000, 16 * 64)
        self.journal = Region(0x720_0000, records * 64)

    def setup_domain(self, memory) -> None:
        rng = Lcg(0x106)
        for i in range(self.records_region.size // 8):
            memory.write_word(self.records_region.base + 8 * i, rng.next(97))
        for i in range(self.severity_table.size // 8):
            memory.write_word(self.severity_table.base + 8 * i, (i * 11) % 5)

    def _record(self, i: int) -> int:
        return self.records_region.base + i * 2 * 64

    def work_body(self, i, element):
        rng = Lcg(0x106_00 + i)
        record = self._record(i)
        severity_words = self.severity_table.size // 8
        digest = element
        for f in range(self.fields):
            token = yield Load(record + 8 * (f % 16))
            severity = yield Load(self.severity_table.base +
                                  8 * ((token + f) % severity_words))
            yield Branch(taken=(token & 1) == 0,
                         wrong_path_loads=(self.result_slot(i - 1),) if i else ())
            digest = (digest * 131 + token + severity) & 0xFFFFFFFF
            yield Work(4)
        return digest

    def stage2_epilogue(self, i):
        # Ordered journal append: must happen in record order.
        digest = yield Load(self.result_slot(i))
        yield Store(self.journal.line(i), digest)
        yield from super().stage2_epilogue(i)

    def golden(self, i):
        rng_data = Lcg(0x106)
        words = self.records_region.size // 8
        data = [rng_data.next(97) for _ in range(words)]
        severity_words = self.severity_table.size // 8
        base = i * 16
        digest = self.element_payload(i)
        for f in range(self.fields):
            token = data[base + (f % 16)]
            severity = (((token + f) % severity_words) * 11) % 5
            digest = (digest * 131 + token + severity) & 0xFFFFFFFF
        return digest

    def smtx_shared_regions(self):
        return super().smtx_shared_regions() + [
            self.records_region.span(), self.journal.span()]


def main():
    print("=== Log-processing pipeline: paradigm comparison ===\n")
    runs = {}
    baseline = None
    for label, runner in [
        ("Sequential",
         lambda w: run_workload(w, paradigm="Sequential")),
        ("DOACROSS (4 threads)",
         lambda w: run_workload(w, paradigm="DOACROSS")),
        ("PS-DSWP on HMTX (max validation)",
         lambda w: run_workload(w, paradigm="PS-DSWP")),
        ("PS-DSWP on SMTX (minimal sets)",
         lambda w: run_smtx(w, mode=ValidationMode.MINIMAL)),
        ("PS-DSWP on SMTX (maximal sets)",
         lambda w: run_smtx(w, mode=ValidationMode.MAXIMAL)),
    ]:
        workload = LogPipelineWorkload()
        result = runner(workload)
        ok = workload.observed_result(result.system) == \
            workload.expected_result(result.system)
        runs[label] = result
        if baseline is None:
            baseline = result.cycles
        print(f"{label:36s} {result.cycles:>9,} cycles   "
              f"speedup {baseline / result.cycles:4.2f}x   "
              f"{'results match sequential' if ok else '*** WRONG RESULT ***'}")

    hmtx = runs["PS-DSWP on HMTX (max validation)"].system.stats
    print(f"\nHMTX validated {hmtx.spec_loads + hmtx.spec_stores:,} speculative"
          f" accesses across {hmtx.committed} transactions "
          f"({hmtx.avg_combined_set_kb:.1f} kB avg R/W set) "
          f"with {hmtx.aborted} aborts.")
    print("Even validating *every* access, HMTX beats the software baseline "
          "that validates almost nothing.")


if __name__ == "__main__":
    main()
