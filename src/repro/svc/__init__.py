"""repro.svc — service-scale workloads and the adversarial generator.

Three pieces, layered on the existing runtime/obs/experiments stack:

* :mod:`repro.svc.traffic` — deterministic Zipfian key skew and bursty
  open-loop arrival schedules (the statistics of service traffic).
* :mod:`repro.svc.kvstore` — the transactional KV/OLTP workload family
  (``svc-kv`` / ``svc-kv-read`` / ``svc-oltp`` in the workload
  table), whose requests queue behind the scheduler via the
  :class:`~repro.cpu.isa.Arrive` op.
* :mod:`repro.svc.adversary` — seeded mutate-and-score search over
  access-pattern genomes; survivors serialize as regression workloads
  (``svc-survivor:<path>`` workload names).
* :mod:`repro.svc.latency` — the tail-latency artifact
  (``python -m repro svc``): per-backend commit-latency and queue-wait
  quantiles from the obs histograms, run through the sweep engine.

Import is lazy everywhere it matters: the workload table maps svc names to
modules, so nothing here loads unless an svc workload is actually used.
"""

from .kvstore import KVStoreWorkload, kv_read_workload, kv_workload, \
    oltp_workload
from .traffic import BurstyArrivals, ZipfianSampler

__all__ = [
    "BurstyArrivals",
    "KVStoreWorkload",
    "ZipfianSampler",
    "kv_read_workload",
    "kv_workload",
    "oltp_workload",
]
