"""Parallel compilation service: worker pool, crash isolation,
aggregated observability.

Public surface::

    from repro.service import CompileService, CompileJob

    with CompileService(jobs=8, timeout=30.0) as service:
        batch = service.compile_batch([
            CompileJob(job_id="fir.m", source=src,
                       args=["double:1x256", "double:1x16"]),
            ...
        ])
    assert batch.ok
    batch.write_report("batch.json")
"""

from repro.service.jobs import (CompileJob, JobResult, JOB_STATUSES,
                                next_job_id)
from repro.service.pool import CompileService
from repro.service.report import BATCH_SCHEMA, BatchResult

__all__ = [
    "BATCH_SCHEMA",
    "BatchResult",
    "CompileJob",
    "CompileService",
    "JOB_STATUSES",
    "JobResult",
    "next_job_id",
]
