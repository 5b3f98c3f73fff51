"""Workload generators.

The paper evaluates on the Snowflake production dataset, Wikipedia text,
and Sintel 4K video — none of which ship offline — so this package
provides calibrated synthetic equivalents (see DESIGN.md §2 for the
substitution rationale):

* :mod:`repro.workloads.snowflake` — bursty multi-stage analytics jobs
  with heavy-tailed intermediate data sizes;
* :mod:`repro.workloads.zipf` — skewed key sampling for KV workloads;
* :mod:`repro.workloads.text` — Zipf-vocabulary sentences (word count);
* :mod:`repro.workloads.video` — ExCamera-style frame/chunk workload;
* :mod:`repro.workloads.dag` — random layered execution DAGs.
"""

from repro.workloads.snowflake import (
    JobTrace,
    Stage,
    SnowflakeWorkloadGenerator,
    demand_series,
)
from repro.workloads.zipf import ZipfKeySampler
from repro.workloads.text import SyntheticTextGenerator
from repro.workloads.video import VideoWorkload
from repro.workloads.dag import layered_dag, linear_dag, map_reduce_dag

__all__ = [
    "JobTrace",
    "Stage",
    "SnowflakeWorkloadGenerator",
    "demand_series",
    "ZipfKeySampler",
    "SyntheticTextGenerator",
    "VideoWorkload",
    "layered_dag",
    "linear_dag",
    "map_reduce_dag",
]
