"""The benchmark's workloads by name."""

from . import certify, desk, recover, scan

WORKLOADS = {w.NAME: w for w in (certify, recover, scan, desk)}
