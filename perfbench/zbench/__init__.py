"""Benchmark for zncert: workloads, tracing and result formatting.

Each workload module (certify, recover, scan, desk) exposes the same
small interface that ``core.run_workload`` drives; see ``core.Workload``.
"""
