"""Removed: the whole-array NumPy backend for injector-free runs.

The backend only ever accelerated runs with no fault injector attached,
and a campaign makes one such run (its golden run) against thousands
of injected trials.  Measured on the Table 1, fault-model matrix and
recovery workloads, injector-free runs took 0%, 5.3% and 4.0% of wall
time, the backend committed no vector run on any of them, and every
cold golden run still paid for a timed profitability probe.  The
compiled scalar kernel (:mod:`repro.runtime.compile`) is the only
compiled path; its results were always the authoritative ones.

The empty package stays importable for the benchmark harness, which
imports it up front.
"""
