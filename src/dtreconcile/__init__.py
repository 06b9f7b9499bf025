"""Dynamic temporal reconciliation.

Revise a low-frequency (monthly) forecast from a stream of
high-frequency (daily) actuals with a tabular TD agent, alongside
classical linear reconciliation baselines and a metric harness.
"""

__version__ = "0.1.0"
