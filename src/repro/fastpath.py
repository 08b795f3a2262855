"""There is one implementation of every behaviour; this constant only
feeds the host fingerprint that ``benchmarks/spine/run.py`` records.
The stepwise reference bodies live in ``tests/reference_paths.py``."""

ENABLED = True
