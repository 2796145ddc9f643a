"""Seeded benchmark for geokit; run it with ``python3 perfbench/run.py``."""
