"""Test-only executable specs of engines retired from ``src/``."""
