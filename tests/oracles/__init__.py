"""Executable reference implementations kept for differential tests."""
