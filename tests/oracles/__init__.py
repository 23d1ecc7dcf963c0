"""Parity references: slow, readable implementations that production fast
paths are tested against."""
