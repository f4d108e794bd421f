"""Seeded simulator of CHSH Bell tests through a disordered multimode channel."""

__version__ = "0.1.0"
