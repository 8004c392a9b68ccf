"""Bounded argparse ``type=`` converters every subcommand shares.

A value out of range is an ``error: argument --x: ...`` line and exit
code 2 from argparse itself, never a traceback from deeper down.
"""

from __future__ import annotations

import argparse
import math


def int_at_least(minimum: int):
    """An argparse ``type=`` accepting integers no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, not {value}"
            )
        return value

    return integer


def float_at_least(minimum: float):
    """An argparse ``type=`` accepting finite floats no smaller than
    ``minimum`` (``nan`` and ``inf`` parse as floats but name no case)."""

    def number(text: str) -> float:
        value = float(text)
        if not minimum <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite number of at least {minimum:g}, not {text}"
            )
        return value

    return number


def probability(text: str) -> float:
    """An argparse ``type=`` accepting a probability: a number in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], not {text}"
        )
    return value
