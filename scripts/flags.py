"""Argument types shared by the experiment scripts."""

import argparse


def at_least_1(text: str) -> int:
    """An int >= 1, the CLI's floor; anything else is an error that argparse reports against the flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value
