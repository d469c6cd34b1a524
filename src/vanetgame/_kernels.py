"""Name of the slot simulator's kernel, for callers that record it.

The simulator has one kernel, the numpy one in `slotsim`.
"""


def default_backend() -> str:
    return "numpy"
