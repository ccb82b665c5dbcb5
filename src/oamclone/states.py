"""The six reference states of the OAM qubit, by name.

Plain Python numbers, so that the CLI checks a state name without importing numpy."""

import math

# the six states measured in the universality test, as (alpha, beta) on (+2, -2)
SIX_STATE_AMPLITUDES = {
    "h": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "v": (1 / (1j * math.sqrt(2)), -1 / (1j * math.sqrt(2))),
    "minus2": (0.0, 1.0),
    "plus2": (1.0, 0.0),
    "a": ((1 - 1j) / 2, (1 + 1j) / 2),
    "d": ((1 + 1j) / 2, (1 - 1j) / 2),
}
STATE_NAMES = tuple(SIX_STATE_AMPLITUDES)
