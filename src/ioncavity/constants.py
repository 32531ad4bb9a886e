"""Physical constants and unit helpers.

All frequencies inside the package are angular frequencies in rad/s.
Configuration files and CLI output use ordinary frequencies (Hz, MHz)
with unit-suffixed key names; conversion happens at the boundary.
"""

import math

SPEED_OF_LIGHT = 299_792_458.0  # m/s

TWO_PI = 2.0 * math.pi

# Bohr magneton as a Zeeman shift coefficient: angular frequency per gauss.
BOHR_MAGNETON_RAD_PER_S_PER_GAUSS = TWO_PI * 1.3996245e6


def mhz(value):
    """Angular frequency (rad/s) from a value in MHz."""
    return TWO_PI * 1e6 * value


def to_mhz(omega):
    """Value in MHz from an angular frequency (rad/s)."""
    return omega / (TWO_PI * 1e6)
