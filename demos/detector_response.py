"""An energy-scaled detector inside the diamond clicks thermally.

A static detector whose energy gap is rescaled by 1/cosh^2(a eta / 2) has
the same correlation function as a uniformly accelerated one, so its
response satisfies detailed balance at T = a / 2 pi.  This script verifies
the correlation-function identity pointwise, then computes response rates
with a long Gaussian switching window and fits the temperature.

Run:  python3 demos/detector_response.py
"""

import math

import numpy as np

from diamondfield import expected_rate, identity_residual, response_rate, response_rates
from diamondfield.detector import fit_temperature

ENERGIES = np.array([0.25, 0.5, 1.0, 1.5, 2.0])


def main():
    res = identity_residual(np.linspace(-3.0, 3.0, 20))
    print("correlation identity: scaled static worldline vs accelerated one")
    print(f"  max relative residual over a 20 x 20 grid: {res:.2e}")
    print()

    print("response rates (per unit scaled time, window T = 80/a):")
    print(f"{'E':>6} {'rate(+E)':>13} {'rate(-E)':>13} {'balance':>12} {'e^-2piE':>12}")
    rates = []
    # the rates at +E and -E of each energy, from one integral
    for E, (up, dn) in zip(ENERGIES, response_rates(ENERGIES)):
        rates.append([up.value, dn.value])
        print(
            f"{E:6.2f} {up.value:13.5e} {dn.value:13.5e} "
            f"{up.value / dn.value:12.5e} {math.exp(-2.0 * math.pi * E):12.5e}"
        )
    print()
    print("the excitation/de-excitation ratio follows the Boltzmann factor;")
    print(f"pointwise the rates track the eternal-window thermal curve,")
    print(f"e.g. at E = 1: {response_rate(1.0).value:.5e} vs {expected_rate(1.0):.5e}")
    print()

    T = fit_temperature(ENERGIES, rates)
    print(f"fitted temperature from the balance ratios: T = {T:.6f}")
    print(f"diamond temperature a / (2 pi)              = {1.0 / (2.0 * math.pi):.6f}")


if __name__ == "__main__":
    main()
