#!/usr/bin/env python3
"""Key rate versus channel transmission for three source configurations.

Reproduces the qualitative picture at eta_A = 60%: weak coherent pulses win
at high transmission but lose security early; a 3-stage multiplexed herald
wins in between; only binary heralding survives at the lowest transmissions.
Emits a CSV (three key-rate columns per transmission) to stdout.
"""

import numpy as np

from heralded_qkd import (
    BB84,
    MultiplexedDetectorParams,
    multiplexed_response,
    scan_key_rate,
    tmin_heralded,
    tmin_numerical,
    tmin_single_photon,
    tmin_wcp,
    wcp_response,
)

DARK_B = 1e-5
sources = {
    "wcp": wcp_response(),
    "binary": multiplexed_response(
        MultiplexedDetectorParams(stages=0, eta_a=0.6, dark_a=1e-6)
    ),
    "mux_n3": multiplexed_response(
        MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98)
    ),
}

# 10.0 ** x with libm's pow, as the package builds its grids: np.logspace's
# power follows the CPU's SIMD code, so its last bits can differ by machine
t_grid = [10.0**x for x in np.linspace(-5, -1, 40)]
scans = {
    name: scan_key_rate(BB84, r, DARK_B, t_grid) for name, r in sources.items()
}

print(f"# ideal-source floor T_min1 = {tmin_single_photon(BB84, DARK_B):.4e}")
print("# minimum transmission: closed form, numerical")
for name, r in sources.items():
    closed = tmin_wcp(BB84, DARK_B)[0] if name == "wcp" else tmin_heralded(BB84, r, DARK_B)
    print(f"# {name}: {closed:.4e}, {tmin_numerical(BB84, r, DARK_B):.4e}")

print("T," + ",".join(f"K_{name}" for name in sources))
for i, t in enumerate(t_grid):
    cells = [f"{t:.6e}"]
    for name in sources:
        res = scans[name].points[i][1]
        secure = res.report is not None and res.report.secure
        cells.append(f"{res.report.key_rate:.6e}" if secure else "0")
    print(",".join(cells))
