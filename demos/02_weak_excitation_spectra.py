"""Incoherent atomic spectra at weak excitation and their three limits.

At the foot of the lower branch the collective polarization fluctuations
produce a normalized spectrum with a universal shape set only by (C, xi):

  * xi >> 2C   -- a squared Lorentzian of collectively enhanced width 1+2C
  * xi << 2C   -- a spectral hole burnt into the line center
  * (xi+1) << 2 sqrt(2 C xi) -- a vacuum Rabi doublet of squared Lorentzians

The same numbers also come out of the stationary covariance plus the drift
resolvent, with no closed form in sight; the script cross-checks the two
routes before scanning the limits.

Run:  python demos/02_weak_excitation_spectra.py
"""

import pathlib

import numpy as np

from optbistab.output import write_csv
from optbistab.params import SystemParams
from optbistab.spectra import spectrum_closed_form, spectrum_numeric

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

base = SystemParams(C=5.0, xi=1.0, N=10**4)
grid = np.linspace(-30.0, 30.0, 1201)

num = spectrum_numeric(base, 0.01, "atomic", grid)
ref = spectrum_closed_form("weak-closed", base, y_grid=grid)
print("numeric resolvent vs weak closed form at C=5, xi=1:")
print(f"  max |difference| = {np.abs(num.values - ref.values).max():.2e} "
      f"(peak {ref.values.max():.3f})")

cases = [
    ("bad cavity", SystemParams(C=5.0, xi=500.0, N=10), "bad-cavity",
     np.linspace(-33.0, 33.0, 1321)),
    ("good cavity", SystemParams(C=5.0, xi=0.01, N=10), "good-cavity",
     np.linspace(-0.04, 0.04, 801)),
    ("collective strong coupling", SystemParams(C=200.0, xi=1.0, N=10),
     "strong-coupling", np.linspace(-40.0, 40.0, 1601)),
]
for label, p, variant, ys in cases:
    full = spectrum_closed_form("weak-closed", p, y_grid=ys)
    limit = spectrum_closed_form(variant, p, y_grid=ys)
    gap = np.abs(full.values - limit.values)
    print(f"\n{label} (C={p.C:g}, xi={p.xi:g}):")
    if limit.validity_window:
        lo, hi = limit.validity_window
        inside = (ys >= lo) & (ys <= hi)
        dev = gap[inside].max() / full.values[inside].max()
        print(f"  limit form tracks the full expression to {dev:.2%} of peak "
              f"on its validity window |y| <= {hi:g}")
        print(f"  over the whole grid |y| <= {ys[-1]:g}, beyond the window: "
              f"{gap.max() / full.values.max():.2%} of peak")
    else:
        dev = gap.max() / full.values.max()
        print(f"  limit form tracks the full expression to {dev:.2%} of peak")
    name = OUT / f"spectrum_{variant}.csv"
    write_csv(name, ("y", "T_full", "T_limit"),
              list(zip(ys, full.values, limit.values)),
              meta={"C": p.C, "xi": p.xi})
    print(f"  written to {name}")

print("\nmarks of the doublet: peaks sit at y = +-sqrt(2 C xi)")
p = SystemParams(C=200.0, xi=1.0, N=10)
ys = np.linspace(-40, 40, 8001)
v = spectrum_closed_form("weak-closed", p, y_grid=ys).values
peak_pos = ys[np.argmax(v)]
print(f"  found |y_peak| = {abs(peak_pos):.2f}, expected {np.sqrt(400):.2f}")
