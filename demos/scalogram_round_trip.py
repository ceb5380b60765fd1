"""Analyze a signal over rotations and scales, then rebuild it.

The transform is diagonal on the doubled-angle modes, so its total energy
equals pi times the mode sum weighted by the wavelet's scale integrals.
Reconstruction divides that diagonal back out; truncating the scale range
is the only thing standing between the round trip and machine precision.
"""

import numpy as np

from circlet import (
    CircleGrid,
    CircleSignal,
    ScaleGrid,
    analyze,
    fourier_coeffs,
    lambda_sequence,
    make_dog,
    synthesize,
)

grid = CircleGrid(1024)
t = grid.nodes
psi = CircleSignal(grid, np.cos(2 * t) + 0.5 * np.sin(4 * t))
dog = make_dog(2.0)
report = lambda_sequence(dog, n_max=16)

scal = analyze(psi, dog, n_max=16)
print(f"scalogram shape: {(scal.scales.count, scal.angles.n_samples)} (scales x angles)")

peak = np.unravel_index(np.argmax(np.abs(scal.values)), scal.values.shape)
print(f"largest coefficient at scale {scal.scales.nodes[peak[0]]:.3f}, "
      f"angle {scal.angles.nodes[peak[1]]:+.3f}")

energy = scal.energy()
c = fourier_coeffs(psi, 16)
lam = np.array([report.lambda_of(n) for n in range(-16, 17)])
diagonal = np.pi * float(np.sum(lam * np.abs(c.values) ** 2))
print(f"\ntransform energy:  {energy:.10f}")
print(f"diagonal mode sum: {diagonal:.10f}")
print(f"relative gap:      {abs(energy / diagonal - 1.0):.2e}")

print("\nround-trip error as the scale window widens:")
for a_min, a_max in ((1e-1, 1e1), (1e-2, 1e2), (1e-3, 1e3)):
    s = analyze(psi, dog, scales=ScaleGrid(a_min, a_max, 400), n_max=16)
    rec = synthesize(s, dog, report)
    err = np.linalg.norm(rec.values - psi.values) / np.linalg.norm(psi.values)
    print(f"  [{a_min:.0e}, {a_max:.0e}] x 400: {err:.2e}")
