"""First-order corrector: adding eps * (rho1, phi1) to the Euler fields
upgrades the O(eps) approximation of the regularized run to O(eps^2).

The corrector system transports rho1 by the Euler flow with a coupling
force, seeded from rho1(0) = 0, and its potential solves a Poisson
equation forced by the background's Hessian determinant.

Run: python3 demos/corrector_accuracy.py
"""

from dataclasses import replace

import numpy as np

from sglab.config import RunConfig
from sglab.spectral import NormKind, norm
from sglab.transport import run_simulation

base = RunConfig(n=64, t_final=0.5, sample_interval=0.25, initial_data="mild")

# the corrector pair solves eps-free equations: one run serves every eps
corr = run_simulation(replace(base, model="Corrector"))
rows = []
for eps in (0.08, 0.04, 0.02):
    sg = run_simulation(replace(base, model="SGeps", eps=eps))
    gap_bare = []
    gap_corr = []
    for s_sg, s_c in zip(sg.states, corr.states):
        phibar = s_c.background.potential
        tilde = phibar + eps * s_c.potential
        gap_bare.append(norm(s_sg.potential - phibar, NormKind.Hs(1.0)))
        gap_corr.append(norm(s_sg.potential - tilde, NormKind.Hs(1.0)))
    rows.append((eps, max(gap_bare), max(gap_corr)))

print(f"{'eps':>6} {'bare gap':>12} {'corrected':>12} {'bare/eps':>10} "
      f"{'corr/eps^2':>11}")
for eps, bare, corr in rows:
    print(f"{eps:>6} {bare:>12.3e} {corr:>12.3e} {bare / eps:>10.5f} "
          f"{corr / eps ** 2:>11.5f}")

eps_v = np.log([r[0] for r in rows])
bare_slope = np.polyfit(eps_v, np.log([r[1] for r in rows]), 1)[0]
corr_slope = np.polyfit(eps_v, np.log([r[2] for r in rows]), 1)[0]
print(f"\nlog-log slopes: bare {bare_slope:.3f} (expect ~1), "
      f"corrected {corr_slope:.3f} (expect ~2)")
