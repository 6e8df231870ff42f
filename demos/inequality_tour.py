"""A walk through the functional-inequality checkers.

Each checker returns a ratio measured/allowed; the suite asserts the
ratio stays at or below a declared bound on randomized inputs. Two
closed-form reference points anchor the scale: the product-cosine
bilinear estimate ratio 1/(8 pi), and interpolation saturating on a
single mode.

Run: python3 demos/inequality_tour.py
"""

import numpy as np

from sglab.inequalities import (
    BUNDLE_CHECKS,
    FIELD_CHECKS,
    check_det_lipschitz,
    check_h1_interp,
    check_sobolev_interp,
    check_wente,
    random_field,
    run_suite,
)
from sglab.spectral import ScalarField, TorusGrid

# each check's declared bound, as the suite's registry holds it
BOUNDS = {name: row[1] for name, row in (FIELD_CHECKS | BUNDLE_CHECKS).items()}


def gate(name):
    bound = BOUNDS[name]
    return "unbounded" if bound is None else f"bound {bound:g}"


grid = TorusGrid(64)
x, y = grid.points()

# the product cosine turns the H^-1 bilinear estimate into an identity
psi = ScalarField(grid, np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
print("bilinear det estimate on cos(2pi x)cos(2pi y):")
print(f"  ratio {check_wente(psi):.12f}   closed form 1/(8 pi) = {1 / (8 * np.pi):.12f}")

mode = ScalarField(grid, np.cos(2 * np.pi * (2 * x + y)))
print(f"\nH1 interpolation on a single mode saturates: "
      f"ratio = {check_h1_interp(mode):.12f}")

rng = np.random.default_rng(42)
f = random_field(grid, rng, gamma=3.0)
g = random_field(grid, rng, gamma=3.0)
print(f"\nrandom smooth fields (spectral decay |k|^-3):")
print(f"  sobolev interpolation  ratio {check_sobolev_interp(f):.4f} ({gate('sobolev_interp')})")
print(f"  det Lipschitz in H^-1  ratio {check_det_lipschitz(f, g):.4f} ({gate('det_lip')})")

print("\nfull suite, one seed, 20 samples per checker:")
rep = run_suite(7, count=20)
worst = sorted(rep.max_ratios(), key=lambda row: -row["max_ratio"])[:6]
for row in worst:
    print(f"  {row['name']:>22}: max ratio {row['max_ratio']:.4f} ({gate(row['name'])})")
n_pass = sum(r.passed for r in rep.results)
print(f"  {n_pass}/{len(rep.results)} checks passed, {len(rep.errors)} errors")
