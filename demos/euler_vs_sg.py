"""Paired Euler / regularized runs from one datum: the velocity gap
grows from zero and stays O(eps) while the bootstrap margins hold.

Run: python3 demos/euler_vs_sg.py
"""

from dataclasses import replace

from sglab.config import RunConfig
from sglab.lagrangian import paired_gap_series, sample_flows
from sglab.transport import run_simulation

base = RunConfig(n=64, t_final=1.0, sample_interval=0.1, initial_data="mild")
euler = run_simulation(replace(base, model="Euler", eps=0.0))
euler_flows = sample_flows(euler, m=24, dt=0.025)

for eps in (0.04, 0.02):
    sg = run_simulation(replace(base, model="SGeps", eps=eps))
    gaps = paired_gap_series(sg, euler, sample_flows(sg, m=24, dt=0.025), euler_flows)
    print(f"\neps = {eps}: velocity gap ||grad(phibar - psi)||_L2 "
          f"and flow-map gap over time")
    print(f"{'t':>5} {'velocity_gap':>13} {'flow_gap':>10} {'gap/eps':>9}")
    for t, vg, fg in zip(gaps.times, gaps.velocity_gap, gaps.flow_gap):
        print(f"{t:>5.1f} {vg:>13.3e} {fg:>10.3e} {vg / eps:>9.5f}")

print("\nper-state diagnostics carried by every run (last Euler sample):")
d = euler.diagnostics[-1]
print(f"  t={d.t}  |rho|_L2={d.l2_rho:.6f}  |grad rho|_inf={d.grad_linf_rho:.4f}")
print(f"  |D^2 psi|_inf={d.hess_linf_psi:.4f}  inside window: {d.inside}")
print("halving eps halves the velocity gap: the gap/eps column is stable.")
