"""
Closed-form allocations against brute force
===========================================

For a fixed channel and association choice the best airtime schedule and
slot-access probabilities have closed forms. On a two-cell toy instance we
check them three ways: exhaustive configuration search, a numeric optimizer
over the allocation variables, and a slotted Monte Carlo simulation.
"""
from fairband import (
    SystemState,
    builtin,
    enumerate_optimum,
    numeric_allocation_optimum,
    slot_monte_carlo,
    throughput,
)

net = builtin("micro").to_network()
print(f"{net.n_clients} clients, {net.n_vaps} radios, {net.n_channels} channels")

# exhaustive search over every channel map and association
best = enumerate_optimum(net, "server")
print(f"\nenumerated {best.evaluated} configurations")
print(f"optimal utility {best.energy:.6f}")
for cid, vid in sorted(best.association.items()):
    print(f"  {cid} -> {vid} on {best.channel[vid]}")

# the closed-form engine must hit the same number on the winning configuration
state = SystemState(
    net,
    "server",
    net.association_array(best.association),
    net.channel_array(best.channel),
)
print(f"closed-form utility  {state.energy():.6f}")

# and a numeric search over schedules and access probabilities cannot beat it
cfg = state.to_configuration()
numeric = numeric_allocation_optimum(net, cfg.association, cfg.channel, "server")
print(f"numeric allocation   {numeric:.6f}")

# finally, simulate the slotted protocol and compare per-client rates
alloc = state.allocation()
expected = throughput(net, cfg, alloc)
empirical = slot_monte_carlo(net, cfg, alloc, slots=400_000, seed=3)
print("\nclient   closed form   simulated")
for cid in net.client_ids:
    print(f"{cid}    {expected.rates[cid]:8.3f}    {empirical[cid]:8.3f}")
