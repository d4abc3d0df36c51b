"""Ising machine substrate: the bipartite, RBM-shaped machine.

The paper builds on the BRIM (Bistable Resistively-coupled Ising Machine)
substrate: nodes are capacitor voltages made bistable by a feedback unit,
couplings are programmable resistors, and the dynamical system settles into
local minima of the Ising Hamiltonian (Eq. 1).  Figure 3 specializes that
layout to the RBM's bipartite graph;
:class:`~repro.ising.bipartite.BipartiteIsingSubstrate` is that machine —
visible/hidden nodes with clamping support and analog sampling — which the
Gibbs-sampler and Boltzmann-gradient-follower architectures build on.
"""

from repro.ising.bipartite import BipartiteIsingSubstrate

__all__ = [
    "BipartiteIsingSubstrate",
]
