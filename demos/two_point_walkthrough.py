"""Walk through the bounds on the smallest interesting problem.

The forward model averages two coordinates: y = (x1 + x2) / 2. It cannot be
inverted, and the signals (1, 3) and (3, 1) produce the identical noiseless
measurement y = 2. This script computes every bound the library offers on
that two-element feasible set and shows they agree with hand arithmetic.
"""

import numpy as np

from kersize import (
    FeasibleSet,
    FeasibleSetCollection,
    LinearModel,
    NoiseSpec,
    NormSpec,
    PairedDataset,
    kernel_projection,
    kersize,
    loss,
    optimal_map_value,
    skersize,
    verify_bounds,
)
from kersize.core import dataset_from_collection

norm = NormSpec(p=2, q=2)
A = np.array([[0.5, 0.5]])

print("Forward model: y = (x1 + x2)/2, no noise")
print("Signals (1,3) and (3,1) share the measurement y = 2.\n")

# --- the pairwise route: average kernel size --------------------------------
collection = FeasibleSetCollection(
    d1=2, d2=1,
    entries=(FeasibleSet(id="y2", measurement=[2.0], members=[[1, 3], [3, 1]]),),
)
value, contributions = kersize(collection, norm)
print(f"Mean ordered-pair |x - x'|^2   : {contributions[0]:.1f}   "
      f"(distances 0, 8, 8, 0 over 4 ordered pairs)")
print(f"Average kernel size            : {value:.8f}   (the square root)")
print(f"Half of it (the lower bound)   : {value / 2:.8f}")

theta = optimal_map_value(collection.entries[0].members, norm)
print(f"Optimal map value theta(y)     : {theta}   (the member mean)")

dataset = dataset_from_collection(collection)
theta_loss = loss(dataset, {"y2": theta}, norm)
print(f"Loss of theta                  : {theta_loss:.8f}")
print(f"Sandwich: {value/2:.6f} <= {theta_loss:.6f} <= {value:.6f}\n")

report = verify_bounds(collection, {"zero": {"y2": np.zeros(2)}}, norm)
print(f"verify_bounds: lower_ok={report.lower_ok}, theta_upper_ok={report.theta_upper_ok}")
print(f"zero-map loss                  : {report.losses['zero']:.8f}\n")

# --- the fast route: symmetric kernel size ----------------------------------
P = kernel_projection(A)
print("Kernel projector P = I - A^+ A :")
print(np.round(P, 12))

pairs = PairedDataset(x=[[1.0, 3.0]], y=[[2.0]], group=[0], group_ids=("y2",))
model = LinearModel(A, NoiseSpec(kind="additive"), [[-np.inf, np.inf]] * 2)  # no signal box
res = skersize(pairs, model, norm)
x_refl = res.symmetrized.x[1]
print(f"Reflection of (1, 3)           : {np.round(x_refl, 12)}   (same measurement)")
print(f"Symmetric kernel size          : {res.skersize:.8f}")
mean_loss = loss(res.symmetrized, {"y2": np.array([2.0, 2.0])}, norm)
print(f"Loss of the mean map on the symmetrized dataset: {mean_loss:.8f}")
print("The mean map attains the symmetric bound exactly -- it is sharp here.")
