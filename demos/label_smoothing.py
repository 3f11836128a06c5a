"""
Hard labels to emotion-aware distributions
==========================================

Each label scheme has one conversion table: row y is the distribution
that replaces hard label y, spreading a fraction epsilon of its mass onto
emotionally adjacent classes. Classes that are not adjacent get an exact
zero, never a small float.
"""
import numpy as np

from eegraph.losses import allowed_flips, convert_labels, label_table

for scheme, names in (("seed3", ["negative", "neutral", "positive"]),
                      ("seed4", ["neutral", "sad", "fear", "happy"])):
    print(f"\n{scheme}: adjacency {allowed_flips(scheme)}")
    for eps in (0.0, 0.2, 0.4):
        print(f"  epsilon = {eps}")
        for name, row in zip(names, label_table(scheme, eps)):
            cells = "  ".join(f"{v:7.4f}" for v in row)
            print(f"    {name:8s} -> {cells}   (sum {row.sum():.1f})")

# batch conversion gathers one table row per label
labels = np.array([0, 2, 1, 1, 0])
print("\nbatch of five seed3 labels at epsilon 0.2:")
print(convert_labels(labels, "seed3", 0.2))
