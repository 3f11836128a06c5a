"""
A first training run
====================

Generates an easy synthetic dataset, trains one model per subject on the
within-subject protocol, and reads the learned graph back out of a saved
checkpoint.
"""
import tempfile
from pathlib import Path

from eegraph.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from eegraph.data import SynthConfig, synthesize
from eegraph.eval import run_protocol, top_k_connections
from eegraph.train import TrainConfig

ds = synthesize(SynthConfig(
    subjects=2, trials_per_class=10, samples_per_trial=10,
    n_channels=8, n_bands=5, n_classes=3,
    class_separation=5.0, subject_shift_scale=0.0,
    seed=3,
))
print(f"dataset: {ds.n_samples} samples, {ds.n_channels} channels, "
      f"{ds.n_bands} bands, scheme {ds.label_scheme}")

cfg = TrainConfig(epochs=150, lr=0.01, hidden_dim=16, batch_size=16,
                  dropout=0.0, alpha=0.01, steps=1, seed=0)
report, results = run_protocol(ds, "subject_dependent", cfg, train_trials=24)

print("\nloss trajectory of the first fold (every 30th epoch):")
for row in results[0].history[::30]:
    print(f"  epoch {row['epoch']:3d}  objective {row['kl_term'] + row['l1_term']:8.2f}"
          f"  train accuracy {row['train_accuracy']:.3f}")

print(f"\nper-subject test accuracy: {['%.3f' % a for a in report.fold_accuracies]}")
print(f"mean {report.mean:.3f}, std {report.std:.3f}")

# checkpoints round-trip bit-exactly; the learned adjacency rides along
first = results[0]
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "fold0.ckpt"
    save_checkpoint(path, Checkpoint(
        cfg=first.model_cfg, params=first.params,
        channel_names=first.channel_names, global_pairs=first.global_pairs,
    ))
    back = load_checkpoint(path)

print("\nstrongest learned connections (self-loops excluded):")
for a, b, w in top_k_connections(back.params, 5, channel_names=back.channel_names):
    print(f"  {a} -- {b}  {w:+.3f}")
