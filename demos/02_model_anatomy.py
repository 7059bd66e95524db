"""Anatomy of the shared model: one trunk, one LM head, one head per task.

Shows the causal-masking probe and head isolation on a small random model.

Run: python3 demos/02_model_anatomy.py
"""

import numpy as np

from emogen import ModelConfig, init_parameters, parameter_count
from emogen.losses import batch_classification_nll
from emogen.text import BOS_ID, EOS_ID

config = ModelConfig(
    vocab_size=20, d_model=32, n_heads=4, n_enc_layers=1, n_dec_layers=1,
    d_ff=64, max_len=16, dropout=0.0,
    cls_heads=(("e6", 6), ("e2", 2)),
)
model = init_parameters(config, seed=0)
model.eval()

n = sum(p.size for p in model.params.values())
print(f"parameters: {n} (parameter_count, from the layout table: {parameter_count(config)})")

enc = np.array([[4, 9, 11, EOS_ID]])
mask = np.ones_like(enc, dtype=bool)
dec = np.array([[BOS_ID, 7, 8, 9]])

print("\n== causal masking probe ==")
base = model.forward_generation(enc, mask, dec).data
perturbed = dec.copy()
perturbed[0, 2] = 13  # change decoder position 2
out = model.forward_generation(enc, mask, perturbed).data
delta = np.abs(out - base).max(axis=-1)[0]
print("|delta logits| by position:", np.round(delta, 6))
print("positions before the edit are untouched; the edit and everything after move")

print("\n== head isolation ==")
model.zero_grad()
logits = model.forward_classification(enc, mask, "e6")
batch_classification_nll(logits, np.array([3])).backward()
print("e6 loss backward:")
print("  |grad| on e6 head:", np.abs(model.params["cls.e6.w"].grad).sum())
print("  |grad| on e2 head:", np.abs(model.params["cls.e2.w"].grad).sum(), "(exactly zero)")
print("  |grad| on shared embedding:", round(np.abs(model.params["emb.weight"].grad).sum(), 6))
