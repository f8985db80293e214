"""Entropy-KL selective fine-tuning on a tiny CPU transformer.

Subpackages:
  numerics    float64 kernels with hand-written backward
  model       one flat parameter vector, tiny causal transformer, checkpoints, frozen reference
  selection   per-token entropy/KL stats as one record array, Top-K union masking, IoU
  objective   one training objective for five methods, analytic logit gradients
  train       AdamW, supervised loop, clipped group-rollout RL loop
  tasks       synthetic verifiable task families and tokenization
  evaluation  temperature sampling, pass@k, response entropy
  analyze     drift, mask-overlap series, ratio sweep, SVG export
  cli         subcommand front end over the whole pipeline
"""

__version__ = "0.1.0"
