"""Zero-shot and generalized zero-shot classification on precomputed
features, with class semantics built from word vectors of class names
and of generated class descriptions, fused by learned affine layers."""
