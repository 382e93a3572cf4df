"""deskmt: desk-scale experimentation toolkit for low-resource machine translation.

Library layout, one module per subsystem:

- corpus    sentence datasets, domain tags, upsampled training mixes
- subword   BPE learn/encode/decode
- lm        smoothed n-gram language models
- tm        lexical translation model: EM training, beam and corpus decoding
- rerank    noisy-channel n-best reranking and weight tuning
- ensemble  probability-averaged model ensembles
- augment   back-translation / self-training data generation
- search    random hyperparameter search, early stopping, fine-tuning
- pipeline  the full iterative augmentation loop with persistent artifacts
- mine      weak-supervision bitext mining
- metrics   corpus BLEU and evaluation reports
- synth     synthetic language-pair benchmark generator
- cli       command-line entry points for every stage
"""

__version__ = "0.1.0"
