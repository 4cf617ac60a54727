"""News recommendation toolkit.

Ingest MIND-format news/behavior files, preprocess text (tokenize,
stopword removal, stemming), train GloVe word embeddings, train an
attention-based news/user click model, evaluate rankings (AUC, MRR,
nDCG@k), and serve recommendation / similarity queries plus corpus
analytics, all behind the ``newsrec`` command-line tool.

The submodules are the API (``from newsrec import glove``,
``newsrec.model.train_model``); the package root re-exports nothing.
"""
