"""The traced benchmark run (perfbench/layers.py) wraps newsrec attributes by
name; a refactor that renames one of them fails here, not in the benchmark."""

import os

import newsrec.autodiff as ad
import newsrec.model as mdl

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_layer_wraps_install_count_and_restore(monkeypatch, prepared, glove_lookup):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    tracer = spans.Tracer()
    config = mdl.ModelConfig(heads=2, d_head=2, d_attn=4, max_title_tokens=6, max_history=4,
                             epochs=1, batch_size=8, seed=3)
    try:
        layers.install(tracer)
        assert hasattr(mdl.train_model, "__wrapped__")
        assert hasattr(ad.backward, "__wrapped__")
        mdl.train_model(prepared["train_logs"][:8], prepared["news_tokens"], glove_lookup, config)
    finally:
        tracer.restore()
    assert not hasattr(mdl.train_model, "__wrapped__")
    assert not hasattr(ad.backward, "__wrapped__")
    assert tracer.counters["autodiff.nodes"] > 0
    assert tracer.calls("model.encode_news") > 0 and tracer.calls("model.encode_user") > 0
    assert layers.metrics_from(tracer, 0.0, 0.0, 0.0)["autodiff.nodes_per_batch"] > 0


def test_training_batch_builds_at_most_ten_nodes(monkeypatch, prepared, glove_lookup):
    """Counted as the traced benchmark counts ``autodiff.nodes``: one node per
    title or per history (about 1,170 nodes per batch) fails here."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers

    sizes = []
    backward = ad.backward

    def counting(root):
        sizes.append(layers._graph_size(root))
        backward(root)

    monkeypatch.setattr(ad, "backward", counting)
    config = mdl.ModelConfig(heads=2, d_head=2, d_attn=4, max_title_tokens=6, max_history=4,
                             epochs=1, batch_size=8, seed=3)
    mdl.train_model(prepared["train_logs"][:16], prepared["news_tokens"], glove_lookup, config)
    assert len(sizes) >= 2
    assert max(sizes) <= 10
