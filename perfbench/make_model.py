"""Regenerate the checkpoint the transcribe-songs workload runs.

    python3 perfbench/make_model.py

Trains the default bmace configuration on a fixed synthetic maj-min
corpus and writes its parameters, normalisation statistics and config to
``perfbench/data/songs_model.npz``. The file is plain numpy arrays, not
the package's own container, so a change to the checkpoint format does
not invalidate it: the workload writes and reads it back through
``model.save_checkpoint`` and ``model.load_checkpoint`` in its set-up.
Training is seeded, so the same sources give the same parameters.
"""

from __future__ import annotations

import sys
import time

import bootstrap

bootstrap.pin_blas_threads()

import json  # noqa: E402

import numpy as np  # noqa: E402

MODEL_PATH = bootstrap.ROOT / "perfbench" / "data" / "songs_model.npz"
CORPUS_CLIPS = 96
CORPUS_SEED = 0
EPOCHS = 12


def main():
    bootstrap.load_package()
    from bmace import chords
    from bmace import metrics as mt
    from bmace import model as md
    from bmace import training as tr

    vocab = chords.MAJMIN_25
    t0 = time.perf_counter()
    corpus = tr.make_synthetic_corpus(CORPUS_CLIPS, vocab, CORPUS_SEED)
    train, val, test = tr.split_dataset(corpus, CORPUS_SEED)
    cfg = md.ModelConfig(variant="bmace", n_classes=vocab.n_classes, seed=CORPUS_SEED)
    train_cfg = tr.TrainConfig(max_epochs=EPOCHS, patience=EPOCHS, seed=CORPUS_SEED)
    result = tr.train(cfg, train_cfg, train, val, vocab)
    held_out = [mt.evaluate_all(c.annotation, tr.predict_annotation(
        result.params, cfg, result.stats, c.features, vocab)) for c in test]
    score = mt.aggregate(held_out)["weighted"]["majmin"]
    meta = {"config": cfg.to_dict(), "stats": result.stats.to_dict(), "vocab": vocab.name,
            "corpus": {"clips": CORPUS_CLIPS, "seed": CORPUS_SEED, "epochs": EPOCHS},
            "held_out_majmin_wcsr": score}
    arrays = {name: t.data for name, t in result.params.named_tensors()}
    MODEL_PATH.parent.mkdir(parents=True, exist_ok=True)
    np.savez(MODEL_PATH, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)
    print(f"wrote {MODEL_PATH.relative_to(bootstrap.ROOT)}: best epoch {result.best_epoch}, "
          f"held-out maj-min WCSR {score:.4f}, {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
