"""The inference path on a fixed checkpoint, pinned exactly.

``perfbench/fixtures/eval_scm_icm.bin`` is a partly trained SCM+ICM
model.  On twelve 64x64 twin scenes it decodes 6 to 28 candidates per
scene, so decode, matrix NMS (with real decays), fusion and PQ all run
on real predictions.  A change meant to keep inference results (a
refactor, a speedup) must reproduce every number here bit for bit: the
same pixels are thresholded, the same IoUs decay the same scores.

The model finds neither twin in any scene, so its twin rate is 0 and
``twins_covered`` never takes its positive branch; the oracle eval on
the same scenes covers that branch.
"""

from pathlib import Path

import numpy as np
import pytest

from corrseg.checkpoint import load_checkpoint, load_model_state
from corrseg.cli import main
from corrseg.model import ModelConfig, PanopticModel
from corrseg.rng import SplitMix64
from corrseg.synth import load_scene, scene_dir
from corrseg.train import evaluate_scenes, infer_panoptic

FIXTURE = Path(__file__).parents[1] / "perfbench" / "fixtures" / "eval_scm_icm.bin"

TWIN = "twin_mode=1\nmin_things=2\nmax_things=2\n"
FIRST_SEED = 20000
COUNT = 12

# (pq, sq, rq, pq_things, pq_stuff, twin_rate)
PINNED_SUMMARY = (
    0.15225860226073185,
    0.2503700777881621,
    0.20370370370370372,
    0.0,
    0.3045172045214637,
    0.0,
)

# category -> (tp, fp, fn, iou_sum)
PINNED_PER_CLASS = {
    0: (0, 4, 6, 0.0),
    1: (0, 4, 4, 0.0),
    2: (0, 11, 14, 0.0),
    3: (0, 1, 7, 0.0),
    4: (5, 4, 4, 3.95679139147158),
    5: (7, 5, 2, 4.976035319042595),
}

# scene index -> (post-NMS categories, post-NMS scores), in NMS output order
PINNED_POST_NMS = {
    0: ([0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2],
        [0.7414107637633642, 0.2766010174292916, 0.250924168678519,
         0.23391618511116025, 0.21766897311724057, 0.14847887649612362,
         0.09108133446414246, 0.1241142522322689, 0.07260631043025256,
         0.07182168639440491, 0.06749065819648892, 0.0653060563827225,
         0.06526821852172857, 0.06388282070849972]),
    5: ([1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2],
        [0.8503594362506819, 0.4921932389492739, 0.47552898552071726,
         0.42550016737922064, 0.36624731993670284, 0.33751513470217803,
         0.17094256643003503, 0.13220252433295168, 0.07979579440964146,
         0.07877276192333449, 0.07572621621680004, 0.07163641440031332]),
    10: ([0, 0, 0, 2, 0, 0],
         [0.7842620087609702, 0.30377012644311574, 0.23233014826776088,
          0.13824911398779083, 0.07600964912377517, 0.0647282971702744]),
}


@pytest.fixture(scope="module")
def twin_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned_eval")
    cfg = root / "twin.cfg"
    cfg.write_text(TWIN)
    data = root / "data"
    assert main(["gen", "--config", str(cfg), "--out", str(data),
                 "--count", str(COUNT), "--seed", str(FIRST_SEED)]) == 0
    return data


@pytest.fixture(scope="module")
def scenes(twin_data):
    return [load_scene(scene_dir(twin_data, s))
            for s in range(FIRST_SEED, FIRST_SEED + COUNT)]


@pytest.fixture(scope="module")
def model():
    model = PanopticModel(ModelConfig(use_scm=True, use_icm=True), SplitMix64(0))
    load_model_state(model, load_checkpoint(FIXTURE), str(FIXTURE))
    return model


def test_pq_and_twin_rate_are_pinned(model, scenes):
    result, rate = evaluate_scenes(model, scenes)
    assert (result.pq, result.sq, result.rq, result.pq_things, result.pq_stuff,
            rate) == PINNED_SUMMARY
    per_class = {k: (c.tp, c.fp, c.fn, c.iou_sum) for k, c in result.per_class.items()}
    assert per_class == PINNED_PER_CLASS


@pytest.mark.parametrize("index", sorted(PINNED_POST_NMS))
def test_post_nms_scores_are_pinned(model, scenes, index):
    categories, scores = PINNED_POST_NMS[index]
    _, pred = infer_panoptic(model, scenes[index])
    np.testing.assert_array_equal(pred.categories, categories)
    np.testing.assert_array_equal(pred.scores, scores)


def test_oracle_eval_finds_every_twin(twin_data, tmp_path):
    out = tmp_path / "oracle"
    assert main(["eval", "--data", str(twin_data), "--oracle", "--out", str(out)]) == 0
    header, row = (out / "report.csv").read_text().splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    assert report["variant"] == "oracle"
    assert float(report["pq"]) == 1.0
    assert float(report["twin_rate"]) == 1.0
