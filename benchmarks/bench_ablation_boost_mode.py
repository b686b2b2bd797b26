"""Ablation — AdaBoost reweighting vs resampling.

WEKA's AdaBoostM1 reweights instances for weight-aware learners and
resamples otherwise; forcing resampling everywhere (``-Q``) is the other
design point.  This bench compares both modes on the weight-aware tree
learners at the 2-HPC budget.
"""

from repro.core.config import DetectorConfig
from repro.core.config import build_base_classifier
from repro.features.reduction import FeatureReducer
from repro.ml.ensemble.adaboost import AdaBoostM1
from repro.ml.metrics import evaluate_detector

CLASSIFIERS = ("J48", "REPTree")


def test_ablation_boost_mode(benchmark, split):
    reducer = FeatureReducer(n_features=2).fit(split.train)
    train = reducer.transform(split.train)
    test = reducer.transform(split.test)

    def run():
        results = {}
        for classifier in CLASSIFIERS:
            for resample in (False, True):
                model = AdaBoostM1(
                    build_base_classifier(classifier),
                    n_estimators=10,
                    use_resampling=resample,
                    seed=3,
                )
                model.fit(train.features, train.labels)
                scores = evaluate_detector(
                    test.labels,
                    model.predict(test.features),
                    model.decision_scores(test.features),
                )
                results[(classifier, resample)] = (scores, model.n_models)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nAblation: AdaBoost reweight vs resample @2HPC")
    print(f"{'classifier':12s} {'mode':>9s} {'models':>7s} {'acc':>7s} {'auc':>7s}")
    for (classifier, resample), (scores, n_models) in results.items():
        mode = "resample" if resample else "reweight"
        print(f"{classifier:12s} {mode:>9s} {n_models:>7d} "
              f"{scores.accuracy:>7.3f} {scores.auc:>7.3f}")

    # Both modes produce working boosted detectors of comparable quality.
    for scores, n_models in results.values():
        assert scores.accuracy > 0.6
        assert n_models >= 1
    for classifier in CLASSIFIERS:
        reweight = results[(classifier, False)][0].performance
        resample = results[(classifier, True)][0].performance
        assert abs(reweight - resample) < 0.15
