"""Extension — heterogeneous committee of the paper's eight classifiers.

The paper observes "there is no unique classifier that delivers the best
results across various metrics."  The natural follow-up: what does a
*committee* of the eight base learners do at a small HPC budget, and do
OOB-learned member weights beat uniform voting?
"""

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.config import build_base_classifier
from repro.features.reduction import FeatureReducer
from repro.ml.ensemble.voting import VotingEnsemble
from repro.ml.metrics import evaluate_detector

COMMITTEE = ("BayesNet", "J48", "JRip", "OneR", "REPTree", "SGD", "SMO")


def test_extension_voting_committee(benchmark, split):
    reducer = FeatureReducer(n_features=4).fit(split.train)
    train = reducer.transform(split.train)
    test = reducer.transform(split.test)

    def run():
        members = [build_base_classifier(name) for name in COMMITTEE]
        results = {}
        uniform = VotingEnsemble([m.clone() for m in members], voting="soft")
        uniform.fit(train.features, train.labels)
        results["uniform-soft"] = (
            evaluate_detector(
                test.labels,
                uniform.predict(test.features),
                uniform.decision_scores(test.features),
            ),
            uniform.member_weights,
        )
        weighted = VotingEnsemble(
            [m.clone() for m in members], voting="soft", holdout_fraction=0.25, seed=5
        )
        weighted.fit(train.features, train.labels)
        results["oob-weighted"] = (
            evaluate_detector(
                test.labels,
                weighted.predict(test.features),
                weighted.decision_scores(test.features),
            ),
            weighted.member_weights,
        )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nExtension: committee of the paper's classifiers @4HPC")
    for name, (scores, weights) in results.items():
        weight_text = ", ".join(
            f"{member}:{weight:.2f}" for member, weight in zip(COMMITTEE, weights)
        )
        print(f"{name:14s} acc={scores.accuracy:.3f} auc={scores.auc:.3f} "
              f"perf={scores.performance:.3f}")
        print(f"               weights: {weight_text}")

    # Compare against the best homogeneous general classifier at 4HPC.
    best_single = max(
        HMDDetector(DetectorConfig(name, "general", 4))
        .fit(split.train)
        .evaluate(split.test)
        .performance
        for name in ("REPTree", "JRip")
    )
    committee_best = max(scores.performance for scores, _ in results.values())
    print(f"\nbest single general @4HPC perf={best_single:.3f} "
          f"vs committee {committee_best:.3f}")
    assert committee_best > 0.9 * best_single
    for name, (scores, _) in results.items():
        assert scores.accuracy > 0.7, name
